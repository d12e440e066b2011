"""End-to-end and per-layer benchmark of the dicyclic-dessins command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark is a closed loop
with one client: it spawns the command line (through `entry.py`, with
PYTHONPATH=src, so nothing needs installing) for one case at a time and
repeats the workload's cases until S seconds have been measured.  Every
case is checked against the closed forms in `oracle.py`, and its payload
digest must not change between passes; a case that crashes, runs over
the time cap, exits with an unexpected code, fails the oracle or changes
its digest counts as failed.

The benchmark and the cases it spawns run on one CPU, and every time
is normalised for how fast that CPU ran while it was taken (see
`speed.py`); the raw times are kept in the details line.

With --trace 0 the last line of output carries the end-to-end metrics of
untraced passes.  With --trace 1 traced passes, which run the same cases
with the layer wrappers of `tracer.py` installed, alternate with
untraced ones, and the last line carries the per-layer metrics.  The line
before the last holds provenance and the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from entry import PEAK_RSS_TAG
from oracle import check_envelope, check_paper_report, directory_digest, envelope_digest
from speed import SpeedMonitor, pin_to_one_cpu
from tracer import COUNT_METRICS, RATIO_METRICS, TIME_METRICS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Every seed case takes under 10 s on a 2-core machine; the cap only stops
# a regression from hanging the run.
CASE_CAP_S = 60.0
# A run must end within 180 s; no case is started or kept running past this.
RUN_BUDGET_S = 165.0
SETUP_SPAWNS = 15


@dataclass(frozen=True)
class Case:
    command: str
    params: dict
    argv: tuple[str, ...]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def census(n: int) -> Case:
    return Case("census", {"n": n}, ("census", "--n", str(n)))


def genus(n: int, mode: str) -> Case:
    return Case("genus", {"n": n, "mode": mode, "g_max": n + 2},
                ("genus", "--n", str(n), "--mode", mode))


def hyper(n: int) -> Case:
    return Case("hyper", {"n": n, "gamma_max": 1, "r_max": 3}, ("hyper", "--n", str(n)))


def paper_report(lo: int, hi: int, seed: int) -> Case:
    return Case("paper-report", {"lo": lo, "hi": hi, "seed": seed, "heavy": True},
                ("paper-report", "--n-range", f"{lo}..{hi}", "--heavy",
                 "--seed", str(seed)))


# Why each workload: paper-sweep is the full run a user makes and the only
# one that reaches every module (curves, monodromy, covers, the repeated
# census calls); census-scale is the n-scaling axis of the census, which
# never enters the vector searches or the curves; search-sweep is the
# orientable and non-orientable exhaustive searches at both parities of n,
# which never call the census or the automorphisms, and load the group
# layer through element arithmetic and closures instead.  Only
# paper-report takes a seed: the other commands are deterministic.
WORKLOADS = {
    "paper-sweep": lambda seed: [paper_report(2, 12, seed)],
    "census-scale": lambda seed: [census(8), census(16), census(24)],
    "search-sweep": lambda seed: [genus(27, "strong"), genus(32, "pure"),
                                  hyper(33), hyper(40)],
}


@dataclass(frozen=True)
class Usage:
    """What one spawn used: raw times, the factor that normalises them,
    and the command's peak resident memory (0 when it did not report)."""
    wall_s: float
    cpu_s: float
    scale: float
    peak_rss_kb: int


@dataclass
class CaseRun:
    usage: Usage
    problems: list[str]
    trace: dict | None = None


@dataclass
class Pass:
    runs: list[CaseRun]

    @property
    def raw_wall_s(self) -> float:
        return sum(r.usage.wall_s for r in self.runs)

    @property
    def wall_s(self) -> float:
        return sum(r.usage.wall_s * r.usage.scale for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.usage.cpu_s * r.usage.scale for r in self.runs)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Spawns cases one at a time and checks each result."""

    def __init__(self, work_dir: Path, deadline: float, monitor: SpeedMonitor) -> None:
        self.work_dir = work_dir
        self.deadline = deadline
        self.monitor = monitor
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.digests: dict[str, str] = {}

    def spawn(self, args: list[str]) -> tuple[subprocess.CompletedProcess | None, Usage]:
        """Run the entry shim; None when killed at the time cap."""
        timeout = min(CASE_CAP_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return None, Usage(0.0, 0.0, 1.0, 0)
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "entry.py"), *args],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc = None
        t1 = time.perf_counter()
        cpu = _children_cpu_s() - cpu0
        rss_kb = 0
        if proc is not None:
            head, tag, tail = proc.stderr.rpartition(PEAK_RSS_TAG)
            if tag:
                proc.stderr, rss_kb = head, int(tail)
        return proc, Usage(t1 - t0, cpu, self.monitor.scale(t0, t1), rss_kb)

    def run_case(self, case: Case, traced: bool) -> CaseRun:
        out_dir = self.work_dir / "report"
        trace_path = self.work_dir / "trace.json"
        args = list(case.argv)
        if case.command == "paper-report":
            shutil.rmtree(out_dir, ignore_errors=True)
            args += ["--out", str(out_dir)]
        if traced:
            trace_path.unlink(missing_ok=True)
            args = ["--trace-to", str(trace_path), *args]
        proc, usage = self.spawn(args)
        if proc is None:
            return CaseRun(usage, [f"{case.label}: not done within the time cap"])
        try:
            if case.command == "paper-report":
                p = case.params
                problems = check_paper_report(range(p["lo"], p["hi"] + 1), p["seed"],
                                              p["heavy"], proc.returncode, out_dir)
                digest = directory_digest(out_dir)
            else:
                problems = check_envelope(case.command, case.params,
                                          proc.returncode, proc.stdout)
                digest = envelope_digest(proc.stdout)
            trace = json.loads(trace_path.read_text()) if traced else None
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            detail = proc.stderr.strip().splitlines()[-1:] or [""]
            return CaseRun(usage, [f"{case.label}: unreadable output "
                                    f"({exc!r}) {detail[0]}"])
        if self.digests.setdefault(case.label, digest) != digest:
            problems.append(f"{case.label}: payload differs from its first run")
        return CaseRun(usage, problems, trace)

    def run_pass(self, cases: list[Case], traced: bool) -> Pass:
        return Pass([self.run_case(case, traced) for case in cases])

    def setup_s(self) -> list[Usage]:
        """Times of spawning the command line on --help."""
        samples = []
        for _ in range(SETUP_SPAWNS):
            proc, usage = self.spawn(["--help"])
            if proc is None or proc.returncode != 0 or "Usage" not in proc.stdout:
                detail = "timed out" if proc is None else proc.stderr.strip()[-500:]
                raise SystemExit(f"the command line does not start: {detail}")
            samples.append(usage)
        return samples


def _metric(name: str, value: float) -> dict:
    if name.endswith("_s"):
        unit = "s"
    elif name.endswith(("_frac", "_ratio")):
        unit = "ratio"
    elif name.endswith("_mb"):
        unit = "MB"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the program's sources, which names the code measured
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details line)."""
    start = time.perf_counter()
    cases = WORKLOADS[workload](seed)
    work_dir = ROOT / ".bench_run" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    cpu = pin_to_one_cpu()
    try:
        with SpeedMonitor() as monitor:
            runner = Runner(work_dir, start + RUN_BUDGET_S, monitor)
            setup = runner.setup_s()
            plain: list[Pass] = []
            with_trace: list[Pass] = []
            measure_start = time.perf_counter()
            # Start another round only if it should end within the measured time.
            while True:
                round_start = time.perf_counter()
                plain.append(runner.run_pass(cases, traced=False))
                if traced:
                    with_trace.append(runner.run_pass(cases, traced=True))
                now = time.perf_counter()
                if now + (now - round_start) - measure_start > seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    runs = [r for p in plain + with_trace for r in p.runs]
    peak_rss_mb = max(u.peak_rss_kb for u in setup + [r.usage for r in runs]) / 1024
    problems = [msg for r in runs for msg in r.problems]
    failed = sum(1 for r in runs if r.problems)
    wall_s = statistics.median(p.wall_s for p in plain)
    if traced:
        per_pass = [layer_metrics([(r.trace, r.usage.scale) for r in p.runs if r.trace])
                    for p in with_trace]
        traced_wall_s = statistics.median(p.wall_s for p in with_trace)
        values = {name: statistics.median(m[name] for m in per_pass)
                  for name in TIME_METRICS + COUNT_METRICS + RATIO_METRICS}
        values["trace.overhead_frac"] = traced_wall_s / wall_s - 1
        values["trace.span_coverage_frac"] = statistics.median(
            m["raw_spans_s"] / p.raw_wall_s for m, p in zip(per_pass, with_trace))
    else:
        values = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(p.cpu_s for p in plain),
            "setup_s": statistics.median(t.wall_s * t.scale for t in setup),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: _metric(name, v) for name, v in values.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cases": [c.label for c in cases],
        "case_cap_s": CASE_CAP_S,
        "samples": {"setup_s": len(setup), "passes": len(plain),
                    "traced_passes": len(with_trace)},
        "cpu": cpu,
        "setup_s": [t.wall_s * t.scale for t in setup],
        "pass_wall_s": [p.wall_s for p in plain],
        "pass_cpu_s": [p.cpu_s for p in plain],
        "traced_pass_wall_s": [p.wall_s for p in with_trace],
        "raw_setup_s": [t.wall_s for t in setup],
        "raw_pass_wall_s": [p.raw_wall_s for p in plain],
        "raw_traced_pass_wall_s": [p.raw_wall_s for p in with_trace],
        "ops_failed_frac": failed / len(runs),
        "missing_trace_targets": sorted({t for r in runs if r.trace
                                         for t in r.trace["missing"]}),
        "problems": problems[:20],
        "run_s": time.perf_counter() - start,
    }
    return result, details


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dicyclic_dessins" / "cli.py").is_file():
        sys.exit(f"no dicyclic_dessins sources under {ROOT / 'src'}")
    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
