"""Run the dicyclic-dessins command line from a source checkout.

    PYTHONPATH=src python bench/entry.py [--trace-to FILE] COMMAND [OPTIONS]

This is the console script `dicyclic-dessins` without an install.  With
`--trace-to FILE` it first installs the layer wrappers of `tracer.py`,
then runs the command and writes the recorded spans and counters to FILE
as JSON, whatever the exit code.  Either way its last line on standard
error gives the peak resident memory of the command.
"""

from __future__ import annotations

import sys

PEAK_RSS_TAG = "entry.py peak_rss_kb="


def report_peak_rss() -> None:
    """Print the high-water mark of this process's resident memory.

    `ru_maxrss` would not do: a child that the spawning process forked
    counts the spawner's memory too, until it execs.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                print(f"{PEAK_RSS_TAG}{line.split()[1]}", file=sys.stderr)


def main() -> None:
    try:
        run(sys.argv[1:])
    finally:
        report_peak_rss()


def run(args: list[str]) -> None:
    if args[:1] != ["--trace-to"]:
        from dicyclic_dessins.cli import main as cli_main
        sys.argv = [sys.argv[0], *args]
        cli_main()
        return

    from tracer import IMPORT_SPAN, MAIN_SPAN, Tracer

    trace_path, args = args[1], args[2:]
    tracer = Tracer()
    with tracer.span(IMPORT_SPAN):
        from dicyclic_dessins.cli import main as cli_main
    tracer.install()
    sys.argv = [sys.argv[0], *args]
    try:
        with tracer.span(MAIN_SPAN):
            cli_main()
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    main()
