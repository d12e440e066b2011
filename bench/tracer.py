"""Layer tracing for the benchmark, installed at run time.

`Tracer.install` wraps chosen functions and methods of the
`dicyclic_dessins` modules; nothing under `src/` is edited.  A span
wrapper records (name, start, end, parent) for each call; a counter
wrapper adds a number derived from each call's result to a named
counter.  Spans and counters stay in memory and `Tracer.write` dumps
them as JSON when the traced process ends.

`layer_metrics` turns one or more such dumps into the per-layer metrics:
a layer's time is the self time of its spans (span duration minus the
part its child spans cover), so the times of all layers add up to the
time the spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import cached_property, wraps

PACKAGE = "dicyclic_dessins"

# (module, attribute, metric that the span's self time goes to).  Element
# level methods (GroupElement.__mul__, order, Permutation.__mul__ ...) get
# no span: they run millions of times, so their time stays in the caller's
# span and tracing them would measure the tracer.
SPANS = (
    ("group", "DicyclicGroup.elements", "group.tables_s"),
    ("group", "DicyclicGroup.mul_table", "group.tables_s"),
    ("group", "DicyclicGroup.inverse_table", "group.tables_s"),
    ("group", "DicyclicGroup.order_table", "group.tables_s"),
    ("group", "DicyclicGroup.conjugacy_classes", "group.tables_s"),
    ("group", "DicyclicGroup.subgroups", "group.subgroups_s"),
    ("group", "DicyclicGroup.index_two_subgroups", "group.subgroups_s"),
    ("group", "DicyclicGroup.automorphisms", "group.automorphisms_s"),
    ("group", "DicyclicGroup.automorphism_index_perms", "group.aut_perms_s"),
    ("group", "DicyclicGroup.subgroup_generated", "group.closure_s"),
    ("group", "DicyclicGroup._closure_indices", "group.closure_s"),
    ("covering", "triangular_census", "covering.census_s"),
    ("covering", "census_representative", "covering.census_s"),
    ("covering", "fixed_point_count", "covering.fixed_points_s"),
    ("covering", "free_elements", "covering.fixed_points_s"),
    ("covering", "is_purely_non_free", "covering.fixed_points_s"),
    ("covering", "quotient_genus", "covering.quotients_s"),
    ("covering", "quotient_signature", "covering.quotients_s"),
    ("monodromy", "verify_remark_relations", "monodromy.relations_s"),
    ("monodromy", "remark_dessin", "monodromy.dessin_s"),
    ("monodromy", "graph_of", "monodromy.dessin_s"),
    ("monodromy", "is_doubled_cycle", "monodromy.dessin_s"),
    ("monodromy", "DessinMonodromy.genus", "monodromy.dessin_s"),
    ("monodromy", "DessinMonodromy.passport", "monodromy.dessin_s"),
    ("monodromy", "DessinMonodromy.monodromy_group_order", "monodromy.dessin_s"),
    ("covers", "class_count", "covers.classes_s"),
    ("covers", "canonical_representatives", "covers.classes_s"),
    ("real_forms", "sigma_hyp", "real_forms.search_s"),
    ("real_forms", "build_pseudo_real", "real_forms.pseudo_real_s"),
    ("genus", "strong_symmetric_genus", "genus.search_s"),
    ("genus", "pure_symmetric_genus", "genus.search_s"),
    ("genus", "torus_exclusion_report", "genus.torus_exclusion_s"),
    ("curves", "verify_dicyclic_relations", "curves.checks_s"),
    ("curves", "verify_belyi", "curves.checks_s"),
    ("curves", "verify_anticonformal", "curves.checks_s"),
    ("reports", "Report.payload", "reports.serialize_s"),
    ("reports", "Report.payload_json", "reports.serialize_s"),
    ("reports", "Report.envelope_json", "reports.serialize_s"),
)

# Spans the entry shim opens itself: the package import, and the whole
# command (whose self time is the report builders and click, minus every
# layer they call).
IMPORT_SPAN = "cli.import"
MAIN_SPAN = "cli.main"
SPAN_METRIC = {f"{module}.{attr}": metric for module, attr, metric in SPANS}
SPAN_METRIC.update({IMPORT_SPAN: "cli.import_s", MAIN_SPAN: "cli.self_s"})

# (module, attribute, counter, amount added per call given the result).
COUNTS = (
    ("group", "GroupElement.__post_init__", "group.element_constructions",
     lambda result: 1),
    ("covering", "triangular_census", "covering.census_calls", lambda result: 1),
    ("covering", "triangular_census", "covering.generating_pairs",
     lambda result: result.total_pairs()),
    ("genus", "exists_generating_vector", "genus.signatures_tried",
     lambda result: 1),
    ("genus", "exists_generating_vector", "genus.signatures_realised",
     lambda result: result is not None),
    ("real_forms", "admissible_homomorphisms", "real_forms.signatures_tried",
     lambda result: 1),
    ("real_forms", "admissible_homomorphisms", "real_forms.signatures_realised",
     lambda result: len(result) > 0),
    ("curves", "CurveModel.sample_points", "curves.points_sampled",
     lambda result: len(result)),
)

CLOSURE_SPAN = "group.DicyclicGroup._closure_indices"
CENSUS_SPAN = "covering.triangular_census"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: Counter[str] = Counter()
        self.missing: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _span_wrapper(self, name: str, func):
        @wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, counter: str, amount, func):
        counters = self.counters

        @wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            counters[counter] += amount(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in SPANS and COUNTS that the package has.

        A target the package no longer has is listed in `missing` rather
        than failing the run, so a renamed function shows as a layer
        reading zero.
        """
        for module, attr, counter, amount in COUNTS:
            self._patch(module, attr,
                        lambda f, c=counter, a=amount: self._count_wrapper(c, a, f))
        for module, attr, _ in SPANS:
            self._patch(module, attr,
                        lambda f, n=f"{module}.{attr}": self._span_wrapper(n, f))

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *owner_path, name = attr.split(".")
        try:
            for part in owner_path:
                owner = getattr(owner, part)
            raw = vars(owner)[name]
        except (AttributeError, KeyError):
            self.missing.append(f"{module_name}.{attr}")
            return
        if isinstance(raw, cached_property):
            wrapped = cached_property(make_wrapper(raw.func))
            wrapped.__set_name__(owner, name)
        else:
            wrapped = make_wrapper(raw)
        setattr(owner, name, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "missing": self.missing}, fh)


TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
COUNT_METRICS = (
    "group.closure_calls",
    "group.element_constructions",
    "covering.census_calls",
    "covering.pairs_enumerated",
    "genus.signatures_tried",
    "real_forms.signatures_tried",
    "curves.points_sampled",
)
RATIO_METRICS = (
    "covering.generating_ratio",
    "genus.realised_ratio",
    "real_forms.realised_ratio",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(dumps: list[tuple[dict, float]]) -> dict[str, float]:
    """Per-layer metrics summed over the dumps of one pass.

    Each dump comes with the factor that normalises its times (see
    `run.py`).  Also returns `raw_spans_s`, the unscaled time covered by
    root spans, which the benchmark sets against the pass's wall time.
    """
    out = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0.0)
    counters: Counter[str] = Counter()
    raw_spans_s = 0.0
    for dump, scale in dumps:
        counters.update(dump["counters"])
        spans = dump["spans"]
        self_time = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                self_time[parent] -= end - start
            else:
                raw_spans_s += end - start
            if name == CLOSURE_SPAN:
                out["group.closure_calls"] += 1
                if parent >= 0 and spans[parent][0] == CENSUS_SPAN:
                    out["covering.pairs_enumerated"] += 1
        for (name, *_), t in zip(spans, self_time):
            out[SPAN_METRIC[name]] += t * scale
    for name in COUNT_METRICS:
        out[name] += counters[name]
    # The census tests each unordered candidate pair once through the
    # closure; a generating pair is counted twice in its ordered total
    # (a pair never generates together with itself).
    out["covering.generating_ratio"] = _ratio(
        counters["covering.generating_pairs"] / 2, out["covering.pairs_enumerated"])
    out["genus.realised_ratio"] = _ratio(
        counters["genus.signatures_realised"], counters["genus.signatures_tried"])
    out["real_forms.realised_ratio"] = _ratio(
        counters["real_forms.signatures_realised"],
        counters["real_forms.signatures_tried"])
    out["raw_spans_s"] = raw_spans_s
    return out
