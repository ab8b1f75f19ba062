"""Spans around the public functions at each module boundary of freeprob.

The benchmark's traced run installs these wrappers from outside the
package: nothing in ``src/`` is edited.  Each wrapped name is patched in
every ``freeprob`` module that holds it (``measures`` imports
``semicircle_quantile_unit``, ``energy`` imports ``adaptive_quad_2d``,
``cli`` imports ``offdiag_energy`` and so on), and the quadrature
integrand is wrapped per call so that waves and points are counted where
the work happens.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# (module, attribute) of every wrapped public function.  The span name is
# "<layer>.<attribute>"; the layer is named after the module.
TARGETS = {
    "cli": ("main",),
    "measures": ("load_measure", "validate", "diffuse_quantile_batch",
                 "DiffusePart.quantile_unit",
                 "DiffusePart.quantile_unit_derivative"),
    "_kernels": ("semicircle_quantile_unit", "pair_log_reg_sum",
                 "pair_log_sq_skip", "vandermonde_sq_moments"),
    "_quad": ("adaptive_quad_1d", "adaptive_quad_2d"),
    "energy": ("offdiag_energy", "regularized_energy"),
    "entropy": ("hausdorff_entropy_bounds", "free_family_bounds"),
    "microstates": ("build_upper_microstate", "build_lower_microstate",
                    "pair_partition", "sk_counting_check",
                    "regularized_product_series", "offdiag_sum_series",
                    "packing_constant_series", "packing_constant_log",
                    "volume_upper_bound_log"),
    "asymptotics": ("selberg_log", "selberg_mc_check",
                    "gamma_ratio_limit_series"),
}
LAYERS = {"_kernels": "kernels", "_quad": "quad"}
# The integrand is energy code run by the quadrature: a layer of its own.
INTEGRAND = "integrand"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    job: str


class Tracer:
    """Records nested spans and counters; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent,
                               self.job))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    # -- installing wrappers ------------------------------------------------

    def _wrapper(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer_of(name) == "quad":
                args = (self._integrand(args[0]),) + args[1:]
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _integrand(self, f):
        def integrand(*points):
            self.counts["quad.waves"] += 1
            self.counts["quad.integrand_points"] += int(np.size(points[0]))
            return self.span(INTEGRAND, f, *points)

        return integrand

    def install(self) -> None:
        """Patch every target in every loaded freeprob module."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "freeprob" or name.startswith("freeprob.")}
        for modname, attrs in TARGETS.items():
            home = sys.modules[f"freeprob.{modname}"]
            layer = LAYERS.get(modname, modname)
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrapper(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrapper(f"{layer}.{attr}", orig)
                for mod in package.values():
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = asdict(s)
                row.update(id=i, start=s.start - t0, end=s.end - t0)
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Counters, taken at the boundaries once a call returns.


def _points(counter: str):
    def count(counts, args, result):
        counts[counter] += int(np.size(args[-1]))
    return count


def _pairs(counts, args, result):
    vals = np.asarray(args[0])
    k = vals.size
    terms = k * (k - 1) // 2
    counts["kernels.pair_calls"] += 1
    counts["kernels.pair_terms"] += terms
    if k:
        counts["kernels.pair_distinct_weighted"] += (
            terms * np.unique(vals).size / k)


def _mc_rows(counts, args, result):
    counts["kernels.mc_rows"] += int(np.shape(args[0])[0])


def _selberg(counts, args, result):
    counts["asymptotics.selberg_log_calls"] += 1


def _quad_result(counts, args, result):
    counts["quad.calls"] += 1
    counts["quad.regions"] += int(result.regions)
    counts["quad.not_ok"] += int(result.status != "ok")


def _batch(counts, args, result):
    counts["measures.quantile_batch_points"] += int(np.size(result))


_COUNTERS = {
    "kernels.semicircle_quantile_unit":
        _points("kernels.semicircle_quantile_points"),
    "measures.quantile_unit": _points("measures.quantile_unit_points"),
    "measures.diffuse_quantile_batch": _batch,
    "kernels.pair_log_reg_sum": _pairs,
    "kernels.pair_log_sq_skip": _pairs,
    "kernels.vandermonde_sq_moments": _mc_rows,
    "asymptotics.selberg_log": _selberg,
    "quad.adaptive_quad_1d": _quad_result,
    "quad.adaptive_quad_2d": _quad_result,
}


# ---------------------------------------------------------------------------
# Per-layer metrics.


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their summed
    duration is the part of the parent's interval they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer figures (everything but cli.import_s and trace.overhead_s).

    ``<layer>.self_s`` is the layer's self time; a ``*_s`` named after a
    function is the inclusive time of its spans.  A ratio whose base is 0
    (no pair terms, say) reads 0.
    """
    inclusive: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        inclusive[s.name] += s.end - s.start
        self_by_name[s.name] += own
        self_by_layer[layer_of(s.name)] += own
    pair_s = (inclusive["kernels.pair_log_reg_sum"]
              + inclusive["kernels.pair_log_sq_skip"])
    terms = counts["kernels.pair_terms"]
    return {
        "cli.self_s": self_by_name["cli.main"],
        "measures.quantile_unit_s": inclusive["measures.quantile_unit"],
        "measures.quantile_unit_points": counts["measures.quantile_unit_points"],
        "measures.quantile_batch_s": inclusive["measures.diffuse_quantile_batch"],
        "measures.quantile_batch_points": counts["measures.quantile_batch_points"],
        "measures.self_s": self_by_layer["measures"],
        "kernels.semicircle_quantile_s":
            inclusive["kernels.semicircle_quantile_unit"],
        "kernels.semicircle_quantile_points":
            counts["kernels.semicircle_quantile_points"],
        "kernels.pair_s": pair_s,
        "kernels.pair_calls": counts["kernels.pair_calls"],
        "kernels.pair_terms": terms,
        "kernels.pair_terms_per_s": terms / pair_s if pair_s > 0 else 0.0,
        "kernels.pair_distinct_ratio":
            counts["kernels.pair_distinct_weighted"] / terms if terms else 0.0,
        "kernels.mc_s": inclusive["kernels.vandermonde_sq_moments"],
        "kernels.mc_rows": counts["kernels.mc_rows"],
        "quad.calls": counts["quad.calls"],
        "quad.self_s": self_by_layer["quad"],
        "quad.integrand_s": inclusive[INTEGRAND],
        "quad.waves": counts["quad.waves"],
        "quad.integrand_points": counts["quad.integrand_points"],
        "quad.regions": counts["quad.regions"],
        "quad.not_ok": counts["quad.not_ok"],
        "energy.offdiag_s": inclusive["energy.offdiag_energy"],
        "energy.regularized_s": inclusive["energy.regularized_energy"],
        "energy.self_s": self_by_layer["energy"],
        "microstates.build_s": (inclusive["microstates.build_upper_microstate"]
                                + inclusive["microstates.build_lower_microstate"]),
        "microstates.partition_s": inclusive["microstates.pair_partition"],
        "microstates.self_s": self_by_layer["microstates"],
        "asymptotics.selberg_log_s": inclusive["asymptotics.selberg_log"],
        "asymptotics.selberg_log_calls": counts["asymptotics.selberg_log_calls"],
        "asymptotics.mc_self_s": self_by_name["asymptotics.selberg_mc_check"],
    }
