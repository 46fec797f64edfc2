"""Which functions the traced run wraps, and how spans become layer metrics.

Layers are the ``pgl3dops`` modules: ``checks`` (per-check wall times and the
process-pool schedule), ``certify`` (case scalars by case label, the
certificate checker), ``pgl3`` (Casimir, generator actions, Weyl twists,
shared caches), ``weyl`` (section calculus and operator algebra) and
``ring`` (polynomial arithmetic).
"""

from __future__ import annotations

import functools
import json
import os
import time

from spans import Patcher, SpanRecorder, spanned

CASE_LABELS = ("1", "2a", "2b", "3a", "3b", "4")

PGL3_FUNCTIONS = ("casimir_apply", "apply_generator", "twist_section",
                  "central_character")
WEYL_FUNCTIONS = ("op_apply_section", "express_as_multiple", "op_compose",
                  "commutator", "transport", "invert_matrix", "conjugate")
SECTION_METHODS = {"derivative": "derivative", "__add__": "add",
                   "reduce_num": "reduce_num",
                   "substitute_coords": "substitute_coords"}
POLY_METHODS = {"__mul__": "mul", "__add__": "add",
                "divide_exact": "divide_exact", "substitute": "substitute"}

# The ten heaviest checks across the verify workloads.
HEAVY_CHECKS = ("cases.case3b.grid", "cases.case3a.grid", "cases.case2.grid",
                "cases.case2b.interpolation", "casimir.centrality",
                "casimir.lemma_operator", "casimir.alpha_free",
                "casimir.routes_agree", "fields.brackets.cross",
                "twists.bracket_table")

# Operator algebra only the symbolic suites exercise.
OPERATOR_FUNCTIONS = ("op_compose", "commutator", "transport", "invert_matrix",
                      "conjugate")

# Spans each workload must record; zero spans means a wrapper missed its
# target (for instance a new ``from .weyl import`` binding).
REQUIRED_SPANS = {
    "verify_symbolic": ("weyl.op_compose", "weyl.transport",
                        "weyl.invert_matrix", "weyl.op_apply_section",
                        "pgl3.casimir_apply", "ring.Poly.mul"),
    "verify_grids": ("certify.case_scalar.2b", "certify.case_scalar.3a",
                     "certify.case_scalar.3b", "pgl3.casimir_apply",
                     "pgl3.twist_section", "weyl.op_apply_section",
                     "weyl.express_as_multiple", "ring.Poly.mul"),
    "certify_sweep": ("certify.case_scalar.3a", "certify.validate",
                      "pgl3.casimir_apply", "pgl3.apply_generator",
                      "weyl.express_as_multiple", "ring.Poly.mul"),
}


class Counters:
    """Counts taken at the wrapped boundaries, beside the spans."""

    def __init__(self):
        self.term_products = 0
        self.terms_out_peak = 0
        self.division = {"limited": [0, 0], "exact": [0, 0]}  # attempts, hits
        self.reduce_changed = 0
        self.ratfunc_init = 0

    def after_mul(self, args, kwargs, result):
        self.term_products += len(args[0].terms) * len(args[1].terms)
        if len(result.terms) > self.terms_out_peak:
            self.terms_out_peak = len(result.terms)

    def after_divide(self, args, kwargs, result):
        limited = (len(args) > 2 and args[2] is not None) or \
            kwargs.get("step_limit") is not None
        slot = self.division["limited" if limited else "exact"]
        slot[0] += 1
        slot[1] += result is not None

    def after_reduce(self, args, kwargs, result):
        self.reduce_changed += result is not args[0]


def install(patcher: Patcher, rec: SpanRecorder, counters: Counters) -> None:
    """Wrap every traced function of the layers, in every binding module."""
    from pgl3dops import certify, pgl3, ring, weyl

    def wrap(name, after=None):
        return lambda fn: spanned(rec, name, fn, after)

    def case_scalar(fn):
        ids = {case: rec.intern(f"certify.case_scalar.{case}")
               for case in CASE_LABELS}

        @functools.wraps(fn)
        def wrapper(lam, p, case, *args, **kwargs):
            idx = rec.open(ids[case])
            try:
                return fn(lam, p, case, *args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper

    def count_init(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters.ratfunc_init += 1
            return fn(*args, **kwargs)
        return wrapper

    _need(patcher.function(certify, "case_scalar", case_scalar),
          "certify.case_scalar")
    _need(patcher.function(certify, "validate_certificate",
                           wrap("certify.validate")), "certify.validate")
    for name in PGL3_FUNCTIONS:
        _need(patcher.function(pgl3, name, wrap(f"pgl3.{name}")), name)
    for name in WEYL_FUNCTIONS:
        _need(patcher.function(weyl, name, wrap(f"weyl.{name}")), name)
    for attr, short in SECTION_METHODS.items():
        after = counters.after_reduce if attr == "reduce_num" else None
        patcher.method(weyl.PowerSection, attr,
                       wrap(f"weyl.PowerSection.{short}", after))
    for attr, short in POLY_METHODS.items():
        after = {"__mul__": counters.after_mul,
                 "divide_exact": counters.after_divide}.get(attr)
        patcher.method(ring.Poly, attr, wrap(f"ring.Poly.{short}", after))
    patcher.method(ring.RatFunc, "__init__", count_init)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric ``--trace 1`` prints.

    Seconds appear only for spans every workload records.  A layer that some
    workload never enters is reported by its call count and by its share of
    the traced wall time, a ratio, so no metric is a time that is zero by
    construction.
    """
    out = [("checks.pool.imbalance", "ratio", "lower"),
           ("checks.pool.idle_share", "ratio", "lower")]
    out += [(f"checks.{c}.share", "ratio", "lower") for c in HEAVY_CHECKS]
    for case in CASE_LABELS:
        out += [(f"certify.case_scalar.{case}.calls", "count", "lower"),
                (f"certify.case_scalar.{case}.share", "ratio", "lower")]
    out += [("certify.case_scalar.calls", "count", "lower"),
            ("certify.edge_yield", "ratio", "higher"),
            ("certify.validate.calls", "count", "lower"),
            ("certify.validate.share", "ratio", "lower")]
    for name in PGL3_FUNCTIONS:
        out += [(f"pgl3.{name}.calls", "count", "lower"),
                (f"pgl3.{name}.busy_s", "s", "lower"),
                (f"pgl3.{name}.self_s", "s", "lower")]
    out += [("pgl3.cache.hits", "count", "higher"),
            ("pgl3.cache.misses", "count", "lower"),
            ("pgl3.caches.cold_s", "s", "lower")]
    for short in SECTION_METHODS.values():
        out += [(f"weyl.PowerSection.{short}.calls", "count", "lower"),
                (f"weyl.PowerSection.{short}.self_s", "s", "lower")]
    for name in ("op_apply_section", "express_as_multiple"):
        out += [(f"weyl.{name}.calls", "count", "lower"),
                (f"weyl.{name}.self_s", "s", "lower")]
    for name in OPERATOR_FUNCTIONS:
        out += [(f"weyl.{name}.calls", "count", "lower"),
                (f"weyl.{name}.self_share", "ratio", "lower")]
    out.append(("weyl.reduce_num.changed_ratio", "ratio", "higher"))
    for short in POLY_METHODS.values():
        out += [(f"ring.Poly.{short}.calls", "count", "lower"),
                (f"ring.Poly.{short}.self_s", "s", "lower")]
    out += [("ring.Poly.mul.term_products", "count", "lower"),
            ("ring.Poly.mul.terms_out_peak", "count", "lower"),
            ("ring.divide_exact.limited.attempts", "count", "lower"),
            ("ring.divide_exact.hit_ratio.limited", "ratio", "higher"),
            ("ring.divide_exact.exact.attempts", "count", "lower"),
            ("ring.divide_exact.hit_ratio.exact", "ratio", "higher"),
            ("ring.RatFunc.init.calls", "count", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead", "ratio", "lower"),
            ("trace.coverage", "ratio", "higher"),
            ("trace.spans", "count", "lower")]
    return out


def add_shares(metrics: dict, check_times: list[list], traced_wall: float) -> None:
    """Per-check times and shares, and span shares of the traced wall."""
    for check_id, _, _, _, wall in check_times:
        metrics[f"checks.{check_id}.s"] = wall
    total = sum(r[4] for r in check_times)
    for check_id in HEAVY_CHECKS:
        wall = metrics.get(f"checks.{check_id}.s", 0.0)
        metrics[f"checks.{check_id}.share"] = wall / total if total else 0.0
    span = metrics["checks.pool.critical_path_s"] * metrics["checks.pool.workers"]
    metrics["checks.pool.idle_share"] = (
        metrics["checks.pool.idle_s"] / span if span else 0.0)
    for case in CASE_LABELS:
        name = f"certify.case_scalar.{case}"
        metrics[f"{name}.share"] = metrics[f"{name}.busy_s"] / traced_wall
    metrics["certify.validate.share"] = \
        metrics["certify.validate.busy_s"] / traced_wall
    for name in OPERATOR_FUNCTIONS:
        metrics[f"weyl.{name}.self_share"] = \
            metrics[f"weyl.{name}.self_s"] / traced_wall


def _need(bound: int, name: str) -> None:
    if not bound:
        raise RuntimeError(f"trace target {name} is bound nowhere")


def cache_totals() -> tuple[int, int]:
    """Summed hits and misses of every ``lru_cache`` in ``pgl3``."""
    from pgl3dops import pgl3
    hits = misses = 0
    for value in vars(pgl3).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def layer_metrics(totals: dict, counters: Counters) -> dict[str, float]:
    """Reduce per-span totals and counters to the named layer metrics."""
    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    calls_total = 0
    for case in CASE_LABELS:
        name = f"certify.case_scalar.{case}"
        calls, busy = get(name, "calls"), get(name, "busy_s")
        calls_total += calls
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.s_per_call"] = busy / calls if calls else 0.0
    out["certify.validate.calls"] = get("certify.validate", "calls")
    out["certify.validate.busy_s"] = get("certify.validate", "busy_s")
    out["certify.case_scalar.calls"] = calls_total
    for name in PGL3_FUNCTIONS:
        for key in ("calls", "busy_s", "self_s"):
            out[f"pgl3.{name}.{key}"] = get(f"pgl3.{name}", key)
    for short in list(SECTION_METHODS.values()):
        for key in ("calls", "self_s"):
            out[f"weyl.PowerSection.{short}.{key}"] = \
                get(f"weyl.PowerSection.{short}", key)
    for name in WEYL_FUNCTIONS:
        for key in ("calls", "self_s"):
            out[f"weyl.{name}.{key}"] = get(f"weyl.{name}", key)
    reduce_calls = get("weyl.PowerSection.reduce_num", "calls")
    out["weyl.reduce_num.changed_ratio"] = (
        counters.reduce_changed / reduce_calls if reduce_calls else 0.0)
    for short in POLY_METHODS.values():
        for key in ("calls", "self_s"):
            out[f"ring.Poly.{short}.{key}"] = get(f"ring.Poly.{short}", key)
    out["ring.Poly.mul.term_products"] = counters.term_products
    out["ring.Poly.mul.terms_out_peak"] = counters.terms_out_peak
    for kind, (attempts, hits) in counters.division.items():
        out[f"ring.divide_exact.{kind}.attempts"] = attempts
        out[f"ring.divide_exact.hit_ratio.{kind}"] = (
            hits / attempts if attempts else 0.0)
    out["ring.RatFunc.init.calls"] = counters.ratfunc_init
    return out


# -- checks layer: per-check wall time and the pool schedule ----------------------


def hook_check_times(patcher: Patcher, path: str) -> None:
    """Record (id, pid, start, end) of every check, pool workers included.

    The wrapper is installed before ``run_suite`` creates its pool, so forked
    workers inherit it; each record is one appended line.
    """
    from pgl3dops import checks

    def make(fn):
        @functools.wraps(fn)
        def wrapper(check_id, cfg):
            start = time.monotonic()
            result = fn(check_id, cfg)
            end = time.monotonic()
            with open(path, "a") as fh:
                fh.write(json.dumps([check_id, os.getpid(), start, end,
                                     result.wall_time]) + "\n")
            return result
        return wrapper

    _need(patcher.function(checks, "run_check", make), "checks.run_check")


def read_check_times(path: str) -> list[list]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pool_metrics(records: list[list]) -> dict[str, float]:
    """Makespan, idle time and imbalance of the processes that ran checks.

    imbalance = makespan / (busy time / workers); 1.0 is a perfect split.
    """
    if not records:
        return {"checks.count": 0, "checks.pool.workers": 0,
                "checks.pool.critical_path_s": 0.0, "checks.pool.idle_s": 0.0,
                "checks.pool.imbalance": 0.0}
    busy: dict[int, float] = {}
    for _, pid, start, end, _ in records:
        busy[pid] = busy.get(pid, 0.0) + (end - start)
    makespan = max(r[3] for r in records) - min(r[2] for r in records)
    workers = len(busy)
    total = sum(busy.values())
    return {"checks.count": len(records), "checks.pool.workers": workers,
            "checks.pool.critical_path_s": makespan,
            "checks.pool.idle_s": sum(makespan - b for b in busy.values()),
            "checks.pool.imbalance": makespan / (total / workers)}
