"""In-memory spans around routedesign's layer functions, for the traced run.

Each layer function is wrapped from outside, at every place it is looked up:
the module that defines it, every module that copied it with `from ... import`,
and the class for methods.  A wrapper records one span (name, lookup site,
start, end, parent) per call and a few facts about the call, then returns the
callee's own result unchanged, so a traced run writes the same files as an
untraced one.  `layer_metrics` turns the spans of one command into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, layer name).  An attribute "Class.method" patches the
# method on the class.  numerics.* is looked up by attribute at its call
# sites, so patching the numerics module covers every caller.
SITES = (
    ("numerics", "lstsq", "numerics.lstsq"),
    ("numerics", "pseudoinverse", "numerics.pseudoinverse"),
    ("smooth_eq", "residual_F", "smooth_eq.residual_F"),
    ("smooth_eq", "jacobian_F", "smooth_eq.jacobian_F"),
    ("sensitivity", "jacobian_F", "smooth_eq.jacobian_F"),
    ("smooth_eq", "solve_nls", "smooth_eq.solve_nls"),
    ("design", "solve_nls", "smooth_eq.solve_nls"),
    ("cli", "solve_nls", "smooth_eq.solve_nls"),
    ("design", "homotopy_solve", "smooth_eq.homotopy_solve"),
    ("cli", "homotopy_solve", "smooth_eq.homotopy_solve"),
    ("cli", "design_loop", "design.design_loop"),
    ("cli", "verify_design", "design.verify_design"),
    ("design", "implicit_gradients", "sensitivity.implicit_gradients"),
    ("design", "project_D", "design.project_D"),
    ("design", "_project_ball", "design.project_D.sweep"),
    ("design", "_certified_reference", "design.certification"),
    ("design", "_reference_chain", "design.reference_chain"),
    ("game", "AtomicRoutingGame.nash_gap", "game.nash_gap"),
    ("game", "shortest_path_cost", "graph.shortest_path_cost"),
    ("graph", "shortest_path_cost", "graph.shortest_path_cost"),
)

ROOT = "cli.main"


@dataclass
class Span:
    name: str
    site: str
    start: float
    parent: int
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one traced command; not thread-safe."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, site: str, fn, args: tuple, kwargs: dict):
        parent = self._open[-1] if self._open else -1
        span = Span(name, site, 0.0, parent)
        self._open.append(len(self.spans))
        self.spans.append(span)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        if before is not None:
            args, kwargs = before(fn, span, args, kwargs)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.info["raised"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if after is not None:
            after(span, result)
        return result


def _lstsq_before(fn, span, args, kwargs):
    rows, cols = args[0].shape
    damping = args[2] if len(args) > 2 else kwargs.get("damping", 0.0)
    if damping > 0.0:
        rows += cols
    # Householder QR of a rows x cols matrix, computed from the shapes.
    span.info["flop"] = 2.0 * rows * cols * cols - 2.0 * cols**3 / 3.0
    return args, kwargs


def _solve_nls_before(fn, span, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    if bound.arguments.get("trace") is None:
        bound.arguments["trace"] = []
    norms = bound.arguments["trace"]
    span.info["norms"] = (norms, len(norms))
    return bound.args, bound.kwargs


def _solve_nls_after(span, result):
    norms, first = span.info.pop("norms")
    seen = norms[first:]
    accepted = sum(1 for a, b in zip(seen, seen[1:]) if b < a)
    span.info["iterations"] = result.iterations
    span.info["rejected"] = result.iterations - accepted
    span.info["converged"] = bool(result.converged)


def _certification_before(fn, span, args, kwargs):
    warm = args[2] if len(args) > 2 else kwargs.get("warm")
    span.info["warm"] = warm is not None
    return args, kwargs


def _design_loop_after(span, result):
    span.info["outer_iters"] = len(result[2].records)


_BEFORE = {
    "numerics.lstsq": _lstsq_before,
    "smooth_eq.solve_nls": _solve_nls_before,
    "design.certification": _certification_before,
}
_AFTER = {
    "smooth_eq.solve_nls": _solve_nls_after,
    "design.design_loop": _design_loop_after,
}


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every site in SITES through tracer while the block runs.

    Yields the sites that no longer exist; they are skipped rather than
    failing the run.  The original functions are restored on exit.
    """
    saved = []
    missing = []
    try:
        for module_name, attr, name in SITES:
            owner = importlib.import_module(f"routedesign.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((owner, leaf, fn))
            setattr(owner, leaf, _wrapper(tracer, name, module_name, fn))
        yield missing
    finally:
        for owner, leaf, fn in reversed(saved):
            setattr(owner, leaf, fn)


def _wrapper(tracer: Tracer, name: str, site: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs)

    return wrapper


def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            kids[span.parent].append(i)
    return kids


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced command (root span named ROOT)."""
    kids = _children(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, []))

    def self_time(name: str) -> float:
        return sum(
            spans[i].duration - sum(spans[k].duration for k in kids[i])
            for i in by_name.get(name, [])
        )

    def info_sum(name: str, key: str) -> float:
        return sum(spans[i].info.get(key, 0) for i in by_name.get(name, []))

    out: dict[str, float] = {}
    for name in (
        "numerics.lstsq",
        "smooth_eq.solve_nls",
        "smooth_eq.homotopy_solve",
        "smooth_eq.jacobian_F",
        "smooth_eq.residual_F",
        "sensitivity.implicit_gradients",
        "numerics.pseudoinverse",
        "design.project_D",
        "game.nash_gap",
        "graph.shortest_path_cost",
        "design.certification",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.time_s"] = total(name)
    out["numerics.lstsq.gflop_computed"] = info_sum("numerics.lstsq", "flop") / 1e9

    solves = [spans[i] for i in by_name.get("smooth_eq.solve_nls", [])]
    out["smooth_eq.solve_nls.self_s"] = self_time("smooth_eq.solve_nls")
    out["smooth_eq.solve_nls.lm_iters"] = sum(s.info.get("iterations", 0) for s in solves)
    out["smooth_eq.solve_nls.lm_rejected"] = sum(s.info.get("rejected", 0) for s in solves)
    out["smooth_eq.solve_nls.unconverged"] = sum(
        1 for s in solves if s.info.get("converged") is False
    )
    out["smooth_eq.solve_nls.overflow"] = sum(
        1 for s in solves if s.info.get("raised") == "ExponentOverflowError"
    )
    out["smooth_eq.homotopy_solve.stages"] = sum(
        1
        for i in by_name.get("smooth_eq.homotopy_solve", [])
        for k in kids[i]
        if spans[k].name == "smooth_eq.solve_nls"
    )

    # Certification: a warm attempt is the first solve of a call given a warm
    # start; it hits when no continuation chain follows it.
    attempts = hits = fallbacks = 0
    for i in by_name.get("design.certification", []):
        if not spans[i].info.get("warm"):
            continue
        attempts += 1
        chained = any(spans[k].name == "design.reference_chain" for k in kids[i])
        fallbacks += chained
        hits += not chained and "raised" not in spans[i].info
    out["design.certification.warm_attempts"] = attempts
    out["design.certification.warm_hits"] = hits
    out["design.certification.warm_hit_ratio"] = hits / attempts if attempts else 0.0
    out["design.certification.chain_fallbacks"] = fallbacks

    # Inner solve: the design loop's own solves.  After the first pass any
    # continuation that follows a warm solve is a fallback.
    inner_time = 0.0
    inner_fallbacks = 0
    for i in by_name.get("design.design_loop", []):
        after_warm = False
        for k in kids[i]:
            name = spans[k].name
            if name not in ("smooth_eq.solve_nls", "smooth_eq.homotopy_solve"):
                continue
            inner_time += spans[k].duration
            if name == "smooth_eq.solve_nls":
                after_warm = True
            elif after_warm:
                inner_fallbacks += 1
                after_warm = False
    out["design.inner_solve.time_s"] = inner_time
    out["design.inner_solve.fallbacks"] = inner_fallbacks

    out["design.design_loop.time_s"] = total("design.design_loop")
    out["design.design_loop.outer_iters"] = info_sum("design.design_loop", "outer_iters")
    out["design.project_D.sweeps"] = calls("design.project_D.sweep")
    out["design.verify_design.time_s"] = total("design.verify_design")
    out["cli.self_s"] = self_time(ROOT)
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over the traced commands of one run.

    A metric that reads the same in every command, as counts do, is
    returned as is, so exact counts stay integers.
    """
    out = {}
    for key in runs[0]:
        values = [run[key] for run in runs]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out


def traced_call(fn, *args):
    """Run fn(*args) traced, inside a ROOT span; return (result, spans, missing sites)."""
    tracer = Tracer()
    with patched(tracer) as missing:
        result = tracer.call(ROOT, "bench", fn, args, {})
    return result, tracer.spans, missing
