"""Per-layer tracing from outside the program.

The program has no counters of its own yet, so the traced pass wraps the
functions at each layer boundary of ``curvepencils`` and records, per span,
the calls, the total time, the self time (total minus the time of wrapped
calls made inside it) and, for generators, the items drawn.  Every record is
also split by the layer of the innermost enclosing span, so that one
function can be charged to the caller that needs it: ``iter_block_pairs``
feeds both the global search (caller ``pencil``) and the translated sweep
(caller ``catalog``).

A function is wrapped in every ``curvepencils`` module whose namespace binds
it, not only where it is defined: ``catalog`` binds ``classify`` by
``from .pencil import classify``, and wrapping ``pencil.classify`` alone
would miss those calls.  A name the program no longer has is reported as
missing and its metrics are left out; the pass itself goes on.

End-to-end numbers never come from a traced pass: `Tracer.installed`
restores every original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

MODULES = (
    "exactalg",
    "polyform",
    "arrangement",
    "pencil",
    "resonance",
    "torsion",
    "catalog",
    "cli",
)


LINES, CURVES, REPORTS = "catalog-lines", "catalog-curves", "pencil-reports"
CATALOGS = (LINES, CURVES)
ALL = (LINES, CURVES, REPORTS)


@dataclass(frozen=True)
class Probe:
    """One wrapped boundary: span name, defining module and attribute path.

    ``kind`` is ``"call"`` for a function (timed) or ``"iter"`` for a
    generator function (items counted, time left to the consumer).
    ``result_len`` also sums ``len()`` of the return values.  ``workloads``
    are those the layer map expects the span to be entered on.
    """

    span: str
    module: str
    attr: str
    workloads: tuple[str, ...]
    kind: str = "call"
    result_len: bool = False


PROBES = (
    Probe("exactalg.smith", "exactalg", "smith_normal_form", ALL),
    Probe("exactalg.rational_roots", "exactalg", "rational_roots", ALL),
    Probe("polyform.exact_divide", "polyform", "exact_divide", ALL),
    Probe("polyform.divisibility", "polyform", "divisibility_multiplicity", ALL),
    Probe("polyform.kernel_fallback", "polyform", "member_of_pencil_dividing", (CURVES, REPORTS)),
    Probe("arrangement.parse", "arrangement", "Arrangement.from_json", ALL),
    Probe("arrangement.local_points", "arrangement", "local_pencil_points", CATALOGS),
    Probe("pencil.classify", "pencil", "classify", (CURVES, REPORTS)),
    Probe("pencil.special_fibers", "pencil", "detect_special_fibers", ALL),
    Probe("pencil.fy_identities", "pencil", "fy_identities", (REPORTS,)),
    Probe("pencil.self_intersection", "pencil", "self_intersection", (REPORTS,)),
    Probe("pencil.search", "pencil", "pencil_search", CATALOGS, result_len=True),
    Probe("pencil.block_pairs", "pencil", "iter_block_pairs", CATALOGS, kind="iter"),
    Probe("pencil.probe_lines", "pencil", "ProbeSequence.lines", (CURVES, REPORTS), kind="iter"),
    Probe("resonance.subspace", "resonance", "subspace_from_pencil", (LINES,)),
    Probe("torsion.kernel_fstar", "torsion", "kernel_fstar", ALL),
    Probe("torsion.theta", "torsion", "theta", ALL),
    Probe("torsion.compute_Tf", "torsion", "compute_Tf", ALL),
    Probe("torsion.lift_character", "torsion", "lift_character", ALL),
    Probe("catalog.build", "catalog", "build_catalog", CATALOGS),
    Probe("cli.main", "cli", "main", (REPORTS,)),
)

TF_SPANS = ("torsion.kernel_fstar", "torsion.theta", "torsion.compute_Tf", "torsion.lift_character")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0
    results: int = 0
    # caller layer -> [calls, self_s, items]
    by_caller: dict[str, list] = field(default_factory=dict)

    def charge(self, caller: str, calls: int, self_s: float, items: int) -> None:
        slot = self.by_caller.setdefault(caller, [0, 0.0, 0])
        slot[0] += calls
        slot[1] += self_s
        slot[2] += items


class Tracer:
    """Span recorder for one traced pass; one thread, kept in memory."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        # open spans: [span name, time covered by wrapped children]
        self._stack: list[list] = []

    def _caller(self) -> str:
        return self._stack[-1][0].split(".", 1)[0] if self._stack else "harness"

    def _call_wrapper(self, probe: Probe, fn: Callable) -> Callable:
        stats = self.spans.setdefault(probe.span, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self._caller()
            frame = [probe.span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                own = elapsed - frame[1]
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += own
                stats.charge(caller, 1, own, 0)
            if probe.result_len:
                stats.results += len(result)
            return result

        return traced

    def _iter_wrapper(self, probe: Probe, fn: Callable) -> Callable:
        stats = self.spans.setdefault(probe.span, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = self._caller()
            stats.calls += 1
            stats.charge(caller, 1, 0.0, 0)
            for item in fn(*args, **kwargs):
                stats.items += 1
                stats.by_caller[caller][2] += 1
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every probe in every module that binds it; restore on exit."""
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"curvepencils.{name}")
            except ImportError:
                continue
        undo: list[tuple[object, str, object]] = []
        try:
            for probe in PROBES:
                self._install(probe, modules, undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, probe: Probe, modules: dict, undo: list) -> None:
        home = modules.get(probe.module)
        owner, _, attr = probe.attr.rpartition(".")
        holder = home
        for part in filter(None, owner.split(".")):
            holder = getattr(holder, part, None)
        raw = None if holder is None else vars(holder).get(attr)
        if raw is None:
            self.missing.append(probe.span)
            print(
                f"warning: curvepencils.{probe.module}.{probe.attr} not found;"
                f" metrics of span {probe.span} are missing",
                file=sys.stderr,
            )
            return
        make = self._iter_wrapper if probe.kind == "iter" else self._call_wrapper
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(probe, raw.__func__))
            undo.append((holder, attr, raw))
            setattr(holder, attr, wrapped)
            return
        wrapped = make(probe, raw)
        if owner:
            undo.append((holder, attr, raw))
            setattr(holder, attr, wrapped)
            return
        for module in modules.values():
            if vars(module).get(attr) is raw:
                undo.append((module, attr, raw))
                setattr(module, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, records: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit).

    ``records`` holds the catalog record counts by kind (zeros when the
    workload builds no catalog).  Metrics resting on a missing span are
    left out.
    """
    spans = tracer.spans
    out: dict[str, tuple[float, str]] = {}

    def have(*names: str) -> bool:
        return not any(n in tracer.missing for n in names)

    def get(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    def by(name: str, caller: str) -> list:
        return get(name).by_caller.get(caller, [0, 0.0, 0])

    def timed(span: str, calls: bool = True) -> None:
        if have(span):
            out[f"{span}_s"] = (get(span).self_s, "s")
            if calls:
                out[f"{span}_calls"] = (get(span).calls, "count")

    if have("pencil.search", "pencil.block_pairs"):
        pairs = by("pencil.block_pairs", "pencil")[2]
        results = get("pencil.search").results
        out["pencil.search_s"] = (get("pencil.search").self_s, "s")
        out["pencil.search_pairs"] = (pairs, "count")
        out["pencil.search_results"] = (results, "count")
        out["pencil.search_yield"] = (_ratio(results, pairs), "ratio")
    if have("catalog.build", "pencil.block_pairs", "pencil.classify"):
        pairs = by("pencil.block_pairs", "catalog")[2]
        exact = by("pencil.classify", "catalog")[0]
        out["catalog.self_s"] = (get("catalog.build").self_s, "s")
        out["catalog.sweep_pairs"] = (pairs, "count")
        out["catalog.sweep_exact"] = (exact, "count")
        out["catalog.sweep_yield"] = (_ratio(exact, pairs), "ratio")
    for kind in ("local", "global", "translated"):
        out[f"catalog.records_{kind}"] = (records.get(kind, 0), "count")
    timed("polyform.kernel_fallback")
    timed("polyform.divisibility")
    timed("polyform.exact_divide")
    timed("pencil.classify")
    timed("pencil.special_fibers")
    if have("pencil.probe_lines"):
        out["pencil.probe_lines_drawn"] = (get("pencil.probe_lines").items, "count")
    timed("pencil.fy_identities", calls=False)
    timed("pencil.self_intersection", calls=False)
    if have(*TF_SPANS):
        out["torsion.tf_s"] = (sum(get(s).self_s for s in TF_SPANS), "s")
        out["torsion.tf_calls"] = (sum(get(s).calls for s in TF_SPANS), "count")
    timed("exactalg.smith", calls=False)
    if have("exactalg.rational_roots"):
        for caller in ("catalog", "pencil"):
            calls, own, _ = by("exactalg.rational_roots", caller)
            out[f"exactalg.rational_roots_{caller}_s"] = (own, "s")
            out[f"exactalg.rational_roots_{caller}_calls"] = (calls, "count")
    timed("resonance.subspace")
    timed("arrangement.parse", calls=False)
    timed("arrangement.local_points", calls=False)
    if have("cli.main"):
        out["cli.self_s"] = (get("cli.main").self_s, "s")
    return out


def silent_spans(tracer: Tracer, workload: str) -> list[str]:
    """Spans the layer map expects on the workload that recorded no call."""
    return [
        p.span
        for p in PROBES
        if workload in p.workloads
        and p.span not in tracer.missing
        and tracer.spans[p.span].calls == 0
    ]


def span_table(tracer: Tracer) -> list[str]:
    """Every span with calls, items, self and total time, for the log."""
    lines = [f"{'span':28s} {'calls':>8s} {'items':>8s} {'self_s':>10s} {'total_s':>10s}"]
    for name, st in sorted(tracer.spans.items()):
        lines.append(
            f"{name:28s} {st.calls:8d} {st.items:8d} {st.self_s:10.4f} {st.total_s:10.4f}"
        )
    for name in tracer.missing:
        lines.append(f"{name:28s} missing")
    return lines
