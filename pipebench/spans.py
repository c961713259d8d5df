"""In-memory span recorder and the wrappers that feed it.

A span is one call into a pipeline layer: ``(id, name, start, end,
parent id, point id)`` plus optional counters read from the call's
arguments or result. Spans are appended to a list and only turned into
metrics after the run; nothing is written while a pass is timed.

Wrappers go on the module attributes the callers actually look up (for
example ``repro.pnr.flow.anneal``, because ``_evaluate_mem_scale`` calls
the name bound in ``repro.pnr.flow``), and :meth:`Recorder.restore` puts
every original back.

Two wrapper sets exist:

* :data:`PROBES` — ``simulate`` and ``compile_kernel`` as looked up by
  ``repro.exp.runner``. Installed in every run: they give
  ``compile_s``/``simulate_s``, mark point boundaries (a point ends when
  its simulation returns) and keep each simulation result for the
  per-point digest. Each runs one calibration chunk (:mod:`calib`)
  before the call, outside the call's span.
* :data:`LAYERS` — every other layer boundary, installed only in the
  traced run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import time

import calib

_clock = time.perf_counter

#: Span name of a calibration chunk (see :mod:`calib`): excluded from
#: every layer's self time and from ``other_s``.
CALIBRATE = "bench.calibrate"


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "point", "info")

    def __init__(self, sid, name, start, parent):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.point = -1
        self.info = None


class Recorder:
    """Collects spans from wrapped functions (single-threaded)."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Simulation results of the current pass, in call order:
        #: ``(end_time, args, kwargs, SimResult)``.
        self.sims: list[tuple] = []
        #: Calibration chunks of the current pass: ``(start, end,
        #: duration)`` as :class:`calib.Timeline` takes them.
        self.cal: list[tuple[float, float, float]] = []
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else -1
        span = Span(len(self.spans), name, _clock(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (benchmark-side calls)."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def calibrate(self) -> None:
        """Time one calibration chunk, recorded as its own span so that
        it counts as child time of whatever span encloses it."""
        span = self.open(CALIBRATE)
        calib.chunk()
        self.close(span)
        self.cal.append((span.start, span.end, span.end - span.start))

    def reset(self) -> None:
        self.spans.clear()
        self.sims.clear()
        self.cal.clear()
        self._stack.clear()

    # -- installation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None,
             calibrate: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(recorder, span, args, kwargs, result)`` runs once the call
        returns and may store counters in ``span.info``. With
        ``calibrate`` a calibration chunk runs just before each call.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if calibrate:
                recorder.calibrate()
            span = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(recorder, span, args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, table, calibrate: bool = False) -> int:
        """Wrap every entry of ``table``; return a mark for :meth:`restore`."""
        mark = len(self._restore)
        for module_name, attr, name, after in table:
            self.wrap(_resolve(module_name), attr, name, after, calibrate)
        return mark

    def restore(self, mark: int = 0) -> None:
        """Put back every original wrapped since ``mark`` (default: all)."""
        while len(self._restore) > mark:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def assign_points(self, pass_start: float,
                      pass_end: float) -> list[tuple[float, float]]:
        """Give every span its point id; return each point's interval.

        Point ``i`` runs from the end of simulation ``i - 1`` (or the
        pass start) to the end of simulation ``i``; the pass tail after
        the last simulation (its validation, manifest write) belongs to
        the last point.
        """
        ends = [end for end, *_ in self.sims]
        for span in self.spans:
            span.point = min(bisect.bisect_left(ends, span.start),
                             max(0, len(ends) - 1))
        bounds = [pass_start] + ends[:-1] + [pass_end]
        return list(zip(bounds, bounds[1:]))

    def self_times(self, point: int | None = None) -> dict[str, float]:
        """Self time per span name (duration minus direct children's),
        over every span or only those of one point."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span in self.spans:
            if span.name == CALIBRATE:
                continue
            if point is not None and span.point != point:
                continue
            own = (span.end - span.start) - child_time[span.sid]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def totals(self, name: str, timeline=None) -> tuple[int, float]:
        """(call count, total duration) of spans named ``name``; with a
        :class:`calib.Timeline`, durations are normalised."""
        count, total = 0, 0.0
        for span in self.spans:
            if span.name == name:
                count += 1
                total += (
                    timeline.normalise(span.start, span.end)
                    if timeline is not None
                    else span.end - span.start
                )
        return count, total

    def info_sum(self, name: str, key: str) -> float:
        return sum(
            (span.info or {}).get(key, 0)
            for span in self.spans
            if span.name == name
        )


def _resolve(dotted: str):
    """``"pkg.mod"`` -> module; ``"pkg.mod:Class"`` -> the class."""
    module_name, _, cls = dotted.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


# -- counters read after each call ----------------------------------------


def _after_simulate(recorder, span, args, kwargs, result):
    arch = args[3] if len(args) > 3 else kwargs.get("arch")
    critpath = bool(arch is not None and arch.sim.critpath)
    span.name = "sim.critpath" if critpath else "sim.simulate"
    recorder.sims.append((span.end, args, kwargs, result))


def _after_anneal(recorder, span, args, kwargs, result):
    stats = kwargs.get("stats") or {}
    span.info = {
        "proposals": stats.get("proposals", 0),
        "accepted": stats.get("accepted", 0),
    }


def _after_route(recorder, span, args, kwargs, result):
    span.info = {
        "iterations": result.iterations,
        "nets_rerouted": result.nets_rerouted,
    }


def _after_lower(recorder, span, args, kwargs, result):
    span.info = {"nodes": len(result.nodes)}


#: ``(module[:class], attribute, span name, after-hook)``.
PROBES = (
    ("repro.exp.runner", "simulate", "sim.simulate", _after_simulate),
    ("repro.exp.runner", "compile_kernel", "pnr.compile_kernel", None),
)

LAYERS = (
    ("repro.pnr.flow", "parallelize", "ir.parallelize", None),
    ("repro.pnr.flow", "lower_kernel", "dfg.lower", _after_lower),
    ("repro.pnr.flow", "analyze_criticality", "core.criticality", None),
    ("repro.pnr.flow", "build_netlist", "pnr.netlist", None),
    ("repro.pnr.flow", "build_channel_graph", "pnr.channels", None),
    ("repro.pnr.flow", "initial_placement", "pnr.initial_placement", None),
    ("repro.pnr.flow", "anneal", "pnr.anneal", _after_anneal),
    ("repro.pnr.flow", "route_design", "pnr.route", _after_route),
    ("repro.pnr.flow", "analyze_timing", "pnr.timing", None),
    ("repro.pnr.flow", "compile_once", "pnr.compile_once", None),
    ("repro.exp.runner", "make_workload", "workloads.build", None),
    ("repro.exp.fdo", "make_workload", "workloads.build", None),
    ("repro.exp.resilient", "append_manifest", "obs.manifest.write", None),
    ("repro.exp.cache:CompileCache", "get_or_compile", "exp.cache", None),
    ("repro.workloads.base:WorkloadInstance", "check",
     "workloads.validate", None),
)
