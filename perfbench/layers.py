"""Per-layer spans around ``repro.scale``'s public calls, installed from outside.

:func:`install` replaces each probed attribute (a module function, a method,
a classmethod or a staticmethod) with a wrapper that records one span —
name, start, end, parent span, campaign unit — and passes arguments and
result through untouched.  Some probes also add a deterministic work count
read off the result (solver iterations, clients remapped, autoscale
actions).  :meth:`Probes.uninstall` puts every original attribute back and
:func:`not_restored` proves it did.

A probe patches the name where callers look it up: ``timeline`` imports
``solve_allocation`` and ``evaluate_latency`` by name, so those are patched
in the ``timeline`` module; ``solver`` calls ``max_min_allocation`` and
``alpha_fair_allocation`` through its own globals, so those are patched
there.  Spans are kept in memory; :func:`write_spans` saves them once the
run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span recorder; one per traced campaign run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 = root), unit index]``.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._unit: Optional[int] = None

    def call(self, name: str, fn: Callable, args, kwargs, count=None, unit=None):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._unit]
        self._open.append(len(self.spans))
        self.spans.append(span)
        outer_unit = self._unit
        if unit is not None:
            self._unit = span[4] = unit(args)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self._unit = outer_unit
        if count is not None:
            count(self.counts, args, kwargs, result)
        return result


# -- work counters read off results ----------------------------------------------------


def _count_remapped(counts, args, kwargs, template) -> None:
    counts["scenario.clients_remapped"] += int(template.remapped_from_parent)


def _count_solve(counts, args, kwargs, allocation) -> None:
    counts["solver.iterations"] += int(allocation.iterations)
    if kwargs.get("warm_start") is not None or kwargs.get("warm_prices") is not None:
        counts["solver.warm_offered"] += 1
        counts["solver.warm_accepted"] += bool(allocation.warm_started)


def _count_timeline_solve(counts, args, kwargs, allocation) -> None:
    counts["timeline.solved_epochs"] += 1
    _count_solve(counts, args, kwargs, allocation)


def _count_timeline(counts, args, kwargs, result) -> None:
    counts["timeline.epochs"] += result.epochs


def _count_actions(counts, args, kwargs, actions) -> None:
    counts["autoscale.actions"] += len(actions)


def _unit_index(args) -> int:
    return int(args[1].index)


#: (module, owner class or None for a module attribute, attribute, span name,
#: count hook).  The runner's ``run_unit``/``merge_units`` are added per
#: workload by :func:`install`.
PROBES: Tuple[tuple, ...] = (
    ("repro.scale.population", "ClientPopulation", "__init__",
     "population.build", None),
    ("repro.scale.population", "ClientPopulation", "ring_sorted",
     "population.ring_sort", None),
    *(("repro.scale.fleet", "NeutralizerFleet", method, "fleet.ring_change", None)
      for method in ("drain_site", "activate_site", "fail_site", "restore_site")),
    ("repro.scale.fleet", "NeutralizerFleet", "ring_state", "fleet.ring_state", None),
    ("repro.scale.fleet", "NeutralizerFleet", "ring_moved_fraction",
     "fleet.ring_moved_fraction", None),
    ("repro.scale.scenario", "ProblemTemplate", "build", "scenario.template_build",
     None),
    ("repro.scale.scenario", "ProblemTemplate", "rebuilt", "scenario.rebuilt",
     _count_remapped),
    ("repro.scale.scenario", "ScaleScenario", "build_template",
     "scenario.build_template", None),
    ("repro.scale.scenario", "ProblemTemplate", "instantiate", "scenario.instantiate",
     None),
    ("repro.scale.scenario", "ProblemTemplate", "interpret", "scenario.interpret",
     None),
    ("repro.scale.scenario", None, "solve_allocation", "solver.solve", _count_solve),
    ("repro.scale.timeline", None, "solve_allocation", "solver.solve",
     _count_timeline_solve),
    ("repro.scale.solver", None, "max_min_allocation", "solver.max_min", None),
    ("repro.scale.solver", None, "alpha_fair_allocation", "solver.alpha_fair", None),
    ("repro.scale.timeline", "FluidTimeline", "run", "timeline.run", _count_timeline),
    ("repro.scale.autoscale", "AutoscaleRun", "step", "autoscale.step",
     _count_actions),
    ("repro.scale.adversary", "AdversaryRun", "step", "adversary.step", None),
    ("repro.scale.timeline", None, "evaluate_latency", "latency.evaluate", None),
    ("repro.scale.runner", None, "compile_events", "stochastic.compile_events", None),
    ("repro.scale.stochastic", None, "compile_events", "stochastic.compile_events",
     None),
    ("repro.scale.catalogue", None, "build_scenario", "catalogue.build_scenario",
     None),
)


def _wrap(descriptor, name: str, tracer: Tracer, count, unit):
    """A replacement for ``descriptor`` that records a span per call."""
    kind = None
    fn = descriptor
    if isinstance(descriptor, (classmethod, staticmethod)):
        kind, fn = type(descriptor), descriptor.__func__

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count, unit)

    return kind(probe) if kind is not None else probe


class Probes:
    """The installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        #: ``(owner, attribute, original)``; owner is a module or a class.
        self.replaced: List[tuple] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        original = vars(owner)[attribute]
        self.replaced.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self.replaced:
            owner, attribute, original = self.replaced.pop()
            setattr(owner, attribute, original)


def not_restored(originals: List[tuple]) -> List[str]:
    """Attributes of ``(owner, attribute, original)`` that now hold another object."""
    return [f"{getattr(owner, '__name__', owner)}.{attribute}"
            for owner, attribute, original in originals
            if vars(owner).get(attribute) is not original]


def install(tracer: Tracer, runner_class: type) -> Tuple[Probes, List[tuple]]:
    """Wrap every probe plus ``run_unit``/``merge_units`` of ``runner_class``.

    Returns the installed :class:`Probes` and a copy of what they replaced,
    for :func:`not_restored` after :meth:`Probes.uninstall`.
    """
    probes = Probes()
    try:
        for module_name, class_name, attribute, name, count in PROBES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            probes.patch(owner, attribute,
                         _wrap(vars(owner)[attribute], name, tracer, count, None))
        for attribute, name, unit in (("run_unit", "runner.run_unit", _unit_index),
                                      ("merge_units", "runner.merge", None)):
            owner = next(cls for cls in runner_class.__mro__ if attribute in vars(cls))
            probes.patch(owner, attribute,
                         _wrap(vars(owner)[attribute], name, tracer, None, unit))
    except BaseException:
        probes.uninstall()
        raise
    return probes, list(probes.replaced)


# -- from spans to per-layer figures ---------------------------------------------------


def layer_times(tracer: Tracer, wall_s: float) -> Dict[str, object]:
    """Calls, busy and self seconds per span name, and the unattributed rest.

    A span's self time is its duration minus its direct children's; the
    self times of all spans therefore add up to the time covered by root
    spans, and ``unattributed_s`` is the traced wall time no span covers.
    ``coverage_error_s`` is how far self times plus ``unattributed_s`` miss
    the wall time — non-zero only if spans overlap or leave the window.
    """
    calls: Counter = Counter()
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    children = [0.0] * len(tracer.spans)
    root_total = 0.0
    for name, start, end, parent, _ in tracer.spans:
        duration = end - start
        if parent >= 0:
            children[parent] += duration
        else:
            root_total += duration
    negative_self = 0.0
    for (name, start, end, _, _), child_total in zip(tracer.spans, children):
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        own[name] += duration - child_total
        durations[name].append(duration)
        negative_self = min(negative_self, duration - child_total)
    unattributed = wall_s - root_total
    coverage_error = abs(sum(own.values()) + unattributed - wall_s)
    return {
        "calls": dict(calls), "busy_s": dict(busy), "self_s": dict(own),
        "durations": dict(durations), "unattributed_s": unattributed,
        "coverage_error_s": max(coverage_error, -negative_self,
                                -min(unattributed, 0.0)),
    }


def per_layer_metrics(times: Dict[str, object], counts: Dict[str, int],
                      wall_s: float) -> Dict[str, Tuple[float, str]]:
    """The ``per_layer`` metrics of one traced run, as ``name -> (value, unit)``."""
    calls, busy, own = times["calls"], times["busy_s"], times["self_s"]
    out: Dict[str, Tuple[float, str]] = {}

    def timed(layer: str) -> None:
        out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        out[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        out[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    out["population.build_s"] = (busy.get("population.build", 0.0), "s")
    out["population.ring_sort_s"] = (busy.get("population.ring_sort", 0.0), "s")
    out["fleet.ring_changes"] = (calls.get("fleet.ring_change", 0), "count")
    out["fleet.ring_state.busy_s"] = (busy.get("fleet.ring_state", 0.0), "s")
    out["fleet.ring_moved_fraction.busy_s"] = (
        busy.get("fleet.ring_moved_fraction", 0.0), "s")
    timed("scenario.rebuilt")
    out["scenario.rebuilt.us_per_call"] = (
        per(busy.get("scenario.rebuilt", 0.0) * 1e6,
            calls.get("scenario.rebuilt", 0)), "us")
    out["scenario.clients_remapped"] = (counts.get("scenario.clients_remapped", 0),
                                        "count")
    timed("scenario.template_build")
    timed("scenario.build_template")
    timed("scenario.instantiate")
    timed("scenario.interpret")
    timed("solver.solve")
    timed("solver.max_min")
    timed("solver.alpha_fair")
    iterations = counts.get("solver.iterations", 0)
    out["solver.iterations"] = (iterations, "count")
    out["solver.us_per_iteration"] = (
        per(busy.get("solver.solve", 0.0) * 1e6, iterations), "us")
    out["solver.warm_accept_ratio"] = (
        per(counts.get("solver.warm_accepted", 0), counts.get("solver.warm_offered", 0)),
        "ratio")
    epochs = counts.get("timeline.epochs", 0)
    solved = counts.get("timeline.solved_epochs", 0)
    out["timeline.epochs"] = (epochs, "count")
    out["timeline.solved_epochs"] = (solved, "count")
    out["timeline.reuse_ratio"] = (per(epochs - solved, epochs), "ratio")
    out["timeline.busy_s"] = (busy.get("timeline.run", 0.0), "s")
    out["timeline.self_s"] = (own.get("timeline.run", 0.0), "s")
    out["timeline.us_per_epoch_self"] = (
        per(own.get("timeline.run", 0.0) * 1e6, epochs), "us")
    timed("autoscale.step")
    out["autoscale.actions"] = (counts.get("autoscale.actions", 0), "count")
    out["autoscale.actions_per_step"] = (
        per(counts.get("autoscale.actions", 0), calls.get("autoscale.step", 0)), "ratio")
    timed("adversary.step")
    timed("latency.evaluate")
    timed("stochastic.compile_events")
    timed("catalogue.build_scenario")
    unit_durations = times["durations"].get("runner.run_unit", [])
    out["runner.run_unit.calls"] = (len(unit_durations), "count")
    out["runner.run_unit.p50_s"] = (
        statistics.median(unit_durations) if unit_durations else 0.0, "s")
    out["runner.run_unit.max_s"] = (max(unit_durations, default=0.0), "s")
    out["runner.run_unit.self_s"] = (own.get("runner.run_unit", 0.0), "s")
    out["runner.merge_s"] = (busy.get("runner.merge", 0.0), "s")
    out["unattributed_s"] = (times["unattributed_s"], "s")
    out["traced_wall_s"] = (wall_s, "s")
    return out


#: Counts that must repeat exactly between two traced runs of one seed.
WORK_COUNTERS = ("solver.iterations", "scenario.clients_remapped",
                 "timeline.solved_epochs", "fleet.ring_changes", "autoscale.actions")


def write_spans(tracer: Tracer, path, origin: float) -> None:
    """Save spans as JSON lines, times in seconds from ``origin``."""
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent, unit in tracer.spans:
            out.write(json.dumps([name, start - origin, end - origin, parent, unit]))
            out.write("\n")
