"""Tests of the benchmark's layer probes and host-speed gauge, on campaigns
small enough for seconds.

Run from the repository root: ``python3 -m pytest perfbench/test_layers.py``.
"""

from __future__ import annotations

import hashlib

import pytest

import layers
import worker
from hostspeed import CALLS_PER_SAMPLE, HostSpeed
from repro.exceptions import WorkloadError
from repro.scale.parallel import canonical_result_bytes
from repro.scale.runner import (
    AdversaryCampaignRunner,
    LatencyCampaignRunner,
    StochasticCampaignRunner,
    TimelineCampaignRunner,
)


def _digest(result) -> str:
    return hashlib.sha256(canonical_result_bytes(result)).hexdigest()


SMALL = {
    "e14": lambda: StochasticCampaignRunner(clients=20_000, epochs=30, replicas=2,
                                            seed=81),
    "e15": lambda: LatencyCampaignRunner(clients=20_000, epochs=30, replicas=2,
                                         seed=81),
    "e16": lambda: AdversaryCampaignRunner(clients=20_000, epochs=30,
                                           replicas_per_point=1,
                                           aggressiveness=(0.0, 1.0),
                                           sensitivities=(12.0,), seed=81),
    "e13": lambda: TimelineCampaignRunner(
        clients=20_000, seed=81,
        scenarios=["stochastic_unreliable", "neutralizer_arms_race"]),
}


def _traced(build):
    """Run a fresh campaign under the probes; return result, tracer, probes."""
    runner = build()
    tracer = layers.Tracer()
    probes, originals = layers.install(tracer, type(runner))
    try:
        result = runner.run()
    finally:
        probes.uninstall()
    return runner, result, tracer, probes, originals


@pytest.mark.parametrize("name", sorted(SMALL))
def test_probes_observe_without_changing_results(name):
    untraced = SMALL[name]().run()
    runner, result, tracer, probes, originals = _traced(SMALL[name])
    assert _digest(result) == _digest(untraced)
    assert layers.not_restored(originals) == []
    assert not probes.replaced
    # The program's own counters agree with the counts read off results.
    own = runner.telemetry
    counts = tracer.counts
    assert counts["timeline.epochs"] == own.counter_value("timeline.epochs")
    assert (counts["timeline.epochs"] - counts["timeline.solved_epochs"]
            == own.counter_value("timeline.epochs_reused"))
    assert counts["scenario.clients_remapped"] >= own.counter_value(
        "timeline.clients_remapped")


def test_every_probe_is_restored_when_the_run_raises():
    runner = SMALL["e14"]()
    tracer = layers.Tracer()
    probes, originals = layers.install(tracer, type(runner))
    runner.epochs = -1  # the first timeline refuses to start
    with pytest.raises(WorkloadError):
        runner.run()
    probes.uninstall()
    assert layers.not_restored(originals) == []
    assert tracer._open == []


def test_uninstalled_probes_record_nothing():
    _, _, tracer, _, _ = _traced(SMALL["e14"])
    recorded = len(tracer.spans)
    SMALL["e14"]().run()
    assert len(tracer.spans) == recorded


def test_layers_separate_and_counts_repeat():
    _, _, first, _, _ = _traced(SMALL["e16"])
    _, _, second, _, _ = _traced(SMALL["e16"])
    assert first.counts == second.counts
    assert [span[0] for span in first.spans] == [span[0] for span in second.spans]
    names = {span[0] for span in first.spans}
    assert {"adversary.step", "runner.run_unit", "timeline.run", "solver.solve",
            "scenario.rebuilt", "fleet.ring_change"} <= names
    assert "catalogue.build_scenario" not in names
    units = {span[4] for span in first.spans if span[0] == "timeline.run"}
    assert units == {0, 1}


def test_self_times_and_unattributed_add_up_to_wall():
    _, _, tracer, _, _ = _traced(SMALL["e13"])
    wall = max(span[2] for span in tracer.spans) - min(span[1] for span in tracer.spans)
    times = layers.layer_times(tracer, wall)
    assert times["coverage_error_s"] < 1e-6
    assert sum(times["self_s"].values()) + times["unattributed_s"] == pytest.approx(
        wall, abs=1e-9)
    assert times["calls"]["catalogue.build_scenario"] == 2
    metrics = layers.per_layer_metrics(times, tracer.counts, wall)
    assert metrics["runner.run_unit.calls"] == (2, "count")


def test_layer_times_on_hand_built_spans():
    tracer = layers.Tracer()
    tracer.spans = [
        ["a", 0.0, 4.0, -1, 0],
        ["b", 1.0, 2.0, 0, 0],
        ["b", 2.5, 3.0, 0, 0],
        ["c", 5.0, 6.0, -1, 1],
    ]
    times = layers.layer_times(tracer, 10.0)
    assert times["calls"] == {"a": 1, "b": 2, "c": 1}
    assert times["busy_s"] == {"a": 4.0, "b": 1.5, "c": 1.0}
    assert times["self_s"] == {"a": 2.5, "b": 1.5, "c": 1.0}
    assert times["unattributed_s"] == 5.0
    assert times["coverage_error_s"] == 0.0
    # A child outlasting its parent is caught, not hidden.
    tracer.spans[1][2] = 5.0
    assert layers.layer_times(tracer, 10.0)["coverage_error_s"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_host_gauge_runs_before_every_unit_without_changing_results(name):
    untraced = SMALL[name]().run()
    runner = SMALL[name]()
    host = HostSpeed()
    result = worker._run(runner, {}, host)
    assert _digest(result) == _digest(untraced)
    assert len(host.wall) == CALLS_PER_SAMPLE * len(runner.unit_specs())
    assert "run_unit" not in vars(runner)
    assert host.spent_wall >= sum(host.wall) > 0
    wall, cpu = host.slowdown()
    assert wall > 0 and cpu > 0
