"""The four benchmark workloads: how each campaign is built and checked.

Every workload is one ``repro.scale`` campaign at 10^6 clients, run
serially in one process.  The seed is the only input; the campaign
configuration is fixed here so the program sees nothing but runner
arguments.  README.md says why each workload exists and which layer it
stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

CLIENTS = 10**6
DEFAULT_SEED = 81
#: Never used while choosing bounds; a later gain claim is re-checked on it.
HELD_OUT_SEED = 2006

#: SHA-256 of ``canonical_result_bytes`` for recorded (workload, seed) pairs.
#: Measured with numpy 2.4 on x86-64; any seed not listed is checked by the
#: invariants alone.
DIGESTS: Dict[Tuple[str, int], str] = {
    ("e14_availability", 81):
        "6531c845e12902686143dbd27e91eac13bf9b11ffd1011e3815064085b2b9d87",
    ("e15_latency", 81):
        "17b295706e378666aa45515b22b3d36a2e480e61dadd8c20d8f7aa9d472ef0e1",
    ("e16_arms_race", 81):
        "68e927bb004076361ab44dd02f301ad097a5c270a3d63ebb941ced602e68b1e8",
    ("e13_catalogue", 81):
        "a5149525a68c500ce804a1d93dd8aa998265ff257098d2153d474c72cd77d3f0",
    ("e14_availability", 2006):
        "80742b4ff1f966bcd1dc81027ad39b9c83856f1bd6576d5a84ba338b096ca7e2",
    ("e15_latency", 2006):
        "9041421a9451da3796807f2b7e0190af2bdec28acb43a9f984c00b33fed5f044",
    ("e16_arms_race", 2006):
        "3ca5cdcffb59cd061a6b0c4f06c26d626e6a7cf0a361634a1b453f31248777b0",
    ("e13_catalogue", 2006):
        "babaca98980a4931052ee54385b8118f4a8b3d02b1287adc5284d0d0b5c67cad",
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``build(seed)`` returns an unstarted campaign runner.
    build: Callable[[int], object]
    #: ``epochs(runner, result)``: replica-epochs the campaign simulated.
    epochs: Callable[[object, object], int]
    #: ``unit_failures(runner, result)``: one message per wrong unit output.
    unit_failures: Callable[[object, object], List[str]]
    #: ``campaign_failures(runner, result)``: campaign-wide invariant breaks.
    campaign_failures: Callable[[object, object], List[str]]
    #: Campaign seeds in one untraced round: enough to pool the work that
    #: differs between seeds, few enough that a round ends in about 30 s on
    #: a slowed 2-core host.  E14's seeds differ most in work.
    panel: int


#: Relative slack for "at most" checks between two floating-point sums:
#: goodput and demand sum the same flows in different orders, so a fully
#: served epoch can read goodput = demand * (1 + a few ulps).
ROUNDING = 1e-12


def _fraction(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0 + ROUNDING


def _replica_epochs(runner, result) -> int:
    return runner.replicas * runner.epochs


def _availability_ok(record) -> bool:
    return (_fraction(record.worst_delivered) and _fraction(record.mean_delivered)
            and record.worst_delivered <= record.mean_delivered * (1 + ROUNDING))


def _replica_failures(runner, result) -> List[str]:
    return [
        f"replica {record.replica}: delivered {record.worst_delivered!r} "
        f"(worst) / {record.mean_delivered!r} (mean)"
        for record in result.records if not _availability_ok(record)
    ]


def _latency_replica_failures(runner, result) -> List[str]:
    return [
        f"replica {record.replica}: delivered {record.mean_delivered!r}, "
        f"latency p95 {record.mean_latency_p95_seconds!r} (mean) / "
        f"{record.worst_latency_p95_seconds!r} (worst)"
        for record in result.records
        if not (_availability_ok(record)
                and math.isfinite(record.mean_latency_p95_seconds)
                and 0 < record.mean_latency_p95_seconds
                <= record.worst_latency_p95_seconds)
    ]


def _e14_campaign(runner, result) -> List[str]:
    dist = result.availability
    out = []
    expected = runner.replicas * runner.epochs
    if dist.samples != expected:
        out.append(f"availability has {dist.samples} samples, expected {expected}")
    if not dist.p50 >= dist.p95 >= dist.p99:
        out.append(f"availability p50 {dist.p50} p95 {dist.p95} p99 {dist.p99} "
                   "out of order")
    return out


def _e15_campaign(runner, result) -> List[str]:
    dist = result.distributions["latency p95 (ms)"]
    if not dist.p50 <= dist.p95 <= dist.p99:
        return [f"latency p50 {dist.p50} p95 {dist.p95} p99 {dist.p99} out of order"]
    return []


def _e16_epochs(runner, result) -> int:
    return runner.total_replicas * runner.epochs


def _e16_units(runner, result) -> List[str]:
    return [
        f"point {key} replica {record.replica}: adoption "
        f"{record.final_adoption!r}, discriminated {record.mean_discriminated_share!r}"
        for key, records in result.records.items()
        for record in records
        if not (_fraction(record.final_adoption)
                and _fraction(record.mean_discriminated_share))
    ]


def _e16_campaign(runner, result) -> List[str]:
    if not result.self_defeating_points():
        return ["no self-defeating sweep point"]
    return []


def _e13_epochs(runner, result) -> int:
    return sum(record.epochs for record in result.records)


def _e13_units(runner, result) -> List[str]:
    out = []
    for name, timeline in result.timelines.items():
        over = [record.epoch for record in timeline.records
                if not record.goodput_bps <= record.demand_bps * (1 + ROUNDING)]
        if over:
            out.append(f"{name}: goodput above demand in epochs {over[:5]}")
    return out


def _no_campaign_invariant(runner, result) -> List[str]:
    return []


def _e14(seed: int):
    from repro.scale.runner import StochasticCampaignRunner

    return StochasticCampaignRunner(clients=CLIENTS, epochs=200, replicas=32,
                                    seed=seed)


def _e15(seed: int):
    from repro.scale.runner import LatencyCampaignRunner

    return LatencyCampaignRunner(clients=CLIENTS, epochs=200, replicas=32,
                                 seed=seed)


def _e16(seed: int):
    from repro.scale.runner import AdversaryCampaignRunner

    # Default grid: 4 aggressiveness x 2 sensitivity points, 4 replicas each.
    return AdversaryCampaignRunner(clients=CLIENTS, epochs=200, seed=seed)


def _e13(seed: int):
    from repro.scale.runner import TimelineCampaignRunner

    return TimelineCampaignRunner(clients=CLIENTS, seed=seed)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("e14_availability", _e14, _replica_epochs,
                 _replica_failures, _e14_campaign, panel=6),
        Workload("e15_latency", _e15, _replica_epochs,
                 _latency_replica_failures, _e15_campaign, panel=5),
        Workload("e16_arms_race", _e16, _e16_epochs, _e16_units, _e16_campaign,
                 panel=5),
        Workload("e13_catalogue", _e13, _e13_epochs, _e13_units,
                 _no_campaign_invariant, panel=8),
    )
}
