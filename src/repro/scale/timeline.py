"""Time-stepped fluid simulation: a fleet riding out events over epochs.

One :class:`ScaleScenario` solve is a busy *instant*; deployments live
through *days* — diurnal load swings, flash crowds, regional outages with
failover, staged discrimination rollouts.  :class:`FluidTimeline` advances
the max-min solver through a sequence of epochs:

* demand is driven by a pluggable :class:`LoadCurve` returning a per-region
  multiplier for each epoch (sinusoidal diurnal cycles with timezone spread,
  flash-crowd spikes, linear ramps, compositions thereof);
* the fleet evolves through :class:`FleetEvent` items — site failure and
  recovery remap clients through the consistent-hash ring, capacity
  degradation scales a site's budgets, discrimination toggles throttle a
  region's served classes;
* an optional closed-loop :class:`repro.scale.autoscale.Autoscaler`
  observes each epoch's utilization (and, with a latency model attached,
  its P95 path delay) and commissions or drains sites through the same
  ring-remap machinery, with warm-up delay, cooldown, and dollar accounting
  via :class:`repro.scale.costmodel.ProvisioningCostModel`;
* an optional :class:`repro.scale.latency.LatencyModel` maps every epoch's
  utilization to client-weighted path-delay percentiles (P50/P95/P99) and
  the fraction of clients violating a latency SLO, recorded per epoch;
* an optional closed-loop :class:`repro.scale.adversary.AdversaryGame` plays
  the paper's arms race each epoch: an adaptive ISP strategy flags and
  throttles classifiable traffic under a policing budget while per-region
  neutralizer adoption reacts to the experienced harm, feeding per-flow
  served-demand caps and adopter re-key load back into the solve;
* each epoch is solved *warm*: the flow structure is a cached
  :class:`repro.scale.scenario.ProblemTemplate` (rebuilt from its per-arc
  client counts, in O(arcs), only when the ring actually changes) and the previous
  epoch's allocation is offered to
  :func:`repro.scale.solver.max_min_allocation` as a verified warm start,
  so an event-free epoch costs a few vectorized passes over per-flow
  vectors, independent of population size.

The result is a :class:`TimelineResult`: per-epoch goodput, delivered
fraction, per-site utilization matrices, serving-site counts, provisioning
cost, and remap churn (clients moved plus the hash-space fraction the ring
diff says changed owner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .adversary import (
    AdoptionModel,
    AdversaryEpoch,
    AdversaryGame,
    AdversaryRun,
    experienced_latency,
    split_latency_by_class,
)
from .autoscale import AutoscalePolicy, AutoscaleRun, Autoscaler, EpochMetrics
from .costmodel import ProvisioningCostModel
from .fleet import NeutralizerFleet
from .latency import LatencyModel, LatencyResult, evaluate_latency
from .memo import IdentityMemo
from .population import ClientPopulation
from .scenario import EpochProblem, FluidResult, ProblemTemplate, ScaleScenario
from .solver import Allocation, solve_allocation
from .telemetry import NULL, Telemetry


DAY_SECONDS = 86_400.0


# ---------------------------------------------------------------------------
# Load curves
# ---------------------------------------------------------------------------


class LoadCurve:
    """Demand multiplier over time, possibly different per access region.

    ``multipliers(t, regions)`` returns one non-negative factor per region;
    a factor of 1.0 means the population's nominal busy-instant demand.
    """

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        """Per-region demand multipliers at absolute time ``t_seconds``."""
        raise NotImplementedError

    def __mul__(self, other: "LoadCurve") -> "CompositeLoad":
        return CompositeLoad((self, other))


@dataclass(frozen=True)
class ConstantLoad(LoadCurve):
    """Flat demand at ``level`` times nominal."""

    level: float = 1.0

    def __post_init__(self) -> None:
        if self.level < 0:
            raise WorkloadError("load level must be non-negative")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        return np.full(regions, self.level)


@dataclass(frozen=True)
class DiurnalLoad(LoadCurve):
    """A day-night sinusoid between ``trough`` and ``peak``.

    ``peak_time_seconds`` places the daily maximum; ``timezone_spread``
    staggers the regions' peaks uniformly across that fraction of the period
    (regions of a continental deployment do not peak together).
    """

    trough: float = 0.4
    peak: float = 1.0
    period_seconds: float = DAY_SECONDS
    peak_time_seconds: float = DAY_SECONDS * 20 / 24  # 8 pm local
    timezone_spread: float = 0.25

    def __post_init__(self) -> None:
        if not 0 <= self.trough <= self.peak:
            raise WorkloadError("diurnal load needs 0 <= trough <= peak")
        if self.period_seconds <= 0:
            raise WorkloadError("diurnal period must be positive")
        if not 0 <= self.timezone_spread <= 1:
            raise WorkloadError("timezone spread is a fraction of the period")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        mean = (self.peak + self.trough) / 2.0
        amplitude = (self.peak - self.trough) / 2.0
        offsets = np.arange(regions) / max(regions, 1) * self.timezone_spread
        phase = (t_seconds - self.peak_time_seconds) / self.period_seconds - offsets
        return mean + amplitude * np.cos(2.0 * math.pi * phase)


@dataclass(frozen=True)
class FlashCrowdLoad(LoadCurve):
    """A sudden spike on top of a base level, optionally region-targeted.

    Demand ramps linearly from ``base`` to ``base × spike`` over
    ``ramp_seconds``, holds for ``hold_seconds``, and decays back over
    ``ramp_seconds``.  ``regions_hit`` restricts the spike to those region
    indices (the rest stay at ``base``); ``None`` hits everyone.
    """

    base: float = 1.0
    spike: float = 6.0
    start_seconds: float = 0.0
    ramp_seconds: float = 1800.0
    hold_seconds: float = 3600.0
    regions_hit: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.base < 0 or self.spike < 1.0:
            raise WorkloadError("flash crowd needs base >= 0 and spike >= 1")
        if self.ramp_seconds < 0 or self.hold_seconds < 0:
            raise WorkloadError("flash crowd ramp/hold must be non-negative")
        if self.regions_hit is not None and any(r < 0 for r in self.regions_hit):
            raise WorkloadError("flash crowd region indices must be non-negative")

    def _level(self, t: float) -> float:
        dt = t - self.start_seconds
        if dt < 0 or dt > 2 * self.ramp_seconds + self.hold_seconds:
            return self.base
        if dt < self.ramp_seconds:
            fraction = dt / self.ramp_seconds if self.ramp_seconds else 1.0
        elif dt <= self.ramp_seconds + self.hold_seconds:
            fraction = 1.0
        else:
            fraction = (2 * self.ramp_seconds + self.hold_seconds - dt) / self.ramp_seconds
        return self.base * (1.0 + (self.spike - 1.0) * fraction)

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        out = np.full(regions, self.base)
        level = self._level(t_seconds)
        if self.regions_hit is None:
            out[:] = level
        else:
            # A typo'd region index must fail loudly, not flatten the spike.
            bad = [r for r in self.regions_hit if r >= regions]
            if bad:
                raise WorkloadError(
                    f"flash crowd hits region(s) {bad}, only {regions} exist"
                )
            out[list(self.regions_hit)] = level
        return out


@dataclass(frozen=True)
class LinearRampLoad(LoadCurve):
    """Linear growth from ``start_level`` to ``end_level`` over the window."""

    start_level: float = 1.0
    end_level: float = 2.0
    t0_seconds: float = 0.0
    t1_seconds: float = DAY_SECONDS

    def __post_init__(self) -> None:
        if self.start_level < 0 or self.end_level < 0:
            raise WorkloadError("ramp levels must be non-negative")
        if self.t1_seconds <= self.t0_seconds:
            raise WorkloadError("ramp needs t1 > t0")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        fraction = (t_seconds - self.t0_seconds) / (self.t1_seconds - self.t0_seconds)
        fraction = min(max(fraction, 0.0), 1.0)
        level = self.start_level + (self.end_level - self.start_level) * fraction
        return np.full(regions, level)


@dataclass(frozen=True)
class CompositeLoad(LoadCurve):
    """Pointwise product of several curves (e.g. diurnal × flash crowd)."""

    curves: Tuple[LoadCurve, ...]

    def __post_init__(self) -> None:
        if not self.curves:
            raise WorkloadError("composite load needs at least one curve")

    def multipliers(self, t_seconds: float, regions: int) -> np.ndarray:
        out = np.ones(regions)
        for curve in self.curves:
            out = out * curve.multipliers(t_seconds, regions)
        return out


# ---------------------------------------------------------------------------
# Fleet events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetEvent:
    """Something that happens to the fleet at the start of one epoch."""

    at_epoch: int

    def __post_init__(self) -> None:
        if self.at_epoch < 0:
            raise WorkloadError("events must be scheduled at epoch >= 0")

    def describe(self) -> str:
        """Short label recorded on the epoch the event fired."""
        raise NotImplementedError


@dataclass(frozen=True)
class SiteFailure(FleetEvent):
    """A site goes dark; the ring withdraws its points and clients move."""

    site: str = ""

    def describe(self) -> str:
        return f"fail {self.site}"


@dataclass(frozen=True)
class SiteRecovery(FleetEvent):
    """A failed site returns and reclaims exactly its old ring points."""

    site: str = ""

    def describe(self) -> str:
        return f"recover {self.site}"


@dataclass(frozen=True)
class CapacityDegradation(FleetEvent):
    """A site's CPU and uplink budgets shrink to ``factor`` of nominal.

    The site stays in the ring (clients do not move); ``until_epoch`` ends
    the degradation, ``None`` leaves it in place for the rest of the run.
    """

    site: str = ""
    factor: float = 0.5
    until_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.factor <= 1:
            raise WorkloadError("degradation factor must be in [0, 1]")
        if self.until_epoch is not None and self.until_epoch <= self.at_epoch:
            raise WorkloadError("degradation must end after it starts")

    def describe(self) -> str:
        return f"degrade {self.site} x{self.factor:g}"


@dataclass(frozen=True)
class DiscriminationToggle(FleetEvent):
    """An access region's ISP starts throttling classes to ``factor``.

    This is the fluid-model form of the paper's discriminatory ISP: traffic
    of the named classes originating in ``region`` is served at ``factor``
    of its demand from this epoch on (``until_epoch`` repeals the policy).
    ``class_names=None`` throttles every class.
    """

    region: int = 0
    factor: float = 0.5
    class_names: Optional[Tuple[str, ...]] = None
    until_epoch: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.region < 0:
            raise WorkloadError("discrimination region must be a valid index")
        if not 0 <= self.factor <= 1:
            raise WorkloadError("discrimination factor must be in [0, 1]")
        if self.until_epoch is not None and self.until_epoch <= self.at_epoch:
            raise WorkloadError("policy must be repealed after it starts")

    def describe(self) -> str:
        classes = ",".join(self.class_names) if self.class_names else "all"
        return f"discriminate r{self.region} {classes} x{self.factor:g}"


@dataclass(frozen=True)
class ReconfigEvent(FleetEvent):
    """A committed operator transaction, applied atomically at an epoch.

    The typed form of a :class:`repro.scale.config.ConfigTransaction`
    commit: swap the autoscaler's policy and/or bounds, activate/drain
    sites (region add/drain), and retune the adversary's adoption model —
    all at the top of one epoch, before the controller and the game tick.
    Feasibility is re-checked at the boundary *before* anything mutates
    (a drain set that would empty the ring rejects the whole event), so
    the event applies entirely or not at all.
    """

    policy: Optional[AutoscalePolicy] = None
    min_sites: Optional[int] = None
    max_sites: Optional[int] = None
    activate_sites: Tuple[str, ...] = ()
    drain_sites: Tuple[str, ...] = ()
    adoption: Optional[AdoptionModel] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        overlap = set(self.activate_sites) & set(self.drain_sites)
        if overlap:
            raise WorkloadError(
                f"reconfig both activates and drains {sorted(overlap)}"
            )

    def describe(self) -> str:
        parts: List[str] = []
        if self.policy is not None:
            parts.append(f"policy={type(self.policy).__name__}")
        if self.min_sites is not None:
            parts.append(f"min_sites={self.min_sites}")
        if self.max_sites is not None:
            parts.append(f"max_sites={self.max_sites}")
        parts += [f"+{name}" for name in self.activate_sites]
        parts += [f"-{name}" for name in self.drain_sites]
        if self.adoption is not None:
            parts.append(f"adoption.sensitivity={self.adoption.sensitivity:g}")
        return "reconfig " + ",".join(parts) if parts else "reconfig noop"


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """One solved epoch of a timeline."""

    epoch: int
    t_seconds: float
    #: Labels of the events that fired entering this epoch.
    events: Tuple[str, ...]
    #: Population-weighted mean demand multiplier in effect.
    demand_multiplier: float
    demand_bps: float
    goodput_bps: float
    goodput_bps_by_class: Dict[str, float]
    delivered_fraction: float
    peak_cpu_utilization: float
    peak_uplink_utilization: float
    key_setup_pps: float
    #: Clients whose site changed entering this epoch (ring remap churn).
    clients_remapped: int
    #: Hash-space fraction the ring diff says changed owner (0 if no change).
    ring_moved_fraction: float
    warm_started: bool
    solver_iterations: int
    solve_seconds: float
    #: Sites serving this epoch (healthy AND active).
    sites_in_service: int = 0
    #: Sites committed by the autoscaler but still warming up.
    sites_warming: int = 0
    #: Labels of the autoscaler's actions entering this epoch.
    autoscale_actions: Tuple[str, ...] = ()
    #: Dollars this epoch cost (committed capacity + remap churn).
    provision_cost: float = 0.0
    #: Client-weighted path-delay percentiles (seconds); 0.0 when the
    #: timeline runs without a latency model.  With an adversary game they
    #: are the *experienced* delays — flagged clients include the access
    #: ISP's policer queue, matching the game's own harm accounting.
    latency_p50_seconds: float = 0.0
    latency_p95_seconds: float = 0.0
    latency_p99_seconds: float = 0.0
    #: Fraction of clients whose path delay exceeded the latency SLO.
    latency_slo_violations: float = 0.0
    #: Offered (pre-throttle) bits/s per demand class this epoch.
    demand_bps_by_class: Dict[str, float] = field(default_factory=dict)
    #: Share of offered traffic the adversary's ISP flagged and throttled
    #: (0.0 when the timeline runs without an adversary game).
    discriminated_share: float = 0.0
    #: Client-weighted neutralizer-adoption fraction in effect this epoch.
    adoption_fraction: float = 0.0
    #: New adopters who re-keyed through the hash ring entering this epoch.
    clients_rekeyed: int = 0
    #: Labels of the adversary game's moves entering this epoch.
    adversary_events: Tuple[str, ...] = ()
    #: Per-class P95 path delay (seconds) split by neutralized vs exposed
    #: clients (empty unless both an adversary and a latency model run).
    neutralized_latency_p95: Dict[str, float] = field(default_factory=dict)
    exposed_latency_p95: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TimelineResult:
    """A fully solved timeline: per-epoch records plus per-site matrices."""

    n_clients: int
    epoch_seconds: float
    site_names: Tuple[str, ...]
    class_names: Tuple[str, ...]
    records: Tuple[EpochRecord, ...]
    #: ``[epoch, site]`` matrices.
    cpu_utilization: np.ndarray
    uplink_utilization: np.ndarray
    clients_per_site: np.ndarray
    wall_seconds: float

    @property
    def epochs(self) -> int:
        """Number of solved epochs."""
        return len(self.records)

    @property
    def payload_nbytes(self) -> int:
        """Bytes held by the result's per-epoch matrices.

        Campaign units ship one of these back from each worker process;
        this is the dominant term of that pickled payload, so it is the
        number to watch when a long timeline makes parallel campaign
        results expensive to return (see docs/parallel.md).
        """
        return int(self.cpu_utilization.nbytes
                   + self.uplink_utilization.nbytes
                   + self.clients_per_site.nbytes)

    @property
    def goodput_bps(self) -> np.ndarray:
        """Delivered bits/s per epoch."""
        return np.array([record.goodput_bps for record in self.records])

    @property
    def demand_bps(self) -> np.ndarray:
        """Offered bits/s per epoch."""
        return np.array([record.demand_bps for record in self.records])

    @property
    def delivered_fraction(self) -> np.ndarray:
        """Goodput/demand ratio per epoch."""
        return np.array([record.delivered_fraction for record in self.records])

    @property
    def min_delivered_fraction(self) -> float:
        """The worst epoch's delivered fraction (the headline of an outage)."""
        return float(self.delivered_fraction.min())

    @property
    def mean_delivered_fraction(self) -> float:
        """Average delivered fraction across epochs."""
        return float(self.delivered_fraction.mean())

    @property
    def total_clients_remapped(self) -> int:
        """Total remap churn over the run (client·moves)."""
        return int(sum(record.clients_remapped for record in self.records))

    @property
    def peak_remap_epoch(self) -> Optional[int]:
        """Epoch with the most churn, or ``None`` if nothing ever moved."""
        churn = [record.clients_remapped for record in self.records]
        if not churn or max(churn) == 0:
            return None
        return int(np.argmax(churn))

    @property
    def warm_fraction(self) -> float:
        """Fraction of epochs solved by reusing the previous allocation."""
        if not self.records:
            return 0.0
        return sum(record.warm_started for record in self.records) / len(self.records)

    @property
    def fast_fraction(self) -> float:
        """Fraction of epochs that skipped the fill entirely (iterations 0).

        Covers both fast paths: the demand certificate (uncongested epochs,
        available in warm and cold modes alike) and warm-start reuse.
        """
        if not self.records:
            return 0.0
        return (sum(record.solver_iterations == 0 for record in self.records)
                / len(self.records))

    @property
    def solve_seconds_total(self) -> float:
        """Cumulative time spent inside the max-min solver."""
        return float(sum(record.solve_seconds for record in self.records))

    @property
    def sites_in_service(self) -> np.ndarray:
        """Serving-site count per epoch (constant unless autoscaled)."""
        return np.array([record.sites_in_service for record in self.records])

    @property
    def total_provision_cost(self) -> float:
        """Dollars the whole run cost (committed capacity plus churn)."""
        return float(sum(record.provision_cost for record in self.records))

    @property
    def total_autoscale_actions(self) -> int:
        """Controller actions over the run (scale-ups, drains, cancels)."""
        return sum(len(record.autoscale_actions) for record in self.records)

    def slo_attainment(self, threshold: float = 0.95) -> float:
        """Fraction of epochs whose delivered fraction met ``threshold``."""
        if not self.records:
            return 1.0
        met = (self.delivered_fraction >= threshold).sum()
        return float(met) / len(self.records)

    @property
    def has_latency(self) -> bool:
        """Whether the timeline ran with a latency model attached."""
        return any(record.latency_p95_seconds > 0 for record in self.records)

    @property
    def latency_p95_seconds(self) -> np.ndarray:
        """Per-epoch client-weighted P95 path delay (zeros without a model)."""
        return np.array([record.latency_p95_seconds for record in self.records])

    @property
    def worst_latency_p95_seconds(self) -> float:
        """The worst epoch's P95 path delay — the headline of a latency SLO."""
        if not self.records:
            return 0.0
        return float(self.latency_p95_seconds.max())

    @property
    def mean_latency_slo_violations(self) -> float:
        """Mean over epochs of the client fraction violating the latency SLO."""
        if not self.records:
            return 0.0
        return float(np.mean([record.latency_slo_violations
                              for record in self.records]))

    def latency_slo_attainment(self, max_violations: float = 0.05) -> float:
        """Fraction of epochs keeping SLO violations at or under the budget.

        An epoch passes when at most ``max_violations`` of clients exceeded
        the timeline's ``latency_slo_seconds`` — the latency twin of
        :meth:`slo_attainment`.
        """
        if not self.records:
            return 1.0
        met = sum(record.latency_slo_violations <= max_violations
                  for record in self.records)
        return float(met) / len(self.records)

    @property
    def has_adversary(self) -> bool:
        """Whether an adversary game left any trace on this timeline."""
        return any(record.discriminated_share > 0 or record.adoption_fraction > 0
                   or record.adversary_events for record in self.records)

    @property
    def adoption_fraction(self) -> np.ndarray:
        """Per-epoch client-weighted neutralizer-adoption fraction."""
        return np.array([record.adoption_fraction for record in self.records])

    @property
    def discriminated_share(self) -> np.ndarray:
        """Per-epoch share of offered traffic flagged and throttled."""
        return np.array([record.discriminated_share for record in self.records])

    @property
    def final_adoption_fraction(self) -> float:
        """The last epoch's adoption fraction (the game's resting point)."""
        if not self.records:
            return 0.0
        return self.records[-1].adoption_fraction

    @property
    def total_clients_rekeyed(self) -> int:
        """Total adopter re-key churn over the run (client·setups)."""
        return int(sum(record.clients_rekeyed for record in self.records))

    def class_delivered_fraction(self, class_names: Sequence[str]) -> np.ndarray:
        """Per-epoch goodput/offered ratio summed over the named classes.

        The harm ledger of the discrimination story: the throttled classes'
        delivered fraction against their *offered* (pre-throttle) demand.
        """
        unknown = set(class_names) - set(self.class_names)
        if unknown:
            raise WorkloadError(f"unknown demand classes {sorted(unknown)}")
        out = np.empty(len(self.records))
        for index, record in enumerate(self.records):
            offered = sum(record.demand_bps_by_class.get(name, 0.0)
                          for name in class_names)
            served = sum(record.goodput_bps_by_class.get(name, 0.0)
                         for name in class_names)
            out[index] = served / offered if offered > 0 else 1.0
        return out

    def series(self) -> Dict[str, List[float]]:
        """Per-epoch columns for :func:`repro.analysis.report.format_series`."""
        out: Dict[str, List[float]] = {
            "demand Mb/s": [record.demand_bps / 1e6 for record in self.records],
            "goodput Mb/s": [record.goodput_bps / 1e6 for record in self.records],
            "delivered": [record.delivered_fraction for record in self.records],
            "peak cpu": [record.peak_cpu_utilization for record in self.records],
            "sites": [float(record.sites_in_service) for record in self.records],
            "remapped": [float(record.clients_remapped) for record in self.records],
        }
        if self.has_latency:
            out["p95 ms"] = [record.latency_p95_seconds * 1e3
                             for record in self.records]
            out["slo viol"] = [record.latency_slo_violations
                               for record in self.records]
        if self.has_adversary:
            out["adoption"] = [record.adoption_fraction
                               for record in self.records]
            out["discr share"] = [record.discriminated_share
                                  for record in self.records]
        return out


# ---------------------------------------------------------------------------
# The timeline engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EpochDemand:
    """What an epoch offers and what the fleet is asked to serve."""

    offered_bps: float
    demand_bps_by_class: Dict[str, float]
    #: Per-flow served-demand multipliers after throttles and the adversary.
    served_scale: np.ndarray
    capacity_scale: Optional[np.ndarray]
    extra_setups: Optional[np.ndarray]
    adversary_epoch: Optional[AdversaryEpoch]


@dataclass(frozen=True)
class _SolvedEpoch:
    """One epoch's full solved state, reused outright by an identical successor.

    An epoch with the same template and scaling (steady load, no events) is
    the *same problem*.  The stages upstream hand a steady epoch the very
    scale arrays they handed its predecessor, so :meth:`matches` usually
    stops at ``is``; equal arrays built afresh still match by value.
    """

    template: ProblemTemplate
    served_scale: np.ndarray
    capacity_scale: Optional[np.ndarray]
    extra_setups: Optional[np.ndarray]
    epoch_problem: EpochProblem
    allocation: Allocation
    fluid: FluidResult
    latency_result: Optional[LatencyResult]
    #: Fleet-path (P50, P95, P99, SLO-violation fraction): the autoscaler's
    #: control signal — capacity cannot buy back a policer queue.
    latency: Tuple[float, float, float, float]
    #: What the epoch record quotes: ``latency``, or with an adversary game
    #: the client-experienced mixture including the policer delay of flagged
    #: traffic, so the headline fields agree with the game's harm ledger.
    experienced_latency: Tuple[float, float, float, float]
    #: Per-class P95 delay split neutralized vs exposed (empty unless both
    #: an adversary and a latency model run).
    split: Tuple[Dict[str, float], Dict[str, float]]

    def matches(self, template: ProblemTemplate, served_scale: np.ndarray,
                capacity_scale: Optional[np.ndarray],
                extra_setups: Optional[np.ndarray]) -> bool:
        """Whether an epoch with these inputs is this same problem."""
        return template is self.template and all(
            mine is theirs
            or (mine is not None and theirs is not None
                and np.array_equal(mine, theirs))
            for mine, theirs in ((self.served_scale, served_scale),
                                 (self.capacity_scale, capacity_scale),
                                 (self.extra_setups, extra_setups)))


class _RunState:
    """Everything one :meth:`FluidTimeline.run` mutates, created fresh per run."""

    def __init__(self, timeline: "FluidTimeline") -> None:
        self.fleet = timeline.fleet
        self.throttles: List[DiscriminationToggle] = []
        self.degradations: List[CapacityDegradation] = []
        self.pending: List[FleetEvent] = list(timeline.events)
        self.autoscale = (
            AutoscaleRun(timeline.autoscaler, timeline.fleet,
                         telemetry=timeline.telemetry)
            if timeline.autoscaler is not None else None)
        self.adversary = (
            AdversaryRun(timeline.adversary, timeline.population,
                         latency=timeline.latency,
                         latency_slo_seconds=timeline.latency_slo_seconds,
                         telemetry=timeline.telemetry)
            if timeline.adversary is not None else None)
        self.last_metrics: Optional[EpochMetrics] = None
        self.template: Optional[ProblemTemplate] = None
        self.base_demand_bps: Optional[float] = None
        #: Demand-weighted per-region weights for the autoscaler's forecast.
        self.region_demand: Optional[np.ndarray] = None
        #: The last solved epoch (kept only when warm starts are on).
        self.memo: Optional[_SolvedEpoch] = None
        #: The last epoch's load multipliers; equal successors keep this
        #: object, so the demand memo below can key on identity.
        self.regional: Optional[np.ndarray] = None
        #: Throttle-free demand per (template, load multipliers).
        self.demand = IdentityMemo()
        #: Served scale times the adversary's multiplier, per operand pair.
        self.served = IdentityMemo()
        #: Load and peak-utilization figures per (fluid result, in-service
        #: mask).
        self.figures = IdentityMemo()
        #: A reused epoch's allocation per solved allocation.
        self.reused = IdentityMemo()
        #: Committed-capacity sums, cached while fleet state is unchanged.
        self._committed_key = None
        self._committed: Dict[str, float] = {}
        #: This epoch's pre-change ring, snapshotted lazily: only an epoch
        #: whose events or autoscale actions touch the ring pays for it.
        self.ring_before = None

    def snapshot_ring(self) -> None:
        if self.ring_before is None:
            self.ring_before = self.fleet.ring_state()

    def committed_capacity(self, warming: Tuple[str, ...]) -> Dict[str, float]:
        """Capacity arguments of :meth:`ProvisioningCostModel.epoch_cost`.

        Billing covers every *commissioned* site — active (even while
        failed: a box being down does not stop its bill) plus warming ones.
        """
        key = (self.fleet.active_version, warming)
        if key != self._committed_key:
            committed = [site for site in self.fleet.sites if site.active]
            committed += [self.fleet.site(name) for name in warming]
            reserved = [site for site in committed if site.tier != "spot"]
            spot = [site for site in committed if site.tier == "spot"]
            self._committed = dict(
                cores=sum(site.cores for site in reserved),
                uplink_bps=sum(site.uplink_bps for site in reserved),
                sites=len(reserved),
                spot_cores=sum(site.cores for site in spot),
                spot_uplink_bps=sum(site.uplink_bps for site in spot),
                spot_sites=len(spot),
            )
            self._committed_key = key
        return self._committed


class FluidTimeline:
    """Advance a population×fleet scenario through epochs of load and events."""

    def __init__(
        self,
        population: ClientPopulation,
        fleet: NeutralizerFleet,
        *,
        epochs: int,
        epoch_seconds: float = 3600.0,
        load: Optional[LoadCurve] = None,
        events: Sequence[FleetEvent] = (),
        region_uplink_bps: Optional[float] = None,
        warm_start: bool = True,
        autoscaler: Optional[Autoscaler] = None,
        provisioning_cost: Optional[ProvisioningCostModel] = None,
        latency: Optional[LatencyModel] = None,
        latency_slo_seconds: float = 0.1,
        adversary: Optional[AdversaryGame] = None,
        scenario: Optional[ScaleScenario] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if epochs <= 0:
            raise WorkloadError("a timeline needs at least one epoch")
        if epoch_seconds <= 0:
            raise WorkloadError("epoch length must be positive")
        if latency_slo_seconds <= 0:
            raise WorkloadError("the latency SLO must be positive")
        self.population = population
        self.fleet = fleet
        self.epochs = int(epochs)
        self.epoch_seconds = float(epoch_seconds)
        self.load = load if load is not None else ConstantLoad()
        self.events = tuple(sorted(events, key=lambda event: event.at_epoch))
        #: The per-epoch problems come from this scenario's cached template,
        #: which also supplies the region-uplink default and validation.
        #: Passing a pre-built ``scenario`` shares its cached template
        #: across timelines (Monte-Carlo campaigns reuse one population x
        #: fleet structure over many replicas); after a previous run
        #: restored the fleet, the stale template rebuilds incrementally
        #: over zero moved clients instead of paying the O(n_clients) pass.
        if scenario is not None:
            if scenario.population is not population or scenario.fleet is not fleet:
                raise WorkloadError(
                    "a shared scenario must wrap this timeline's population and fleet"
                )
            if (region_uplink_bps is not None
                    and scenario.region_uplink_bps != region_uplink_bps):
                raise WorkloadError(
                    "a shared scenario disagrees with region_uplink_bps"
                )
            self._scenario = scenario
        else:
            self._scenario = ScaleScenario(
                population, fleet, region_uplink_bps=region_uplink_bps
            )
        self.region_uplink_bps = self._scenario.region_uplink_bps
        self.warm_start = warm_start
        #: Closed-loop controller configuration; per-run state is created
        #: fresh inside every run() so timelines stay re-runnable.
        self.autoscaler = autoscaler
        self.provisioning_cost = provisioning_cost or ProvisioningCostModel()
        #: Optional utilization → queueing-delay proxy; when present every
        #: epoch records client-weighted latency percentiles and the
        #: fraction of clients violating ``latency_slo_seconds``.
        self.latency = latency
        self.latency_slo_seconds = float(latency_slo_seconds)
        #: Optional ISP-vs-adoption game configuration; per-run state is
        #: created fresh inside every run(), like the autoscaler's.
        self.adversary = adversary
        if adversary is not None:
            adversary.validate_against(population)
        #: Observes, never participates: spans and work counters only.
        #: Mutable so a caller (catalogue, campaign runner) can attach a
        #: collecting telemetry after construction without re-building.
        self.telemetry: Telemetry = telemetry if telemetry is not None else NULL
        #: The declarative document this timeline was built from, when it
        #: came through :meth:`repro.scale.config.ScenarioConfig.build` —
        #: what :class:`repro.scale.config.ConfigTransaction` diffs against.
        self.config = None
        self._validate_events()

    def _validate_events(self) -> None:
        names = {site.name for site in self.fleet.sites}
        for event in self.events:
            if event.at_epoch >= self.epochs:
                raise WorkloadError(
                    f"event {event.describe()!r} at epoch {event.at_epoch} is "
                    f"beyond the {self.epochs}-epoch horizon"
                )
            site = getattr(event, "site", None)
            if site is not None and site not in names:
                raise WorkloadError(f"event names unknown site {site!r}")
            region = getattr(event, "region", None)
            if region is not None and region >= self.population.regions:
                raise WorkloadError(
                    f"event names region {region}, population has "
                    f"{self.population.regions}"
                )
            class_names = getattr(event, "class_names", None)
            if class_names:
                known = set(self.population.mix.names)
                unknown = set(class_names) - known
                if unknown:
                    raise WorkloadError(f"event names unknown classes {sorted(unknown)}")
            for name in (*getattr(event, "activate_sites", ()),
                         *getattr(event, "drain_sites", ())):
                if name not in names:
                    raise WorkloadError(f"event names unknown site {name!r}")

    # -- live event scheduling -------------------------------------------------------

    def schedule_event(self, event: FleetEvent) -> None:
        """Add one event to the timeline, keeping the schedule validated.

        Insertion is stable: among events of the same epoch the new one
        fires last, so committing the same transaction after a rollback
        always converges on the same schedule.  A rejected event leaves the
        schedule exactly as it was.
        """
        previous = self.events
        self.events = tuple(sorted((*self.events, event),
                                   key=lambda item: item.at_epoch))
        try:
            self._validate_events()
        except WorkloadError:
            self.events = previous
            raise

    def unschedule_event(self, event: FleetEvent) -> None:
        """Remove one previously scheduled event (identity match)."""
        kept: List[FleetEvent] = []
        removed = False
        for item in self.events:
            if item is event and not removed:
                removed = True
                continue
            kept.append(item)
        if not removed:
            raise WorkloadError("event is not scheduled on this timeline")
        self.events = tuple(kept)

    # -- stepping --------------------------------------------------------------------

    def _apply_reconfig(self, event: ReconfigEvent, state: _RunState) -> None:
        """Apply one committed transaction atomically at the epoch boundary.

        Every feasibility check runs before the first mutation, so a
        rejected reconfiguration raises with the fleet, the controller and
        the game exactly as they were.
        """
        fleet = self.fleet
        autoscale, adversary = state.autoscale, state.adversary
        if (event.policy is not None or event.min_sites is not None
                or event.max_sites is not None) and autoscale is None:
            raise WorkloadError(
                "reconfig retunes an autoscaler this timeline does not run"
            )
        if event.adoption is not None and adversary is None:
            raise WorkloadError(
                "reconfig retunes an adversary game this timeline does not run"
            )
        will_be_active = {site.name: site.active for site in fleet.sites}
        for name in event.activate_sites:
            will_be_active[name] = True
        for name in event.drain_sites:
            will_be_active[name] = False
        if not any(will_be_active[site.name] and site.healthy
                   for site in fleet.sites):
            raise WorkloadError(
                f"reconfig at epoch {event.at_epoch} would leave no site "
                f"in service"
            )
        # Activations before drains, so the ring never empties transiently.
        for name in event.activate_sites:
            site = fleet.site(name)
            if not site.active:
                if site.healthy:
                    state.snapshot_ring()
                fleet.activate_site(name)
            if autoscale is not None:
                autoscale.note_external_activation(name)
        for name in event.drain_sites:
            site = fleet.site(name)
            if autoscale is not None:
                autoscale.note_external_drain(name)
            if site.active:
                if site.in_service:
                    state.snapshot_ring()
                fleet.drain_site(name)
        if autoscale is not None:
            autoscale.reconfigure(policy=event.policy,
                                  min_sites=event.min_sites,
                                  max_sites=event.max_sites)
        if event.adoption is not None and adversary is not None:
            adversary.retune(event.adoption)

    def _fire(self, event: FleetEvent, state: _RunState) -> None:
        """Apply one fleet event, snapshotting the ring before it changes."""
        if isinstance(event, SiteFailure):
            state.snapshot_ring()
            self.fleet.fail_site(event.site)
        elif isinstance(event, SiteRecovery):
            state.snapshot_ring()
            self.fleet.restore_site(event.site)
        elif isinstance(event, CapacityDegradation):
            state.degradations.append(event)
        elif isinstance(event, DiscriminationToggle):
            state.throttles.append(event)
        else:
            raise WorkloadError(f"unknown fleet event {event!r}")

    def _load_multipliers(self, t: float,
                          previous: Optional[np.ndarray]) -> np.ndarray:
        """The load curve's per-region multipliers at ``t``, validated.

        Multipliers equal to ``previous`` (already validated) come back as
        that very object, so steady load keeps one identity across epochs.
        """
        regional = self.load.multipliers(t, self.population.regions)
        if previous is not None and np.array_equal(regional, previous):
            return previous
        if regional.shape != (self.population.regions,):
            raise WorkloadError("load curve returned the wrong number of regions")
        if np.any(regional < 0):
            raise WorkloadError("load curve returned a negative multiplier")
        return regional

    def _demand(self, template: ProblemTemplate, regional: np.ndarray,
                throttles: Sequence[DiscriminationToggle] = (),
                ) -> Tuple[np.ndarray, np.ndarray, float, Dict[str, float]]:
        """Per-flow offered and served scales, offered bps, bps per class.

        The load curve scales what clients *offer*; discrimination throttles
        (all live: expired windows are pruned) further cap what the access
        ISP lets through.  Delivered fraction is judged against the offered
        demand, so a rollout shows up as harm rather than as demand
        conveniently disappearing.
        """
        offered = regional[template.region_of].astype(np.float64)
        served = offered.copy() if throttles else offered
        for toggle in throttles:
            hit = template.region_of == toggle.region
            if toggle.class_names is not None:
                class_ids = [self.population.mix.names.index(name)
                             for name in toggle.class_names]
                hit &= np.isin(template.class_of, class_ids)
            served[hit] *= toggle.factor
        offered_flow_bps = template.base_demands * offered * template.group_clients
        by_class = np.bincount(template.class_of, weights=offered_flow_bps,
                               minlength=self.population.n_classes)
        return offered, served, float(offered_flow_bps.sum()), {
            name: float(by_class[index])
            for index, name in enumerate(self.population.mix.names)}

    def _capacity_scale(self, epoch: int,
                        degradations: Sequence[CapacityDegradation]) -> Optional[np.ndarray]:
        if not degradations:
            return None
        scale = np.ones(self.fleet.n_sites)
        for event in degradations:
            if event.until_epoch is not None and epoch >= event.until_epoch:
                continue
            index = self.fleet.index_of_site(event.site)
            scale[index] = min(scale[index], event.factor)
        if (scale == 1.0).all():
            return None
        return scale

    def _forecast(self, t_now: float, region_demand: Optional[np.ndarray]):
        """A demand forecast for predictive autoscaling policies.

        Returns offered demand ``lead`` epochs ahead relative to nominal,
        weighted by each region's share of base demand — exactly the
        ``demand_multiplier`` the future epoch will record, assuming no
        discrimination throttles (a forecaster sees load, not policy).
        """
        def forecast(lead: int) -> float:
            future = self.load.multipliers(
                t_now + lead * self.epoch_seconds, self.population.regions
            )
            if region_demand is None or region_demand.sum() <= 0:
                return float(future.mean())
            return float((future * region_demand).sum() / region_demand.sum())
        return forecast

    def run(self) -> TimelineResult:
        """Solve every epoch and assemble the result.

        The fleet's health is restored to its pre-run state afterwards, so a
        timeline whose events leave sites failed can be re-run (or its fleet
        reused) without silently simulating an already-degraded fleet.
        """
        initial_health = self.fleet.health_snapshot()
        try:
            return self._run()
        finally:
            self.fleet.restore_health(initial_health)

    def _run(self) -> TimelineResult:
        telemetry = self.telemetry
        elog = telemetry.events
        if elog is not None:
            elog.emit(
                "timeline_started",
                epochs=self.epochs,
                clients=self.population.n_clients,
                sites=[site.name for site in self.fleet.sites],
                epoch_seconds=float(self.epoch_seconds),
                latency_slo_seconds=float(self.latency_slo_seconds),
            )
        run_span = telemetry.span(
            "timeline", epochs=self.epochs, clients=self.population.n_clients
        )
        with run_span:
            records, cpu_util, uplink_util, clients_matrix = self._run_epochs()
        if elog is not None:
            elog.emit(
                "timeline_complete",
                epochs=len(records),
                delivered_fraction_mean=(
                    float(sum(r.delivered_fraction for r in records)
                          / len(records)) if records else 1.0),
                delivered_fraction_min=(
                    min(float(r.delivered_fraction) for r in records)
                    if records else 1.0),
                latency_slo_violations_max=(
                    max(float(r.latency_slo_violations) for r in records)
                    if records else 0.0),
            )
        return TimelineResult(
            n_clients=self.population.n_clients,
            epoch_seconds=self.epoch_seconds,
            site_names=tuple(site.name for site in self.fleet.sites),
            class_names=tuple(self.population.mix.names),
            records=tuple(records),
            cpu_utilization=cpu_util,
            uplink_utilization=uplink_util,
            clients_per_site=clients_matrix,
            wall_seconds=run_span.seconds,
        )

    def _run_epochs(self) -> Tuple[List[EpochRecord], np.ndarray,
                                   np.ndarray, np.ndarray]:
        """Run the epoch pipeline: six stages per epoch over one run state."""
        telemetry = self.telemetry
        state = _RunState(self)
        sites = self.fleet.n_sites
        records: List[EpochRecord] = []
        cpu_util = np.zeros((self.epochs, sites))
        uplink_util = np.zeros((self.epochs, sites))
        clients_matrix = np.zeros((self.epochs, sites), dtype=np.int64)
        for epoch in range(self.epochs):
            with telemetry.span("epoch", epoch=epoch):
                t = epoch * self.epoch_seconds
                fired = self._stage_events(state, epoch)
                actions = self._stage_autoscale(state, epoch, t)
                remapped, ring_moved = self._stage_ring_remap(state)
                demand = self._stage_demand(state, epoch, t)
                solved, allocation, solve_seconds = self._stage_solve(state,
                                                                      demand)
                records.append(self._stage_record(
                    state, epoch, fired=fired, actions=actions,
                    remapped=remapped, ring_moved=ring_moved, demand=demand,
                    solved=solved, allocation=allocation,
                    solve_seconds=solve_seconds,
                ))
                cpu_util[epoch] = solved.fluid.cpu_utilization
                uplink_util[epoch] = solved.fluid.uplink_utilization
                clients_matrix[epoch] = solved.fluid.clients_per_site
        return records, cpu_util, uplink_util, clients_matrix

    def _stage_events(self, state: _RunState, epoch: int) -> Tuple[str, ...]:
        """Stage 1: prune expired windows, fire due events and reconfigs."""
        state.ring_before = None
        with self.telemetry.span("events"):
            # Expired windows can never re-activate; pruning them keeps the
            # per-epoch scans bounded by *live* windows even on long runs
            # with frequent attack onsets.
            if state.throttles:
                state.throttles[:] = [toggle for toggle in state.throttles
                                      if toggle.until_epoch is None
                                      or epoch < toggle.until_epoch]
            if state.degradations:
                state.degradations[:] = [event for event in state.degradations
                                         if event.until_epoch is None
                                         or epoch < event.until_epoch]
            elog = self.telemetry.events
            fired: List[str] = []
            pending = state.pending
            while pending and pending[0].at_epoch == epoch:
                event = pending.pop(0)
                if isinstance(event, ReconfigEvent):
                    self._apply_reconfig(event, state)
                    kind = "reconfig"
                else:
                    self._fire(event, state)
                    kind = "fleet_event"
                fired.append(event.describe())
                if elog is not None:
                    elog.emit(kind, epoch=epoch, description=fired[-1])
        return tuple(fired)

    def _stage_autoscale(self, state: _RunState, epoch: int,
                         t: float) -> Tuple[str, ...]:
        """Stage 2: the closed-loop controller commissions or drains sites."""
        if state.autoscale is None:
            return ()
        with self.telemetry.span("autoscale_step"):
            actions = tuple(state.autoscale.step(
                epoch, state.last_metrics,
                self._forecast(t, state.region_demand), state.snapshot_ring,
            ))
        elog = self.telemetry.events
        if elog is not None and actions:
            elog.emit("autoscale", epoch=epoch, actions=list(actions))
        return actions

    def _stage_ring_remap(self, state: _RunState) -> Tuple[int, float]:
        """Stage 3: clients remapped and ring fraction moved; the template."""
        fleet = self.fleet
        with self.telemetry.span("ring_remap"):
            ring_moved = 0.0
            if state.ring_before is not None:
                ring_moved = fleet.ring_moved_fraction(state.ring_before,
                                                       fleet.ring_state())
            template = self._scenario.build_template()
            remapped = 0
            if state.template is not None and template is not state.template:
                remapped = template.remapped_from_parent
            state.template = template
            self.telemetry.inc("timeline.clients_remapped", remapped)
            if state.base_demand_bps is None:
                per_flow_bps = template.base_demands * template.group_clients
                state.base_demand_bps = float(per_flow_bps.sum())
                state.region_demand = np.bincount(
                    template.region_of, weights=per_flow_bps,
                    minlength=self.population.regions,
                )
        return remapped, ring_moved

    def _stage_demand(self, state: _RunState, epoch: int,
                      t: float) -> _EpochDemand:
        """Stage 4: demand and capacity scaling, then the adversary's move.

        A steady epoch (same template, equal load multipliers, no live
        throttle) reuses its predecessor's demand arrays outright.
        """
        template = state.template
        with self.telemetry.span("demand"):
            regional = state.regional = self._load_multipliers(t, state.regional)
            demand = (self._demand(template, regional, state.throttles)
                      if state.throttles else
                      state.demand.get(self._demand, template, regional))
            offered_scale, served_scale, offered_bps, demand_bps_by_class = demand
            capacity_scale = self._capacity_scale(epoch, state.degradations)
        adversary_epoch = None
        extra_setups: Optional[np.ndarray] = None
        if state.adversary is not None:
            with self.telemetry.span("adversary_step"):
                adversary_epoch = state.adversary.step(
                    epoch, template, offered_scale, self.epoch_seconds
                )
                served_scale = state.served.get(
                    np.multiply, served_scale, adversary_epoch.served_multiplier)
                extra_setups = adversary_epoch.extra_setups_per_flow
            elog = self.telemetry.events
            if elog is not None and adversary_epoch.events:
                elog.emit("adversary", epoch=epoch,
                          events=list(adversary_epoch.events))
        return _EpochDemand(offered_bps, demand_bps_by_class, served_scale,
                            capacity_scale, extra_setups, adversary_epoch)

    def _stage_solve(self, state: _RunState, demand: _EpochDemand,
                     ) -> Tuple[_SolvedEpoch, Allocation, float]:
        """Stage 5: reuse a bit-identical epoch, or solve this one afresh.

        Returns the solved epoch, this epoch's allocation and its seconds.
        """
        telemetry = self.telemetry
        template, memo = state.template, state.memo
        adversary_epoch = demand.adversary_epoch
        if memo is not None and memo.matches(template, demand.served_scale,
                                             demand.capacity_scale,
                                             demand.extra_setups):
            # Bit-identical problem (steady load, same fleet state): the
            # previous answer IS the answer.  Only a game move can change
            # the neutralized/exposed split.
            with telemetry.span("solve", reused=True) as reuse_span:
                allocation = state.reused.get(_reused, memo.allocation)
                if (memo.latency_result is not None
                        and adversary_epoch is not None and adversary_epoch.events):
                    split, experienced = self._adversary_latency(
                        template, memo.latency_result, adversary_epoch)
                    memo = replace(memo, split=split,
                                   experienced_latency=experienced)
            state.memo = memo
            telemetry.inc("timeline.epochs_reused")
            return memo, allocation, reuse_span.seconds
        with telemetry.span("template_instantiate") as instantiate_span:
            epoch_problem = template.instantiate(
                demand.served_scale, demand.capacity_scale, demand.extra_setups
            )
        with telemetry.span("solve") as solve_span:
            allocation = solve_allocation(
                epoch_problem.problem,
                warm_start=(memo.allocation.rates
                            if memo is not None and memo.template is template
                            else None),
                warm_prices=memo.allocation.prices if memo is not None else None,
                telemetry=telemetry,
            )
            fluid = template.interpret(epoch_problem, allocation)
        seconds = instantiate_span.seconds + solve_span.seconds
        latency_result = None
        latency = experienced = (0.0, 0.0, 0.0, 0.0)
        split: Tuple[Dict[str, float], Dict[str, float]] = ({}, {})
        if self.latency is not None:
            with telemetry.span("latency_proxy") as latency_span:
                latency_result = evaluate_latency(
                    template, epoch_problem, allocation, self.latency
                )
                latency = experienced = (
                    *latency_result.percentiles((0.50, 0.95, 0.99)),
                    latency_result.slo_violation_fraction(
                        self.latency_slo_seconds),
                )
                if adversary_epoch is not None:
                    split, experienced = self._adversary_latency(
                        template, latency_result, adversary_epoch)
            seconds += latency_span.seconds
        telemetry.observe("timeline.solver_iterations", allocation.iterations)
        solved = _SolvedEpoch(
            template=template, served_scale=demand.served_scale,
            capacity_scale=demand.capacity_scale,
            extra_setups=demand.extra_setups, epoch_problem=epoch_problem,
            allocation=allocation, fluid=fluid, latency_result=latency_result,
            latency=latency, experienced_latency=experienced, split=split,
        )
        if self.warm_start:
            state.memo = solved
        return solved, allocation, seconds

    def _adversary_latency(self, template: ProblemTemplate,
                           latency_result: LatencyResult,
                           adversary_epoch: AdversaryEpoch):
        """The neutralized/exposed P95 split and the experienced latency."""
        return (split_latency_by_class(template, latency_result, adversary_epoch),
                experienced_latency(template, latency_result, adversary_epoch,
                                    self.latency_slo_seconds))

    def _stage_record(self, state: _RunState, epoch: int, *,
                      fired: Tuple[str, ...], actions: Tuple[str, ...],
                      remapped: int, ring_moved: float, demand: _EpochDemand,
                      solved: _SolvedEpoch, allocation: Allocation,
                      solve_seconds: float) -> EpochRecord:
        """Stage 6: feed the controllers, bill the epoch, record and emit it."""
        telemetry = self.telemetry
        telemetry.inc("timeline.epochs")
        fleet = self.fleet
        fluid = solved.fluid
        adversary_epoch = demand.adversary_epoch
        with telemetry.span("record"):
            if state.adversary is not None:
                state.adversary.observe(state.template, allocation,
                                        solved.epoch_problem.problem,
                                        solved.latency_result)
            in_service = fleet.in_service_mask()
            (n_in_service, mean_load, peak_load, peak_cpu,
             peak_uplink) = state.figures.get(_load_figures, fluid, in_service)
            warming = (tuple(state.autoscale.warming)
                       if state.autoscale is not None else ())
            demand_multiplier = (demand.offered_bps / state.base_demand_bps
                                 if state.base_demand_bps else 0.0)
            delivered = (fluid.total_goodput_bps / demand.offered_bps
                         if demand.offered_bps > 0 else 1.0)
            state.last_metrics = EpochMetrics(
                served_sites=n_in_service,
                mean_utilization=mean_load,
                peak_utilization=peak_load,
                delivered_fraction=delivered,
                demand_multiplier=demand_multiplier,
                latency_p95_seconds=solved.latency[1],
                adoption_fraction=(adversary_epoch.adoption_fraction
                                   if adversary_epoch is not None else 0.0),
            )
            provision_cost = self.provisioning_cost.epoch_cost(
                epoch_seconds=self.epoch_seconds, clients_remapped=remapped,
                **state.committed_capacity(warming),
            )
            recorded = solved.experienced_latency
            adversary_fields = {} if adversary_epoch is None else dict(
                discriminated_share=adversary_epoch.discriminated_share,
                adoption_fraction=adversary_epoch.adoption_fraction,
                clients_rekeyed=adversary_epoch.clients_rekeyed,
                adversary_events=adversary_epoch.events,
            )
            record = EpochRecord(
                epoch=epoch,
                t_seconds=epoch * self.epoch_seconds,
                events=fired,
                demand_multiplier=demand_multiplier,
                demand_bps=demand.offered_bps,
                goodput_bps=fluid.total_goodput_bps,
                goodput_bps_by_class=dict(fluid.goodput_bps),
                delivered_fraction=delivered,
                peak_cpu_utilization=peak_cpu,
                peak_uplink_utilization=peak_uplink,
                key_setup_pps=fluid.key_setup_pps,
                clients_remapped=remapped,
                ring_moved_fraction=ring_moved,
                warm_started=allocation.warm_started,
                solver_iterations=allocation.iterations,
                solve_seconds=solve_seconds,
                sites_in_service=n_in_service,
                sites_warming=len(warming),
                autoscale_actions=actions,
                provision_cost=provision_cost,
                latency_p50_seconds=recorded[0],
                latency_p95_seconds=recorded[1],
                latency_p99_seconds=recorded[2],
                latency_slo_violations=recorded[3],
                demand_bps_by_class=dict(demand.demand_bps_by_class),
                neutralized_latency_p95=solved.split[0],
                exposed_latency_p95=solved.split[1],
                **adversary_fields,
            )
            if telemetry.events is not None:
                # Per-site served capacity: the in-service flag times the
                # degradation scale — the availability signal the
                # black-hole detector runs CUSUM over.  ``site_active``
                # masks out drained/warming sites (not commissioned to
                # serve), so scale-downs are never mistaken for faults.
                scale = demand.capacity_scale
                site_served = ([1.0 if flag else 0.0 for flag in in_service]
                               if scale is None else
                               [float(factor) if flag else 0.0
                                for flag, factor in zip(in_service, scale)])
                telemetry.events.emit(
                    "epoch",
                    epoch=epoch,
                    delivered_fraction=float(delivered),
                    demand_multiplier=float(demand_multiplier),
                    latency_p95_seconds=float(recorded[1]),
                    latency_slo_violations=float(recorded[3]),
                    sites_in_service=n_in_service,
                    sites_warming=len(warming),
                    site_served=site_served,
                    site_active=[bool(site.active) for site in fleet.sites],
                )
        return record


def _reused(allocation: Allocation) -> Allocation:
    """A solved allocation as a reusing epoch records it: warm, no passes."""
    return replace(allocation, iterations=0, warm_started=True)


def _load_figures(fluid: FluidResult, in_service: np.ndarray,
                  ) -> Tuple[int, float, float, float, float]:
    """Sites in service, their mean and peak load, peak CPU and uplink use."""
    n_in_service = int(in_service.sum())
    serving_load = np.maximum(fluid.cpu_utilization,
                              fluid.uplink_utilization)[in_service]
    return (n_in_service,
            float(serving_load.mean()) if n_in_service else 0.0,
            float(serving_load.max()) if n_in_service else 0.0,
            float(fluid.cpu_utilization.max()),
            float(fluid.uplink_utilization.max()))
