"""Adaptive ISP discrimination vs. neutralizer adoption: the arms race, fluid.

The paper's core tension is a *game*: access ISPs discriminate against
traffic classes they can identify, and clients respond by deploying the
neutralizer, which makes their traffic unclassifiable — at which point the
ISP either escalates to blunter instruments (the §3.6 residual cases) or
gives up.  The catalogue's :class:`repro.scale.timeline.DiscriminationToggle`
renders only one still frame of that game (a static, hand-scheduled
throttle); this module closes the loop, the way
:mod:`repro.scale.autoscale` closed the provisioning loop:

*The ISP side* is an adaptive strategy stack
(:class:`IspStrategy` + per-run state in :class:`AdversaryRun`):

* **classifier-driven targeting** reusing the semantics of
  :mod:`repro.discrimination.policy` in fluid form: a
  :class:`ClassifierModel` confusion matrix says what fraction of *exposed*
  (non-neutralized) traffic of the targeted classes the ISP's DPI flags
  (true positives), what fraction of exposed bystander traffic it flags by
  mistake (false positives), and how much *neutralized* traffic still leaks
  through traffic analysis (packet sizes and timing survive encryption);
* **budget-constrained throttling**: policing traffic costs the ISP
  inspection capacity and support/complaint goodwill, so at most
  ``budget_fraction`` of each region's offered traffic may be flagged and
  throttled in any epoch — when the classifier flags more, coverage is
  scaled down pro rata (the conservation law the tests check);
* **escalation/backoff** reacting to *observed evasion*: when the flagged
  share of the target classes collapses (adopters disappeared from the
  classifier's view), the ISP throttles harder, and past
  ``blanket_evasion`` it goes blunt — throttling everything it cannot
  classify, i.e. all neutralized traffic, the fluid rendering of §3.6's
  "throttle encrypted traffic as a class".  When the collateral share of
  what it polices — bystander-class false positives plus every flagged
  neutralized byte, which is indiscriminate by construction — exceeds
  ``backoff_collateral``, it retreats one step.

*The client side* is a per-region adoption model (:class:`AdoptionModel`):
each epoch, every client weighs the harm it would experience exposed
(throughput shortfall plus latency-SLO violations, including the policer
queue of a throttled flow) against the harm it would experience neutralized,
and the region's adoption fraction relaxes toward a thresholded logistic in
that *harm gain* — adoption has a cost (subscription friction,
``adoption_cost``) and inertia (``adopt_rate`` / ``churn_rate`` per epoch).
New adopters re-key through the consistent-hash ring: each one performs a
fresh key setup against the site that owns its ring position, so a wave of
adoption shows up as a key-setup load spike at the fleet (the §3.2
cheap-RSA story is what keeps that survivable) and as
``clients_rekeyed`` churn in the epoch record.

Modelling frame: the fleet serves the neutral ISP's traffic whether or not a
client has adopted (the services live behind the neutral ISP either way, and
the population's wire sizes already include the shim); adoption toggles
*classifiability* of the access leg, not the traffic's existence.  Everything
is an O(flows) vectorized pass per epoch, so a million-client arms race
costs the same as a million-client diurnal day.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import WorkloadError
from .latency import LatencyModel, LatencyResult, _weighted_percentiles
from .memo import IdentityMemo
from .population import ClientPopulation
from .scenario import ProblemTemplate
from .solver import Allocation
from .telemetry import NULL, Telemetry

#: Adoption steps smaller than this are clamped to zero so the game reaches
#: an exact fixed point — once it does, the epoch's scale vectors are
#: bit-identical and the timeline's steady-state reuse fast path fires.
#: 1e-4 of a region is far below anything the metrics resolve, and the
#: geometric relaxation would otherwise spend tens of epochs in a tail of
#: sub-client steps, each forcing a full re-solve.
_ADOPTION_QUANTUM = 1e-4


@dataclass(frozen=True)
class ClassifierModel:
    """Confusion model of the ISP's classifier against (non-)neutralized traffic.

    Fractions of *traffic* (equivalently, of a flow group's clients, since
    clients of a group are identical):

    ``true_positive``
        Exposed traffic of a targeted class that the DPI correctly flags.
    ``false_positive``
        Exposed traffic of a *non*-targeted class flagged by mistake — the
        collateral a blunt classifier inflicts on bystanders.
    ``neutralized_leakage``
        Neutralized traffic of *any* class still flagged via traffic
        analysis (packet sizes and timing survive the shim); the paper's
        claim is that this residual is small, and it is the knob that prices
        how much protection adoption actually buys.
    """

    true_positive: float = 0.9
    false_positive: float = 0.02
    neutralized_leakage: float = 0.05

    def __post_init__(self) -> None:
        for name in ("true_positive", "false_positive", "neutralized_leakage"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"classifier {name} must be a fraction in [0, 1]")


@dataclass(frozen=True)
class IspStrategy:
    """The discriminatory ISP's adaptive strategy configuration.

    ``aggressiveness`` in [0, 1] prices how much harm the ISP is willing to
    inflict: it opens at half its severity
    (``initial_factor = 1 - aggressiveness/2 * (1 - throttle_floor)``) and
    escalations move the served fraction down in ``escalation_step``
    decrements, but never below ``min_factor = 1 - aggressiveness *
    (1 - throttle_floor)`` — a timid ISP will not escalate into severities
    it was never prepared to impose, so aggressiveness shapes the *whole
    trajectory*, not just the opening move.  0 never throttles (the
    strategy is inert and the timeline matches a policy-free run); 1 is
    prepared to go all the way to ``throttle_floor``.
    """

    aggressiveness: float = 0.5
    target_classes: Tuple[str, ...] = ("video", "web")
    #: The most severe served fraction the ISP will ever impose.
    throttle_floor: float = 0.2
    #: Max share of a region's offered traffic it can flag+police per epoch.
    budget_fraction: float = 0.3
    classifier: ClassifierModel = field(default_factory=ClassifierModel)
    #: Observed-evasion fraction of target traffic above which it escalates.
    escalate_evasion: float = 0.25
    #: Evasion above which it goes blanket (throttle all neutralized traffic).
    blanket_evasion: float = 0.85
    #: Collateral share of flagged traffic above which it backs off one step.
    backoff_collateral: float = 0.5
    #: Throttle-factor change per escalation or backoff.
    escalation_step: float = 0.15
    #: Whether the §3.6 blanket move (flag everything neutralized) is on the
    #: table at all — a regulated ISP may not be able to afford it.
    allow_blanket: bool = True
    #: Epochs the strategy holds still after any escalate/backoff/blanket
    #: move — policy changes have operational inertia, like the
    #: autoscaler's cooldown.
    cooldown_epochs: int = 1
    #: Extra one-way delay a flagged client's surviving traffic picks up in
    #: the policer queue — the fluid twin of a DELAY rule in
    #: :mod:`repro.discrimination.policy` (its stock competitor-degradation
    #: rule adds 150 ms; a throttling policer is worse).
    throttle_delay_seconds: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.aggressiveness <= 1.0:
            raise WorkloadError("aggressiveness must be a fraction in [0, 1]")
        if not self.target_classes:
            raise WorkloadError("the ISP needs at least one target class")
        if not 0.0 <= self.throttle_floor <= 1.0:
            raise WorkloadError("the throttle floor must be a fraction in [0, 1]")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise WorkloadError("the policing budget must be a fraction in (0, 1]")
        if not 0.0 <= self.escalate_evasion <= self.blanket_evasion <= 1.0:
            raise WorkloadError(
                "evasion thresholds need 0 <= escalate <= blanket <= 1"
            )
        if not 0.0 < self.backoff_collateral <= 1.0:
            raise WorkloadError("the collateral threshold must be in (0, 1]")
        if not 0.0 < self.escalation_step <= 1.0:
            raise WorkloadError("the escalation step must be in (0, 1]")
        if self.throttle_delay_seconds < 0:
            raise WorkloadError("the policer delay must be non-negative")
        if self.cooldown_epochs < 0:
            raise WorkloadError("the strategy cooldown must be non-negative")

    @property
    def initial_factor(self) -> float:
        """Served fraction of flagged traffic before any escalation."""
        return 1.0 - 0.5 * self.aggressiveness * (1.0 - self.throttle_floor)

    @property
    def min_factor(self) -> float:
        """The lowest served fraction this ISP is willing to escalate to."""
        return 1.0 - self.aggressiveness * (1.0 - self.throttle_floor)

    @property
    def enabled(self) -> bool:
        """Whether the strategy throttles at all (``aggressiveness > 0``)."""
        return self.aggressiveness > 0.0


@dataclass(frozen=True)
class AdoptionModel:
    """Per-region neutralizer adoption dynamics.

    Each epoch the adoption target is a thresholded logistic in the *harm
    gain* — the harm an exposed client experiences minus the harm a
    neutralized one does (throughput shortfall plus, when a latency model
    is attached, ``latency_weight`` times the SLO-violating indicator,
    policer queueing included):

    ``a* = max(0, tanh(sensitivity * (gain - adoption_cost) / 2))``

    so adoption only starts once discrimination hurts more than the
    neutralizer costs, and saturates when the gap is large.  The region's
    fraction relaxes toward the target at ``adopt_rate`` per epoch on the
    way up and ``churn_rate`` on the way down (subscribing is a decision,
    lapsing is neglect).  Every *new* adopter performs one key setup at the
    site owning its ring position.
    """

    sensitivity: float = 8.0
    #: Harm-gain level below which nobody bothers to adopt.
    adoption_cost: float = 0.05
    #: Fraction of the gap to the target closed per epoch, upward.
    adopt_rate: float = 0.25
    #: Fraction of the gap closed per epoch, downward (abandonment).
    churn_rate: float = 0.1
    initial_adoption: float = 0.0
    #: Weight of latency-SLO violations next to throughput shortfall.
    latency_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.sensitivity <= 0:
            raise WorkloadError("adoption sensitivity must be positive")
        if self.adoption_cost < 0:
            raise WorkloadError("adoption cost must be non-negative")
        if not 0.0 < self.adopt_rate <= 1.0 or not 0.0 < self.churn_rate <= 1.0:
            raise WorkloadError("adoption rates must be fractions in (0, 1]")
        if not 0.0 <= self.initial_adoption <= 1.0:
            raise WorkloadError("initial adoption must be a fraction in [0, 1]")
        if self.latency_weight < 0:
            raise WorkloadError("the latency weight must be non-negative")

    def target(self, harm_gain: np.ndarray) -> np.ndarray:
        """The per-region adoption target for a given harm gain."""
        return np.maximum(
            0.0, np.tanh(self.sensitivity * (harm_gain - self.adoption_cost) / 2.0)
        )


@dataclass(frozen=True)
class AdversaryGame:
    """The frozen game configuration a timeline runs with.

    Mirrors :class:`repro.scale.autoscale.Autoscaler`: the timeline's
    ``run()`` builds a fresh :class:`AdversaryRun` each time, so timelines
    with an adversary stay re-runnable.
    """

    isp: IspStrategy = field(default_factory=IspStrategy)
    adoption: AdoptionModel = field(default_factory=AdoptionModel)

    def validate_against(self, population: ClientPopulation) -> None:
        """Fail fast when the strategy names classes the mix does not have."""
        known = set(population.mix.names)
        unknown = set(self.isp.target_classes) - known
        if unknown:
            raise WorkloadError(
                f"adversary targets unknown classes {sorted(unknown)}; "
                f"population mix has {population.mix.names}"
            )


@dataclass(frozen=True)
class AdversaryObservation:
    """What the game learned from one solved epoch (consumed one epoch later)."""

    #: Share of target-class traffic the classifier did NOT flag.
    evasion: float
    #: Share of flagged traffic belonging to non-target classes.
    collateral: float
    #: Per-region harm(exposed) - harm(neutralized), the adoption driver.
    harm_gain: np.ndarray


@dataclass(frozen=True)
class AdversaryEpoch:
    """One epoch's game output: the solver inputs plus the telemetry.

    ``exposed_hit`` / ``neutralized_hit`` are, per flow, the fraction of its
    exposed / neutralized clients whose traffic is flagged and policed this
    epoch (budget coverage already applied); ``served_multiplier`` folds
    both into the access ISP's served-demand cap for the merged flow.
    """

    served_multiplier: np.ndarray
    #: Extra key-setup requests/s per flow from adopters re-keying (None
    #: when nobody adopted this epoch).
    extra_setups_per_flow: Optional[np.ndarray]
    exposed_hit: np.ndarray
    neutralized_hit: np.ndarray
    #: Policer sojourn added to a flagged client's path delay (None without
    #: a latency model or when nothing is throttled).
    penalty_seconds: Optional[np.ndarray]
    #: Share of offered traffic (bps) flagged and policed this epoch.
    discriminated_share: float
    #: Client-weighted adoption fraction across the population.
    adoption_fraction: float
    clients_rekeyed: int
    events: Tuple[str, ...]
    #: Per-region flagged and offered bps (the budget-conservation ledger).
    flagged_bps_by_region: np.ndarray
    offered_bps_by_region: np.ndarray
    #: The served fraction applied to flagged traffic this epoch.
    throttle_factor: float
    #: Snapshot of the per-region adoption fractions in effect this epoch.
    adoption_by_region: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Per-flow offered bps this epoch (the ISP's traffic-volume ledger).
    offered_bps_per_flow: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: What the classifier saw this epoch, *before* the budget clamp: the
    #: share of target-class traffic it failed to flag, and the share of
    #: what it flagged that belongs to bystander classes.  The budget limits
    #: how much the ISP can police, not what it can measure.
    evasion: float = 0.0
    collateral: float = 0.0


class AdversaryRun:
    """Mutable game state for one timeline run.

    Owns the per-region adoption fractions, the ISP's current throttle
    factor and blanket flag, and the previous epoch's observation.  The
    control loop is deliberately lagged, like the autoscaler's: the epoch's
    flagging is computed from the state *before* the epoch solves, and the
    solve's outcome only informs the next epoch's strategy and adoption
    updates.

    A steady epoch costs only the lagged updates: with no game move and the
    same template and offered-demand objects, :meth:`step` hands back the
    previous epoch's flagging; :meth:`observe` skips a solved epoch it has
    already digested, and a settled adoption skips its target.
    """

    def __init__(self, game: AdversaryGame, population: ClientPopulation,
                 latency: Optional[LatencyModel] = None,
                 latency_slo_seconds: float = 0.1,
                 telemetry: Optional[Telemetry] = None) -> None:
        game.validate_against(population)
        self.game = game
        self.population = population
        self.latency = latency
        self.latency_slo_seconds = float(latency_slo_seconds)
        #: Observation only: counts game moves, never influences them.
        self.telemetry = telemetry if telemetry is not None else NULL
        self.adoption = np.full(
            population.regions, game.adoption.initial_adoption, dtype=np.float64
        )
        self.factor = game.isp.initial_factor
        self.blanket = False
        self.region_clients = population.region_counts().astype(np.float64)
        self._target_ids = np.array(
            [population.mix.names.index(name) for name in game.isp.target_classes],
            dtype=np.int64,
        )
        self._observation: Optional[AdversaryObservation] = None
        self._epoch: Optional[AdversaryEpoch] = None
        #: First epoch at which the strategy may move again (cooldown).
        self._hold_until = 0
        #: (template, mask) pair — the target mask only changes when the
        #: template's flow structure does, not every epoch.
        self._mask_cache: Tuple[Optional[ProblemTemplate], Optional[np.ndarray]] = (
            None, None,
        )
        #: The last move-free flagging, keyed on (template, offered scale).
        self._steady = IdentityMemo()
        #: The last observation, keyed on what it digested.
        self._observed = IdentityMemo()
        #: Set while (observation, adoption, model) left adoption at rest.
        self._settled = IdentityMemo()

    def retune(self, adoption: "AdoptionModel") -> None:
        """Swap the adoption disposition mid-run (a committed reconfig event).

        Only the *model* changes — current per-region adoption fractions and
        the ISP's throttle state carry over, so the retune reads as clients
        becoming more (or less) price/harm sensitive from this epoch on, not
        as a population reset.
        """
        self.game = replace(self.game, adoption=adoption)

    def _count_moves(self, events: List[str], rekeyed: int) -> None:
        """Record this tick's game moves as counters, by event label."""
        telemetry = self.telemetry
        telemetry.inc("adversary.steps")
        telemetry.inc("adversary.events", len(events))
        telemetry.inc("adversary.clients_rekeyed", rekeyed)
        for label in events:
            if label.startswith(("escalate", "blanket on")):
                telemetry.inc("adversary.escalations")
            elif label.startswith(("backoff", "blanket off")):
                telemetry.inc("adversary.backoffs")
            elif label.startswith("adoption"):
                telemetry.inc("adversary.adoption_steps")

    def _target_mask(self, template: ProblemTemplate) -> np.ndarray:
        """Per-flow targeted-class mask, cached per template."""
        cached_template, cached_mask = self._mask_cache
        if cached_template is not template:
            cached_mask = np.isin(template.class_of, self._target_ids)
            self._mask_cache = (template, cached_mask)
        return cached_mask

    # -- the per-epoch control step ---------------------------------------------------

    def step(self, epoch: int, template: ProblemTemplate,
             offered_scale: np.ndarray, epoch_seconds: float) -> AdversaryEpoch:
        """One game tick at the top of ``epoch``, before the solve.

        Applies the strategy and adoption updates earned by the previous
        epoch's observation, then computes this epoch's flagging, budget
        coverage, served multipliers, rekey load, and telemetry.
        """
        events: List[str] = []
        self._update_strategy(epoch, events)
        rekeyed, joiners = self._update_adoption(events)
        self._count_moves(events, rekeyed)
        if not events:
            # No move leaves the strategy and adoption state as they were,
            # so only new inputs can change the flagging.
            steady = self._steady.lookup(template, offered_scale)
            if steady is not None:
                self._epoch = steady
                return steady
        self._epoch = self._flag(template, offered_scale, epoch_seconds,
                                 rekeyed, joiners, tuple(events))
        if rekeyed:
            steady = None  # the re-key load is this epoch's alone
        elif events:
            steady = replace(self._epoch, events=())
        else:
            steady = self._epoch
        self._steady.store(steady, template, offered_scale)
        return self._epoch

    def _flag(self, template: ProblemTemplate, offered_scale: np.ndarray,
              epoch_seconds: float, rekeyed: int,
              joiners: Optional[np.ndarray],
              events: Tuple[str, ...]) -> AdversaryEpoch:
        """This epoch's flagging, budget coverage, multipliers and ledger."""
        isp = self.game.isp
        region_of = template.region_of
        regions = template.regions
        a_flow = self.adoption[region_of]
        offered_bps = template.base_demands * offered_scale * template.group_clients
        offered_region = np.bincount(region_of, weights=offered_bps,
                                     minlength=regions)
        total_offered = float(offered_bps.sum())
        adoption_fraction = float(
            (self.adoption * self.region_clients).sum()
            / max(self.region_clients.sum(), 1.0)
        )

        extra_setups: Optional[np.ndarray] = None
        if rekeyed > 0:
            # Each joining client performs one key setup at the site that
            # owns its ring position; spread over the epoch it is a rate.
            extra_setups = (joiners[region_of] * template.group_clients
                            / epoch_seconds)

        if not isp.enabled:
            n_flows = region_of.size
            return AdversaryEpoch(
                served_multiplier=np.ones(n_flows),
                extra_setups_per_flow=extra_setups,
                exposed_hit=np.zeros(n_flows),
                neutralized_hit=np.zeros(n_flows),
                penalty_seconds=None,
                discriminated_share=0.0,
                adoption_fraction=adoption_fraction,
                clients_rekeyed=rekeyed,
                events=events,
                flagged_bps_by_region=np.zeros(regions),
                offered_bps_by_region=offered_region,
                throttle_factor=1.0,
                adoption_by_region=self.adoption.copy(),
                offered_bps_per_flow=offered_bps,
            )

        classifier = isp.classifier
        target_mask = self._target_mask(template)
        exposure_rate = np.where(target_mask, classifier.true_positive,
                                 classifier.false_positive)
        leakage = 1.0 if self.blanket else classifier.neutralized_leakage
        flagged = (1.0 - a_flow) * exposure_rate + a_flow * leakage

        # What the classifier *measures* (pre-budget): how much target
        # traffic it failed to flag, and how much of what it polices it
        # cannot vouch for.  In targeted mode every flag comes from a
        # positive classifier match (even traffic-analysis leakage claims a
        # target signature), so only the non-target flags count as
        # collateral; in blanket mode the ISP knowingly throttles
        # unclassifiable traffic wholesale, so everything beyond the
        # exposed-target share it could actually vouch for is collateral —
        # §3.6's bluntness, and what backoff reacts to.
        flagged_bps_raw = flagged * offered_bps
        target_bps = float(offered_bps[target_mask].sum())
        flagged_target_bps = float(flagged_bps_raw[target_mask].sum())
        if self.blanket:
            intended_bps = float(
                ((1.0 - a_flow) * exposure_rate * offered_bps)[target_mask].sum()
            )
        else:
            intended_bps = flagged_target_bps
        flagged_total_bps = float(flagged_bps_raw.sum())
        evasion = (1.0 - flagged_target_bps / target_bps
                   if target_bps > 0 else 0.0)
        collateral = (1.0 - intended_bps / flagged_total_bps
                      if flagged_total_bps > 0 else 0.0)

        # Budget: flagging beyond the region's policing capacity is scaled
        # down pro rata — the ISP polices as much as it can afford, no more.
        flagged_region = np.bincount(region_of, weights=flagged_bps_raw,
                                     minlength=regions)
        budget_region = isp.budget_fraction * offered_region
        coverage = np.where(
            flagged_region > budget_region,
            budget_region / np.maximum(flagged_region, 1e-300),
            1.0,
        )
        cover_flow = coverage[region_of]
        exposed_hit = exposure_rate * cover_flow
        neutralized_hit = leakage * cover_flow
        flagged = flagged * cover_flow
        flagged_bps = flagged * offered_bps

        served_multiplier = 1.0 - flagged * (1.0 - self.factor)
        discriminated_share = (float(flagged_bps.sum()) / total_offered
                               if total_offered > 0 else 0.0)

        penalty: Optional[np.ndarray] = None
        if self.factor < 1.0 and isp.throttle_delay_seconds > 0:
            # Flagged traffic that survives the policer sits in its queue —
            # the fluid twin of the DELAY action in
            # repro.discrimination.policy, deepening with severity: a light
            # shave barely queues, a hard throttle holds a standing queue.
            penalty = np.full(
                region_of.size,
                isp.throttle_delay_seconds * (1.0 - self.factor),
            )

        return AdversaryEpoch(
            served_multiplier=served_multiplier,
            extra_setups_per_flow=extra_setups,
            exposed_hit=exposed_hit,
            neutralized_hit=neutralized_hit,
            penalty_seconds=penalty,
            discriminated_share=discriminated_share,
            adoption_fraction=adoption_fraction,
            clients_rekeyed=rekeyed,
            events=events,
            flagged_bps_by_region=flagged_region * coverage,
            offered_bps_by_region=offered_region,
            throttle_factor=self.factor,
            adoption_by_region=self.adoption.copy(),
            offered_bps_per_flow=offered_bps,
            evasion=evasion,
            collateral=collateral,
        )

    def observe(self, template: ProblemTemplate, allocation: Allocation,
                problem, latency_result: Optional[LatencyResult]) -> None:
        """Digest one solved epoch into the next epoch's observation.

        ``problem`` is the epoch's :class:`CapacityProblem` (its demands are
        the *served* demands after the access multiplier, which is what the
        fleet's satisfaction ratio is relative to).
        """
        adv = self._epoch
        if adv is None:
            return
        # A flagging's served multiplier identifies it (a move epoch's
        # flagging, carried forward without its labels, keeps the array).
        inputs = (adv.served_multiplier, problem, allocation.rates,
                  latency_result, self.game.adoption)
        if self._observed.lookup(*inputs) is not None:
            return  # the same epoch again: the observation stands
        # The ISP's ledger (evasion/collateral) was measured at step time,
        # pre-budget; only the harm gain needs the solved epoch.
        self._observation = self._observed.store(AdversaryObservation(
            evasion=adv.evasion, collateral=adv.collateral,
            harm_gain=self._harm_gain(template, adv, allocation, problem,
                                      latency_result),
        ), *inputs)

    def _harm_gain(self, template: ProblemTemplate, adv: AdversaryEpoch,
                   allocation: Allocation, problem,
                   latency_result: Optional[LatencyResult]) -> np.ndarray:
        """Per-region harm(exposed) - harm(neutralized) of one solved epoch."""
        region_of = template.region_of
        satisfaction = allocation.satisfaction(problem)

        # What each client would experience exposed vs neutralized: the
        # access leg serves (1 - hit x (1 - factor)) of its demand, and the
        # fleet serves `satisfaction` of whatever crossed the access leg.
        factor = adv.throttle_factor
        exposed_access = 1.0 - adv.exposed_hit * (1.0 - factor)
        neutral_access = 1.0 - adv.neutralized_hit * (1.0 - factor)
        harm_exposed = 1.0 - exposed_access * satisfaction
        harm_neutral = 1.0 - neutral_access * satisfaction

        if latency_result is not None:
            weight = self.game.adoption.latency_weight
            slo = self.latency_slo_seconds
            base_over = latency_result.flow_delay_seconds > slo
            if adv.penalty_seconds is not None:
                hit_over = (latency_result.flow_delay_seconds
                            + adv.penalty_seconds) > slo
            else:
                hit_over = base_over
            harm_exposed = harm_exposed + weight * np.where(
                hit_over, adv.exposed_hit, 0.0
            ) + weight * np.where(base_over, 1.0 - adv.exposed_hit, 0.0)
            harm_neutral = harm_neutral + weight * np.where(
                hit_over, adv.neutralized_hit, 0.0
            ) + weight * np.where(base_over, 1.0 - adv.neutralized_hit, 0.0)

        # Every client weighs both options, so both harms are averaged over
        # the whole group — no degenerate weights when a region is fully
        # (un)adopted.
        clients = template.group_clients
        client_region = np.bincount(region_of, weights=clients,
                                    minlength=template.regions)
        client_region = np.maximum(client_region, 1.0)
        return (
            np.bincount(region_of, weights=(harm_exposed - harm_neutral) * clients,
                        minlength=template.regions)
            / client_region
        )

    # -- lagged updates ---------------------------------------------------------------

    def _update_strategy(self, epoch: int, events: List[str]) -> None:
        observation = self._observation
        isp = self.game.isp
        if observation is None or not isp.enabled or epoch < self._hold_until:
            return
        if observation.collateral > isp.backoff_collateral:
            if self.blanket:
                self.blanket = False
                events.append("blanket off")
            elif self.factor < 1.0:
                self.factor = min(1.0, round(self.factor + isp.escalation_step, 9))
                events.append(f"backoff x{self.factor:g}")
            else:
                return
        elif (observation.evasion > isp.blanket_evasion and isp.allow_blanket
                and not self.blanket):
            self.blanket = True
            events.append("blanket on")
        elif (observation.evasion > isp.escalate_evasion
                and self.factor > isp.min_factor):
            self.factor = max(isp.min_factor,
                              round(self.factor - isp.escalation_step, 9))
            events.append(f"escalate x{self.factor:g}")
        else:
            return
        self._hold_until = epoch + 1 + isp.cooldown_epochs

    def _update_adoption(self, events: List[str]) -> Tuple[int, Optional[np.ndarray]]:
        """Relax adoption toward the harm-gain target.

        Returns the re-keyed client count and the per-region joiners
        (``None`` while adoption rests).
        """
        observation = self._observation
        model = self.game.adoption
        if observation is None or self._settled.lookup(observation,
                                                       self.adoption, model):
            return 0, None
        target = model.target(observation.harm_gain)
        delta = target - self.adoption
        step = np.where(delta > 0, model.adopt_rate, model.churn_rate) * delta
        # Clamp micro-steps to zero so the game reaches an exact fixed point
        # (the timeline's bit-identical-epoch reuse depends on it).
        step[np.abs(step) < _ADOPTION_QUANTUM] = 0.0
        if not step.any():
            self._settled.store(True, observation, self.adoption, model)
            return 0, None
        updated = np.clip(self.adoption + step, 0.0, 1.0)
        joiners = np.maximum(updated - self.adoption, 0.0)
        rekeyed = int(round(float((joiners * self.region_clients).sum())))
        before = float((self.adoption * self.region_clients).sum())
        after = float((updated * self.region_clients).sum())
        self.adoption = updated
        total = max(self.region_clients.sum(), 1.0)
        events.append(f"adoption {before / total:.3f}->{after / total:.3f}")
        return rekeyed, joiners


def split_latency_by_class(
    template: ProblemTemplate,
    latency_result: LatencyResult,
    adversary_epoch: AdversaryEpoch,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-class P95 path delay, split neutralized vs exposed.

    Within one flow, clients fall into four delay groups: neutralized or
    exposed, each either flagged (base delay plus the policer penalty) or
    unflagged (base delay).  The split is the neutrality check made
    adversarial: a throttled class shows its exposed tail displaced while
    its neutralized twin — same class, same regions, same fleet — stays on
    the base curve.
    """
    adoption = adversary_epoch
    base = latency_result.flow_delay_seconds
    penalty = (adoption.penalty_seconds if adoption.penalty_seconds is not None
               else np.zeros_like(base))
    hit_delay = base + penalty
    clients = template.group_clients.astype(np.float64)
    a_flow = adoption.adoption_by_region[template.region_of]

    neutralized: Dict[str, float] = {}
    exposed: Dict[str, float] = {}
    for index, name in enumerate(latency_result.class_names):
        members = template.class_members[index]
        values = np.concatenate([base[members], hit_delay[members]])
        neutral_clients = a_flow[members] * clients[members]
        exposed_clients = (1.0 - a_flow[members]) * clients[members]
        neutral_weights = np.concatenate([
            neutral_clients * (1.0 - adoption.neutralized_hit[members]),
            neutral_clients * adoption.neutralized_hit[members],
        ])
        exposed_weights = np.concatenate([
            exposed_clients * (1.0 - adoption.exposed_hit[members]),
            exposed_clients * adoption.exposed_hit[members],
        ])
        # One sort serves both weightings — the values are shared.
        order = np.argsort(values, kind="stable")
        neutralized[name] = _weighted_percentiles(
            values, neutral_weights, [0.95], order=order)[0]
        exposed[name] = _weighted_percentiles(
            values, exposed_weights, [0.95], order=order)[0]
    return neutralized, exposed


def experienced_latency(
    template: ProblemTemplate,
    latency_result: LatencyResult,
    adversary_epoch: AdversaryEpoch,
    slo_seconds: float,
) -> Tuple[float, float, float, float]:
    """Aggregate (P50, P95, P99, SLO-violation fraction) *as experienced*.

    The proxy's :class:`LatencyResult` measures the fleet path; flagged
    clients additionally sit in the access ISP's policer queue.  This is
    the population-wide mixture of both — what the epoch record quotes, so
    the headline latency fields and the adoption model's harm ledger agree
    on what a client experienced.  (The autoscaler keeps the fleet-path
    P95 as its control signal: capacity cannot buy back a policer queue.)
    """
    base = latency_result.flow_delay_seconds
    if adversary_epoch.penalty_seconds is None:
        p50, p95, p99 = latency_result.percentiles((0.50, 0.95, 0.99))
        return p50, p95, p99, latency_result.slo_violation_fraction(slo_seconds)
    a_flow = adversary_epoch.adoption_by_region[template.region_of]
    hit = ((1.0 - a_flow) * adversary_epoch.exposed_hit
           + a_flow * adversary_epoch.neutralized_hit)
    clients = template.group_clients.astype(np.float64)
    values = np.concatenate([base, base + adversary_epoch.penalty_seconds])
    weights = np.concatenate([clients * (1.0 - hit), clients * hit])
    p50, p95, p99 = _weighted_percentiles(values, weights, (0.50, 0.95, 0.99))
    total = weights.sum()
    violations = (float(weights[values > slo_seconds].sum() / total)
                  if total > 0 else 0.0)
    return p50, p95, p99, violations
