"""The neutralizer fleet: sites, capacity, health, and client assignment.

This is the supply side of the paper's §4 scaling argument (neutralizer
boxes at the neutral ISP's borders, reached by anycast).  A *site* is one
anycast entry point into the neutral domain — in the
packet-level simulator, one :class:`repro.core.neutralizer.Neutralizer` on a
border router; here, a CPU budget (cores × the calibrated per-packet cost)
plus an uplink.  Clients are spread over healthy sites with the
:class:`repro.core.anycast.ConsistentHashRing`, evaluated vectorized: the
ring's points are hashed and sorted once into an *arc table* (every site's
points, in service or not), a membership change re-derives only each arc's
owning site, and a million clients are assigned with a single
``searchsorted``.  Failing a site hands its arcs to the next in-service
points, so exactly the failed site's clients move — the fleet-level
analogue of a router withdrawing its anycast route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.anycast import ConsistentHashRing, NeutralizerDeployment
from ..exceptions import TopologyError
from ..units import gbps
from .costmodel import CryptoCostModel


@dataclass
class FleetSite:
    """One neutralizer site: a point of presence with CPU and uplink budgets.

    Two independent flags gate whether the site serves clients: ``healthy``
    is involuntary (failures and recoveries, flipped by fleet events) and
    ``active`` is voluntary (commissioned vs drained, flipped by the
    autoscaler).  A site is *in service* — present in the hash ring,
    contributing capacity — only when both are true, so a drained site that
    fails, recovers, and is reactivated passes through every state exactly
    once.
    """

    name: str
    cores: float = 8.0
    uplink_bps: float = gbps(10)
    healthy: bool = True
    active: bool = True
    #: Billing tier: ``"reserved"`` (full price) or ``"spot"`` (discounted
    #: by the provisioning model's ``spot_multiplier``).  Purely a cost
    #: label — capacity and ring behavior are tier-blind.
    tier: str = "reserved"

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.uplink_bps <= 0:
            raise TopologyError(f"site {self.name!r} needs positive cores and uplink")
        if self.tier not in ("reserved", "spot"):
            raise TopologyError(
                f"site {self.name!r} tier must be 'reserved' or 'spot'"
            )

    @property
    def in_service(self) -> bool:
        """Whether the site currently serves clients (healthy AND active)."""
        return self.healthy and self.active


class NeutralizerFleet:
    """A set of sites plus the consistent-hash ring that spreads clients."""

    def __init__(
        self,
        sites: List[FleetSite],
        *,
        cost_model: Optional[CryptoCostModel] = None,
        replicas: int = 64,
    ) -> None:
        if not sites:
            raise TopologyError("a fleet needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise TopologyError("site names must be unique")
        self.sites = list(sites)
        self.cost_model = cost_model or CryptoCostModel.default()
        self.replicas = replicas
        self._index_by_name: Dict[str, int] = {name: i for i, name in enumerate(names)}
        # One arc table for the whole ring: every site's points are hashed
        # once (through an empty ring, so the hash stays the single source
        # of truth) and sorted once, in service or not.  Arc ``k`` is the
        # hash-space interval ``(points[k-1], points[k]]`` and arc 0 wraps
        # past the last point to the first; a membership change only
        # re-derives each arc's owning site, with no re-hashing or sorting.
        hasher = ConsistentHashRing([], replicas=replicas)
        positions = np.fromiter(
            (hasher._position(f"{name}#{replica}".encode())
             for name in names for replica in range(replicas)),
            dtype=np.uint64, count=len(names) * replicas,
        )
        order = np.argsort(positions, kind="stable")
        #: Every site's ring points, ascending (ties keep site order).
        self.points = positions[order]
        #: The site index (into :attr:`sites`) of each of :attr:`points`.
        self.point_site = order // replicas
        bounds = [int(point) for point in self.points]
        # Arc lengths as exact Python ints: the wrap-around arc of a
        # one-point ring is the whole 2^64 space, which no uint64 holds.
        self._arc_lengths = np.array(
            [(1 << ConsistentHashRing._SPACE_BITS) - bounds[-1] + bounds[0]]
            + [high - low for low, high in zip(bounds, bounds[1:])],
            dtype=object,
        )
        self._ring_object: Optional[ConsistentHashRing] = None
        self._cpu_capacity: Optional[np.ndarray] = None
        self._uplink_capacity: Optional[np.ndarray] = None
        self._service_mask: Optional[np.ndarray] = None
        #: Bumped whenever any site's ``active`` flag flips — unlike
        #: :attr:`generation` this moves even when the ring does not (e.g.
        #: draining an already-failed site), so billing caches can key on it.
        self.active_version = 0
        #: Bumped on every ring rebuild, so cached client assignments and
        #: problem templates know when they are stale.
        self.generation = 0
        self._rebuild_ring()

    @classmethod
    def build(cls, n_sites: int, *, cores: float = 8.0, uplink_bps: float = gbps(10),
              cost_model: Optional[CryptoCostModel] = None,
              replicas: int = 64) -> "NeutralizerFleet":
        """A homogeneous fleet of ``n_sites`` identical sites."""
        sites = [FleetSite(f"site{i:02d}", cores=cores, uplink_bps=uplink_bps)
                 for i in range(n_sites)]
        return cls(sites, cost_model=cost_model, replicas=replicas)

    @classmethod
    def from_deployment(
        cls,
        deployment: NeutralizerDeployment,
        *,
        cores: float = 8.0,
        uplink_bps: float = gbps(10),
        cost_model: Optional[CryptoCostModel] = None,
        replicas: int = 64,
    ) -> "NeutralizerFleet":
        """Mirror a packet-level anycast deployment: one site per deployed box."""
        sites = [FleetSite(name, cores=cores, uplink_bps=uplink_bps)
                 for name in deployment.router_names]
        return cls(sites, cost_model=cost_model, replicas=replicas)

    # -- health and commissioning ----------------------------------------------------

    def _rebuild_ring(self) -> None:
        self._ring_object = None
        self._cpu_capacity = None
        self._uplink_capacity = None
        self._service_mask = None
        serving = np.flatnonzero(self.in_service_mask()[self.point_site])
        if not serving.size:
            raise TopologyError("every site of the fleet is out of service")
        # Each arc belongs to the first in-service point at or after it,
        # wrapping past the last one back to the first.
        successor = np.searchsorted(serving, np.arange(self.points.size))
        successor[successor == serving.size] = 0
        self._arc_owner = self.point_site[serving[successor]]
        self.generation += 1

    @property
    def ring(self) -> ConsistentHashRing:
        """The in-service consistent-hash ring as a full ring object.

        The vectorized paths use the cached position table directly; this
        object form (built lazily, for ``site_for``-style point lookups)
        always agrees with it because both hash the same site names.
        """
        if self._ring_object is None:
            self._ring_object = ConsistentHashRing(
                self.in_service_names, replicas=self.replicas
            )
        return self._ring_object

    def _set_site_state(self, name: str, *, healthy: Optional[bool] = None,
                        active: Optional[bool] = None) -> None:
        """Flip one site's flags, rebuilding the ring only on membership change.

        A drain of an already-failed site (or a recovery of a drained one)
        leaves the in-service set untouched, so cached problem templates stay
        valid and no churn is charged — the ring moves only when a site
        actually enters or leaves service.
        """
        site = self.site(name)
        was_serving = site.in_service
        will_be_healthy = site.healthy if healthy is None else healthy
        will_be_active = site.active if active is None else active
        will_serve = will_be_healthy and will_be_active
        # Refuse before mutating anything: a rejected transition must leave
        # the flags, the ring, and every cached array exactly as they were.
        if was_serving and not will_serve and self.n_in_service == 1:
            raise TopologyError(
                f"refusing to take {name!r} out of service: it is the "
                f"fleet's last serving site"
            )
        if will_be_active != site.active:
            self.active_version += 1
        site.healthy = will_be_healthy
        site.active = will_be_active
        if will_serve != was_serving:
            self._rebuild_ring()

    def ring_snapshot(self):
        """Freeze the current ring state (see :meth:`ConsistentHashRing.snapshot`)."""
        from ..core.anycast import RingSnapshot

        serving = self.in_service_mask()[self.point_site]
        return RingSnapshot(
            positions=tuple(int(p) for p in self.points[serving]),
            owners=tuple(self.sites[i].name for i in self.point_site[serving]),
        )

    def ring_state(self) -> np.ndarray:
        """The owning site index of every arc of :attr:`points`.

        Rebuilds allocate a fresh array, so holding the returned reference
        across a membership change is a valid zero-copy snapshot — the fast
        path timelines use for per-epoch churn accounting (the tuple-based
        :meth:`ring_snapshot` stays for API/diagnostic use).
        """
        return self._arc_owner

    def ring_moved_fraction(self, before: np.ndarray, after: np.ndarray) -> float:
        """Hash-space fraction whose owner differs between two ring states.

        ``before`` and ``after`` are :meth:`ring_state` arrays of this fleet.
        The lengths of the arcs whose owner changed are summed as exact
        Python ints, so the figure equals
        :meth:`repro.core.anycast.RingSnapshot.diff`'s bit for bit, and is
        exactly 1.0 when every arc moves.
        """
        moved = self._arc_lengths[before != after].sum()
        return int(moved) / (1 << ConsistentHashRing._SPACE_BITS)

    def site(self, name: str) -> FleetSite:
        """Look up one site by name."""
        return self.sites[self.index_of_site(name)]

    def index_of_site(self, name: str) -> int:
        """A site's index into :attr:`sites` (stable across failures)."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise TopologyError(
                f"unknown site {name!r}; fleet has {', '.join(self._index_by_name)}"
            ) from None

    def fail_site(self, name: str) -> None:
        """Take a site down; its ring points are withdrawn immediately."""
        self._set_site_state(name, healthy=False)

    def restore_site(self, name: str) -> None:
        """Bring a failed site back; it reclaims exactly its old ring points
        (unless it was drained meanwhile, in which case it stays out)."""
        self._set_site_state(name, healthy=True)

    def drain_site(self, name: str) -> None:
        """Decommission a site voluntarily (autoscaler scale-down)."""
        self._set_site_state(name, active=False)

    def activate_site(self, name: str) -> None:
        """Commission a site (autoscaler scale-up after its warm-up)."""
        self._set_site_state(name, active=True)

    def health_snapshot(self) -> Tuple[Tuple[bool, bool], ...]:
        """Per-site ``(healthy, active)`` flags, in :attr:`sites` order."""
        return tuple((site.healthy, site.active) for site in self.sites)

    def restore_health(self, snapshot: Tuple[Tuple[bool, bool], ...]) -> None:
        """Reset every site's flags to ``snapshot`` (at most one ring rebuild).

        The undo operation for a sequence of failures/recoveries/autoscale
        actions — timeline runs use it to hand the fleet back in its pre-run
        state.
        """
        if len(snapshot) != len(self.sites):
            raise TopologyError("health snapshot does not match the fleet's sites")
        if snapshot == self.health_snapshot():
            return
        before = [site.in_service for site in self.sites]
        for site, (healthy, active) in zip(self.sites, snapshot):
            site.healthy = healthy
            site.active = active
        if [site.in_service for site in self.sites] != before:
            self._rebuild_ring()

    @property
    def healthy_site_names(self) -> List[str]:
        """Names of healthy sites (failed excluded; drained ones included)."""
        return [site.name for site in self.sites if site.healthy]

    @property
    def in_service_names(self) -> List[str]:
        """Names of sites currently in the ring (healthy AND active)."""
        return [site.name for site in self.sites if site.in_service]

    def in_service_mask(self) -> np.ndarray:
        """Boolean per-site in-service flags, in :attr:`sites` order.

        Cached per ring state (like the capacity arrays) — treat as
        read-only.
        """
        if self._service_mask is None:
            self._service_mask = np.array(
                [site.in_service for site in self.sites], dtype=bool
            )
        return self._service_mask

    @property
    def n_in_service(self) -> int:
        """Number of sites currently serving."""
        return int(self.in_service_mask().sum())

    # -- vectorized assignment -------------------------------------------------------

    def assign_sites(self, ring_positions: np.ndarray) -> np.ndarray:
        """Map client ring positions to site indices (into :attr:`sites`).

        The successor lookup of :meth:`ConsistentHashRing.site_for`, done for
        the whole population at once: one ``searchsorted`` finds each
        client's arc (wrapping past the last point to arc 0), whose owner is
        the client's site.
        """
        arcs = np.searchsorted(self.points, ring_positions, side="left")
        arcs[arcs == self.points.size] = 0
        return self._arc_owner[arcs]

    def arcs_of_sorted(self, positions_sorted: np.ndarray) -> np.ndarray:
        """The arc index of each of ``positions_sorted`` (ascending).

        The same arcs :meth:`assign_sites` looks up, found from the other
        side: with the clients sorted, arc ``k``'s clients are the slice
        between the cuts of ``points[k-1]`` and ``points[k]``, and the
        clients past the last point wrap into arc 0 — O(points log n)
        searches plus one ``repeat``, instead of a search per client.
        """
        cuts = np.searchsorted(positions_sorted, self.points, side="right")
        return np.repeat(np.append(np.arange(self.points.size), 0),
                         np.diff(cuts, prepend=0, append=positions_sorted.size))

    # -- capacity --------------------------------------------------------------------

    @property
    def n_sites(self) -> int:
        """Number of sites, healthy or not (indices are stable across failures)."""
        return len(self.sites)

    def cpu_capacity_cores(self) -> np.ndarray:
        """Per-site CPU budget in cores (zero when failed or drained).

        Cached per ring state and rebuilt lazily; epoch loops call this
        every step, so treat the returned array as read-only.
        """
        if self._cpu_capacity is None:
            self._cpu_capacity = np.array(
                [site.cores if site.in_service else 0.0 for site in self.sites],
                dtype=np.float64,
            )
        return self._cpu_capacity

    def uplink_capacity_bps(self) -> np.ndarray:
        """Per-site uplink budget in bits/s (zero when failed or drained).

        Cached per ring state, like :meth:`cpu_capacity_cores`.
        """
        if self._uplink_capacity is None:
            self._uplink_capacity = np.array(
                [site.uplink_bps if site.in_service else 0.0 for site in self.sites],
                dtype=np.float64,
            )
        return self._uplink_capacity

    def data_capacity_pps(self) -> np.ndarray:
        """Per-site data-path forwarding budget in packets/s."""
        return self.cpu_capacity_cores() / self.cost_model.data_packet_cost_seconds

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        serving = self.in_service_names
        per_site = self.cost_model.data_packets_per_second(self.sites[0].cores)
        return (
            f"fleet of {len(self.sites)} sites ({len(serving)} in service), "
            f"~{per_site:,.0f} pkt/s per site data path"
        )
