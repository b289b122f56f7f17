"""Population vectors, demand classes, and consistent-hash fleet assignment."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TopologyError, WorkloadError
from repro.scale import (
    ClientPopulation,
    CryptoCostModel,
    DemandClass,
    FleetSite,
    NeutralizerFleet,
    PopulationMix,
    default_mix,
    voip_class,
)
from repro.scale.population import neutralized_wire_bytes


class TestDemandClasses:
    def test_voip_class_matches_apps_codec(self):
        voip = voip_class()
        # 20 ms frames → 50 packets/s, 160-byte payload plus wire overhead.
        assert voip.packets_per_second == pytest.approx(50.0)
        assert voip.packet_bytes == neutralized_wire_bytes(160)

    def test_wire_overhead_exceeds_plain_udp(self):
        # The shim adds the epoch/nonce/address/tag fields on top of IP+UDP.
        assert neutralized_wire_bytes(100) > 20 + 8 + 100

    def test_invalid_class_rejected(self):
        with pytest.raises(WorkloadError):
            DemandClass(name="bad", packets_per_second=0.0, packet_bytes=100)
        with pytest.raises(WorkloadError):
            DemandClass(name="bad", packets_per_second=1.0, packet_bytes=100, duty_cycle=1.5)

    def test_mix_fractions_must_sum_to_one(self):
        with pytest.raises(WorkloadError):
            PopulationMix(classes=(voip_class(),), fractions=(0.5,))


class TestPopulation:
    def test_deterministic_from_seed(self):
        one = ClientPopulation(5_000, seed=42)
        two = ClientPopulation(5_000, seed=42)
        assert np.array_equal(one.class_index, two.class_index)
        assert np.array_equal(one.region_index, two.region_index)
        assert np.array_equal(one.ring_positions, two.ring_positions)
        other = ClientPopulation(5_000, seed=43)
        assert not np.array_equal(one.class_index, other.class_index)

    def test_mix_fractions_respected(self):
        population = ClientPopulation(50_000, seed=1)
        fractions = population.class_counts() / population.n_clients
        for measured, expected in zip(fractions, default_mix().fractions):
            assert measured == pytest.approx(expected, abs=0.02)

    def test_group_counts_cover_every_client(self):
        population = ClientPopulation(10_000, regions=4, seed=9)
        fleet = NeutralizerFleet.build(5)
        sites = fleet.assign_sites(population.ring_positions)
        counts = population.group_counts(sites, fleet.n_sites)
        assert counts.shape == (4, population.n_classes, 5)
        assert counts.sum() == population.n_clients
        # The marginals are counted once per population and shared read-only.
        for marginal, axes in ((population.region_counts, (1, 2)),
                               (population.class_counts, (0, 2))):
            assert np.array_equal(marginal(), counts.sum(axis=axes))
            assert marginal() is marginal()
            with pytest.raises(ValueError):
                marginal()[0] = 0

    def test_empty_population_rejected(self):
        with pytest.raises(WorkloadError):
            ClientPopulation(0)


class TestFleet:
    def test_assignment_matches_scalar_ring_lookup(self):
        fleet = NeutralizerFleet.build(4)
        population = ClientPopulation(300, seed=3)
        assigned = fleet.assign_sites(population.ring_positions)
        for position, site_index in zip(population.ring_positions[:50], assigned[:50]):
            expected = fleet.ring.site_for(int(position).to_bytes(8, "big"))
            # site_for hashes its key; compare via the ring table instead.
            positions, owners = fleet.ring.table()
            slot = np.searchsorted(np.asarray(positions, dtype=np.uint64), position)
            if slot == len(positions):
                slot = 0
            assert fleet.sites[site_index].name == owners[slot]
            assert expected in [site.name for site in fleet.sites]

    def test_assignment_is_roughly_balanced(self):
        fleet = NeutralizerFleet.build(8, replicas=128)
        population = ClientPopulation(80_000, seed=11)
        counts = np.bincount(fleet.assign_sites(population.ring_positions), minlength=8)
        assert counts.min() > 0.4 * counts.mean()
        assert counts.max() < 2.0 * counts.mean()

    def test_failover_moves_only_failed_sites_clients(self):
        fleet = NeutralizerFleet.build(6)
        population = ClientPopulation(20_000, seed=13)
        before = fleet.assign_sites(population.ring_positions)
        fleet.fail_site("site02")
        after = fleet.assign_sites(population.ring_positions)
        failed_index = [site.name for site in fleet.sites].index("site02")
        moved = before != after
        assert (before[moved] == failed_index).all()
        assert failed_index not in after
        # Restoring brings exactly the old assignment back.
        fleet.restore_site("site02")
        assert np.array_equal(fleet.assign_sites(population.ring_positions), before)

    def test_capacity_reflects_health(self):
        fleet = NeutralizerFleet.build(3, cores=4.0)
        assert fleet.data_capacity_pps().sum() == pytest.approx(
            3 * fleet.cost_model.data_packets_per_second(4.0)
        )
        fleet.fail_site("site01")
        assert fleet.data_capacity_pps()[1] == 0.0

    def test_all_sites_down_rejected(self):
        fleet = NeutralizerFleet.build(1)
        with pytest.raises(TopologyError):
            fleet.fail_site("site00")

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(TopologyError):
            NeutralizerFleet([FleetSite("a"), FleetSite("a")])

    def test_unknown_site_name_rejected(self):
        fleet = NeutralizerFleet.build(2)
        with pytest.raises(TopologyError, match="unknown site"):
            fleet.fail_site("site99")


class TestCostModel:
    def test_capacity_scales_with_cores(self):
        model = CryptoCostModel.default()
        assert model.data_packets_per_second(8.0) == pytest.approx(
            8 * model.data_packets_per_second(1.0)
        )

    def test_data_path_is_cheaper_than_key_setup(self):
        # The paper's design point: per-packet symmetric work must cost far
        # less than the per-source RSA encryption.
        model = CryptoCostModel.default()
        assert model.data_packet_cost_seconds < model.key_setup_cost_seconds

    def test_scaled_speeds_everything_up(self):
        model = CryptoCostModel.default()
        faster = model.scaled(2.0)
        assert faster.data_packets_per_second() == pytest.approx(
            2 * model.data_packets_per_second()
        )

    def test_calibrated_measures_positive_rates(self):
        model = CryptoCostModel.calibrated(iterations=20)
        assert model.aes_blocks_per_second > 0
        assert model.rsa512_encryptions_per_second > 0
        assert model.data_packet_cost_seconds > 0


# Hypothesis strategies for the arc-table oracles: small random fleets with
# some sites out of service (down to one serving site), and client positions
# that include the ring's own points, their neighbours, and both ends of the
# 2^64 space (0 and past the last point).
_SPACE_MAX = (1 << 64) - 1


@st.composite
def _fleets(draw, min_sites=1):
    names = draw(st.lists(st.text("abcxyz0123456789#", min_size=1, max_size=5),
                          min_size=min_sites, max_size=6, unique=True))
    fleet = NeutralizerFleet([FleetSite(name) for name in names],
                             replicas=draw(st.integers(1, 12)))
    serving = draw(st.lists(st.booleans(), min_size=len(names),
                            max_size=len(names)).filter(any))
    for name, keep in zip(names, serving):
        if not keep:
            getattr(fleet, draw(st.sampled_from(["fail_site", "drain_site"])))(name)
    return fleet


@st.composite
def _positions(draw, fleet, min_size=1):
    points = [int(point) for point in fleet.points]
    crafted = st.sampled_from(points).flatmap(
        lambda p: st.sampled_from([p, max(p - 1, 0), min(p + 1, _SPACE_MAX)]))
    ends = st.sampled_from([0, 1, max(points) + 1 if max(points) < _SPACE_MAX
                            else _SPACE_MAX, _SPACE_MAX])
    values = draw(st.lists(st.one_of(st.integers(0, _SPACE_MAX), crafted, ends),
                           min_size=min_size, max_size=60))
    return np.array(values, dtype=np.uint64)


_ORACLE_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                            suppress_health_check=[HealthCheck.too_slow])


class TestArcTable:
    """The fleet's arc table against the scalar ring, exactly."""

    @_ORACLE_SETTINGS
    @given(data=st.data())
    def test_assign_sites_matches_scalar_ring(self, data):
        fleet = data.draw(_fleets())
        ring = fleet.ring
        keys = data.draw(st.lists(st.binary(max_size=8), min_size=1, max_size=20))
        hashed = np.array([ring.key_position(key) for key in keys], dtype=np.uint64)
        assert [fleet.sites[i].name for i in fleet.assign_sites(hashed)] == [
            ring.site_for(key) for key in keys]
        positions = data.draw(_positions(fleet))
        snapshot = ring.snapshot()
        assert [fleet.sites[i].name for i in fleet.assign_sites(positions)] == [
            snapshot.owner_at(int(position)) for position in positions]
        ascending = np.sort(positions)
        assert np.array_equal(fleet.ring_state()[fleet.arcs_of_sorted(ascending)],
                              fleet.assign_sites(ascending))

    def test_points_are_sorted_once_for_every_site(self):
        fleet = NeutralizerFleet.build(5, replicas=8)
        points = fleet.points
        fleet.fail_site("site01")
        fleet.drain_site("site03")
        assert fleet.points is points  # membership changes never re-sort
        assert (np.diff(points.astype(object)) >= 0).all()
        assert np.bincount(fleet.point_site, minlength=5).tolist() == [8] * 5
        assert set(fleet.ring_state()) == {0, 2, 4}

    def test_ring_sorted_is_cached_and_consistent(self):
        population = ClientPopulation(1_000, seed=5)
        first = population.ring_sorted()
        second = population.ring_sorted()
        assert first[0] is second[0]  # same arrays, not recomputed
        assert (np.diff(first[0].astype(object)) >= 0).all()
        order = np.argsort(population.ring_positions, kind="stable")
        region_class = (population.region_index * population.n_classes
                        + population.class_index)
        assert np.array_equal(first[1], region_class[order])


class TestIncrementalTemplate:
    """rebuilt() must be indistinguishable from building from scratch."""

    @staticmethod
    def assert_equivalent(incremental, fresh):
        # Both agree with the brute-force per-client count...
        population, fleet = fresh.population, fresh.fleet
        brute = population.group_counts(
            fleet.assign_sites(population.ring_positions), fleet.n_sites)
        assert np.array_equal(fresh.counts3d, brute)
        # ...and with each other, array for array.
        assert np.array_equal(incremental.arc_counts, fresh.arc_counts)
        assert np.array_equal(incremental.arc_owner, fresh.arc_owner)
        assert np.array_equal(incremental.counts3d, fresh.counts3d)
        assert np.array_equal(incremental.clients_per_site, fresh.clients_per_site)
        assert np.array_equal(incremental.group_clients, fresh.group_clients)
        assert np.array_equal(incremental.region_of, fresh.region_of)
        assert np.array_equal(incremental.class_of, fresh.class_of)
        assert np.array_equal(incremental.site_of, fresh.site_of)
        assert np.array_equal(incremental.usage, fresh.usage)

    def test_rebuild_after_failure_and_recovery(self):
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        population = ClientPopulation(25_000, seed=23)
        fleet = NeutralizerFleet.build(8)
        scenario = ScaleScenario(population, fleet)
        original = scenario.build_template()

        fleet.fail_site("site05")
        incremental = scenario.build_template()
        fresh = ProblemTemplate.build(
            population, fleet, region_uplink_bps=scenario.region_uplink_bps
        )
        self.assert_equivalent(incremental, fresh)
        # Exactly the failed site's clients moved.
        assert incremental.remapped_from_parent == original.clients_per_site[5]
        assert incremental.clients_per_site[5] == 0

        fleet.restore_site("site05")
        restored = scenario.build_template()
        self.assert_equivalent(restored, original)
        assert restored.remapped_from_parent == incremental.remapped_from_parent

    def test_payload_nbytes_counts_the_template_arrays(self):
        from repro.scale.scenario import ScaleScenario

        population = ClientPopulation(10_000, seed=23)
        template = ScaleScenario(population, NeutralizerFleet.build(6)).build_template()
        expected = sum(
            a.nbytes
            for a in (
                template.arc_counts, template.arc_owner, template.counts3d,
                template.clients_per_site, template.region_of,
                template.class_of, template.site_of, template.group_clients,
                template.base_demands, template.bits_per_packet,
                template.base_setups_per_flow, template.usage,
                *template.class_members,
            )
        )
        if template.elastic_flows is not None:
            expected += template.elastic_flows.nbytes
        if template.flow_alpha is not None:
            expected += template.flow_alpha.nbytes
        assert template.payload_nbytes == expected > 0
        # The footprint is per-flow/per-site state, not O(n_clients): the
        # parallel engine keeps the population in shared memory precisely
        # because the per-worker template cache stays small beside it.
        assert template.payload_nbytes < population.class_index.nbytes * 8

    def test_rebuild_through_many_membership_changes(self):
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        population = ClientPopulation(12_000, seed=29)
        fleet = NeutralizerFleet.build(10)
        scenario = ScaleScenario(population, fleet)
        scenario.build_template()
        for action, name in [
            ("fail", "site02"), ("fail", "site07"), ("drain", "site04"),
            ("restore", "site02"), ("activate", "site04"), ("drain", "site09"),
            ("restore", "site07"),
        ]:
            getattr(fleet, {"fail": "fail_site", "restore": "restore_site",
                            "drain": "drain_site", "activate": "activate_site"}[action])(name)
            incremental = scenario.build_template()
            fresh = ProblemTemplate.build(
                population, fleet, region_uplink_bps=scenario.region_uplink_bps
            )
            self.assert_equivalent(incremental, fresh)
        assert population.n_clients == incremental.counts3d.sum()

    @_ORACLE_SETTINGS
    @given(data=st.data())
    def test_rebuilt_after_random_walk_matches_fresh_build(self, data):
        from repro.scale.scenario import ProblemTemplate, ScaleScenario

        fleet = data.draw(_fleets(min_sites=2))
        positions = data.draw(_positions(fleet, min_size=20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        regions = data.draw(st.integers(1, 3))
        population = ClientPopulation.from_arrays(
            mix=None, regions=regions, seed=0,
            class_index=rng.integers(0, 3, positions.size).astype(np.int32),
            region_index=rng.integers(0, regions, positions.size).astype(np.int32),
            ring_positions=positions,
        )
        scenario = ScaleScenario(population, fleet)
        template = scenario.build_template()
        walk = data.draw(st.lists(
            st.tuples(st.sampled_from(["fail_site", "restore_site",
                                       "drain_site", "activate_site"]),
                      st.sampled_from([site.name for site in fleet.sites])),
            max_size=12))
        for method, name in walk:
            before = fleet.assign_sites(positions)
            try:
                getattr(fleet, method)(name)
            except TopologyError:  # the last serving site stays in service
                continue
            successor = scenario.build_template()
            fresh = ProblemTemplate.build(
                population, fleet, region_uplink_bps=scenario.region_uplink_bps
            )
            self.assert_equivalent(successor, fresh)
            moved = int((fleet.assign_sites(positions) != before).sum())
            if successor is template:
                assert moved == 0
            else:
                assert successor.remapped_from_parent == moved
            template = successor


class TestDrainLifecycle:
    def test_drained_site_leaves_the_ring_and_capacity(self):
        fleet = NeutralizerFleet.build(4, cores=2.0)
        generation = fleet.generation
        fleet.drain_site("site03")
        assert fleet.generation == generation + 1
        assert "site03" not in fleet.in_service_names
        assert "site03" in fleet.healthy_site_names  # drained, not failed
        assert fleet.cpu_capacity_cores()[3] == 0.0
        fleet.activate_site("site03")
        assert "site03" in fleet.in_service_names

    def test_drain_while_failed_does_not_touch_the_ring(self):
        fleet = NeutralizerFleet.build(4)
        fleet.fail_site("site01")
        generation = fleet.generation
        state = fleet.ring_state()
        fleet.drain_site("site01")  # already out of the ring: no rebuild
        assert fleet.generation == generation
        assert fleet.ring_moved_fraction(state, fleet.ring_state()) == 0.0
        # Recovery of a drained site must NOT rejoin the ring...
        fleet.restore_site("site01")
        assert fleet.generation == generation
        assert "site01" not in fleet.in_service_names
        # ...until it is explicitly re-activated.
        fleet.activate_site("site01")
        assert fleet.generation == generation + 1
        assert "site01" in fleet.in_service_names

    def test_last_serving_site_cannot_be_drained(self):
        fleet = NeutralizerFleet.build(2)
        fleet.drain_site("site01")
        with pytest.raises(TopologyError):
            fleet.drain_site("site00")

    def test_health_snapshot_round_trips_both_flags(self):
        fleet = NeutralizerFleet.build(4)
        snapshot = fleet.health_snapshot()
        fleet.fail_site("site00")
        fleet.drain_site("site02")
        assert fleet.health_snapshot() != snapshot
        fleet.restore_health(snapshot)
        assert fleet.health_snapshot() == snapshot
        assert fleet.in_service_names == [f"site{i:02d}" for i in range(4)]

    def test_moved_fraction_matches_snapshot_diff(self):
        fleet = NeutralizerFleet.build(6)
        before_state = fleet.ring_state()
        before_snapshot = fleet.ring_snapshot()
        fleet.fail_site("site04")
        fast = fleet.ring_moved_fraction(before_state, fleet.ring_state())
        slow = before_snapshot.diff(fleet.ring_snapshot()).moved_fraction
        assert fast == slow
        assert fast > 0

    def test_moved_fraction_is_exactly_one_when_every_arc_moves(self):
        # Every arc's length summed is 2^64, which a uint64 sum wraps to 0.
        fleet = NeutralizerFleet([FleetSite("A"), FleetSite("B", active=False)])
        before_state = fleet.ring_state()
        before_snapshot = fleet.ring_snapshot()
        fleet.activate_site("B")
        fleet.drain_site("A")
        assert fleet.ring_moved_fraction(before_state, fleet.ring_state()) == 1.0
        assert before_snapshot.diff(fleet.ring_snapshot()).moved_fraction == 1.0
