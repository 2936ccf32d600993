import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmac.config import ChannelConfig, UserSpec
from hetmac.errors import ConstellationTooLargeError, UnsupportedOrderError
from hetmac.pipeline import BitAllocation
from hetmac.signaling import (
    Constellation,
    build_scheme,
    minkowski_sum,
    regular_qam,
    schemes_identical,
    superimpose,
    verify_lemma2,
    write_constellation_csv,
)

import oracles

SQRT3 = math.sqrt(3.0)


def two_user_cfg():
    return ChannelConfig.from_users(
        [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
    )


def _is_iq_product(pts: np.ndarray) -> bool:
    """True when the distinct points are every (real, imaginary) pairing."""
    distinct = np.unique(pts)
    return np.unique(distinct.real).size * np.unique(distinct.imag).size == distinct.size


class TestRegularQam:
    def test_qpsk(self):
        c = regular_qam(2, 1.0)
        assert c.cardinality == 4
        expected = np.array([-0.5 - 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 0.5j])
        assert np.allclose(np.sort_complex(c.points), np.sort_complex(expected))
        assert c.avg_energy == pytest.approx(0.5)

    def test_16qam_energy(self):
        assert regular_qam(4, 1.0).avg_energy == pytest.approx(15 / 6)

    def test_scaling_quadruples_energy(self):
        assert regular_qam(2, 2.0).avg_energy == pytest.approx(2.0)

    @pytest.mark.parametrize("order", [2, 4, 6, 8])
    def test_energy_formula_and_dmin(self, order):
        c = regular_qam(order, 0.7)
        assert c.dmin == pytest.approx(0.7)
        assert c.avg_energy == pytest.approx(
            np.mean(np.abs(c.points) ** 2), rel=1e-12
        )
        assert abs(np.mean(c.points)) < 1e-12

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_odd_order_rejected(self, order):
        with pytest.raises(UnsupportedOrderError):
            regular_qam(order, 1.0)


class TestMinDistance:
    def test_qpsk(self):
        assert regular_qam(2, 1.0).dmin == pytest.approx(1.0)

    def test_two_layer_ladder_keeps_unit_distance(self):
        base = regular_qam(2, 1.0).rail
        ladder = Constellation((base[:, None] + 2.0 * base[None, :]).ravel())
        assert ladder.cardinality == 16
        assert ladder.dmin == pytest.approx(1.0)

    def test_large_grid_takes_rail_gaps(self):
        c = regular_qam(12, 1.0)  # 4096 points, an I/Q grid
        assert c.dmin == pytest.approx(1.0)


class TestBuildScheme:
    @pytest.mark.parametrize(
        "m, scheme_type, expected",
        [
            (((6,), (2, 4)), 1, {(0, 0): 1.0, (1, 0): 0.189, (1, 1): 1.0}),
            (((6,), (2, 4)), 2, {(0, 0): 1.0, (1, 0): 0.783, (1, 1): 1.0}),
            (((4,), (4, 4)), 1, {(0, 0): 1.0, (1, 0): 0.991, (1, 1): 1.0}),
            (((2,), (4, 4)), 1, {(0, 0): 0.202, (1, 0): 1.0, (1, 1): 1.0}),
        ],
    )
    def test_power_ratios(self, m, scheme_type, expected):
        sig = build_scheme(two_user_cfg(), BitAllocation(m=m, scheme_type=scheme_type))
        for key, val in expected.items():
            assert sig.zeta[key] == pytest.approx(val, abs=1e-3)

    def test_silent_subblock_conventions(self):
        cfg = two_user_cfg()
        # user 2 silent in sub-block 1 but active in sub-block 2
        sig_b = build_scheme(cfg, BitAllocation(m=((8,), (0, 4))))
        assert sig_b.zeta[(1, 0)] == 1.0
        # user 2 entirely silent
        sig_a = build_scheme(cfg, BitAllocation(m=((8,), (0, 0))))
        assert sig_a.zeta[(1, 0)] == 0.0
        assert sig_a.zeta[(1, 1)] == 0.0

    def test_single_user_full_power(self):
        cfg = ChannelConfig.from_users([UserSpec(10 * math.log10(64.0), 100, 1e-4)])
        sig = build_scheme(cfg, BitAllocation(m=((6,),)))
        assert sig.constellations[(0, 0)].avg_energy == pytest.approx(cfg.P[0])
        assert sig.zeta[(0, 0)] == pytest.approx(1.0)

    def test_power_budget_never_exceeded(self):
        cfg = two_user_cfg()
        for m in [((8,), (0, 4)), ((6,), (2, 4)), ((4,), (4, 4)), ((2,), (4, 4))]:
            for scheme_type in (1, 2):
                sig = build_scheme(cfg, BitAllocation(m=m, scheme_type=scheme_type))
                for (k, _), c in sig.constellations.items():
                    assert c.avg_energy <= cfg.P[k] * (1 + 1e-12)

    def test_energy_table_bound(self):
        rng = random.Random(8)
        for _ in range(30):
            cfg, alloc = _random_even_scenario(rng)
            sig = build_scheme(cfg, alloc)
            for (k, l), energy in sig.energies.items():
                assert energy <= 2.0 ** cfg.n[l] / 3.0 + 1e-9

    def test_zeta_quarter_bound_at_region_boundary(self):
        rng = random.Random(21)
        count = 0
        for _ in range(40):
            cfg, alloc = _random_even_scenario(rng, tight=True)
            sig = build_scheme(cfg, alloc)
            for (k, l), z in sig.zeta.items():
                if alloc.m[k][l] > 0:
                    count += 1
                    assert z >= 0.25 - 1e-12
        assert count > 0

    def test_infeasible_allocation_rejected(self):
        from hetmac.errors import InfeasibleAllocationError

        with pytest.raises(InfeasibleAllocationError):
            build_scheme(two_user_cfg(), BitAllocation(m=((8,), (2, 4))))

    def test_scheme_identity_matches_reference_points(self):
        cfg = two_user_cfg()
        same = {"A": ((8,), (0, 0)), "B": ((8,), (0, 4)), "E": ((4,), (4, 4)),
                "F": ((2,), (4, 4)), "G": ((0,), (4, 4))}
        for m in same.values():
            s1 = build_scheme(cfg, BitAllocation(m=m, scheme_type=1))
            s2 = build_scheme(cfg, BitAllocation(m=m, scheme_type=2))
            assert schemes_identical(s1, s2)
        s1 = build_scheme(cfg, BitAllocation(m=((6,), (2, 4)), scheme_type=1))
        s2 = build_scheme(cfg, BitAllocation(m=((6,), (2, 4)), scheme_type=2))
        assert not schemes_identical(s1, s2)


class TestSuperimpose:
    def test_full_allocation_is_regular_grid(self):
        cfg = two_user_cfg()
        sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))
        sup = superimpose(sig, cfg, 0)
        assert sup.cardinality == 256
        assert sup.dmin >= SQRT3 - 1e-9

    def test_single_user_component(self):
        cfg = two_user_cfg()
        sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))
        sup = superimpose(sig, cfg, 1)
        own = sig.constellations[(1, 1)]
        assert sup.cardinality == own.cardinality
        assert np.allclose(
            np.sort_complex(sup.points), np.sort_complex(own.points * cfg.h[1])
        )

    def test_cardinality_is_product_when_no_collisions(self):
        cfg = two_user_cfg()
        sig = build_scheme(cfg, BitAllocation(m=((6,), (2, 4))))
        sup = superimpose(sig, cfg, 0)
        assert sup.cardinality == 2**8

    def test_point_cap(self):
        cfg = two_user_cfg()
        sig = build_scheme(cfg, BitAllocation(m=((4,), (4, 4))))
        with pytest.raises(ConstellationTooLargeError):
            superimpose(sig, cfg, 0, point_cap=100)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_built_alphabets_are_iq_products(self, seed, scheme_type):
        # Constellation holds an alphabet by its rail, which needs every
        # 2-D alphabet to be a grid
        cfg, alloc = _random_even_scenario(random.Random(seed), max_total=12)
        sig = build_scheme(cfg, BitAllocation(m=alloc.m, scheme_type=scheme_type))
        for key in sig.parts:
            assert _is_iq_product(sig.transmit_points(*key)), key
        for l in range(cfg.users):
            assert _is_iq_product(_receive_points_2d(sig, cfg, l)), l

    @pytest.mark.parametrize("scheme_type", [1, 2])
    def test_randomized_distance_guarantee(self, scheme_type):
        rng = random.Random(99)
        for _ in range(25):
            cfg, alloc = _random_even_scenario(rng, max_total=12, distinct=True)
            sig = build_scheme(
                cfg, BitAllocation(m=alloc.m, scheme_type=scheme_type)
            )
            for l in range(cfg.users):
                if sum(alloc.m[k][l] for k in range(l, cfg.users)) == 0:
                    continue
                sup = superimpose(sig, cfg, l)
                if sup.cardinality >= 2:
                    assert sup.dmin >= SQRT3 - 1e-9


class TestRailConstellations:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rails_match_2d_geometry(self, seed):
        cfg, alloc = _random_even_scenario(random.Random(seed), max_total=12)
        s1, s2 = (
            build_scheme(cfg, BitAllocation(m=alloc.m, scheme_type=t)) for t in (1, 2)
        )
        for sig in (s1, s2):
            pairs = [(sig.constellations[key], sig.transmit_points(*key)) for key in sig.parts]
            pairs += [
                (superimpose(sig, cfg, l), _receive_points_2d(sig, cfg, l))
                for l in range(cfg.users)
            ]
            for const, pts in pairs:
                expected = oracles.constellation_points_2d(pts)
                assert np.array_equal(const.points.view(np.float64), expected.view(np.float64))
                assert const.cardinality == expected.size
                if 2 <= expected.size <= 4096:
                    assert const.dmin == oracles.min_distance_bruteforce(expected)
                assert const.avg_energy == pytest.approx(
                    np.mean(np.abs(expected) ** 2), rel=1e-12
                )
        assert schemes_identical(s1, s2) == oracles.schemes_identical_2d(s1, s2)


class TestLemma2:
    def test_two_qpsk_layers(self):
        verdict = verify_lemma2([2, 2], 1.0)
        assert verdict.passed
        assert verdict.constellation.cardinality == 16

    def test_three_layers(self):
        verdict = verify_lemma2([2, 2, 2], 1.0)
        assert verdict.passed
        assert verdict.constellation.cardinality == 64

    def test_single_layer_returns_input(self):
        verdict = verify_lemma2([4], 2.0)
        assert verdict.passed
        assert verdict.constellation.cardinality == 16
        assert verdict.constellation.dmin == pytest.approx(2.0)

    def test_budget(self):
        with pytest.raises(ConstellationTooLargeError):
            verify_lemma2([8, 8, 4], 1.0, budget_bits=16)


def test_csv_export(tmp_path):
    c = regular_qam(2, 1.0)
    path = tmp_path / "points.csv"
    write_constellation_csv(c, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 5
    values = {tuple(float(x) for x in ln.split(",")) for ln in lines[1:]}
    assert (0.5, 0.5) in values


def _receive_points_2d(sig, cfg, l):
    """2-D receive alphabet of component l with multiplicity."""
    return minkowski_sum(sig.transmit_points(k, l) * cfg.h[k] for k in range(l, cfg.users))


def _random_even_scenario(rng: random.Random, max_total: int = 12, tight: bool = False,
                          distinct: bool = True):
    """Random sorted channel with even level gaps plus a feasible even allocation."""
    users = rng.randint(1, 3)
    levels = []
    level = rng.choice([2, 4])
    for _ in range(users):
        levels.append(level)
        level += rng.choice([2, 4]) if distinct else rng.choice([0, 2])
    levels = sorted(levels, reverse=True)
    specs = []
    for i, n in enumerate(levels):
        # snr chosen strictly inside (2^(n-1), 2^n] so the level comes out exactly n
        snr_db = 10 * math.log10(2 ** (n - 0.3 - 0.2 * rng.random()))
        specs.append(UserSpec(snr_db, 100 + 50 * i, 1e-5))
    cfg = ChannelConfig.from_users(specs)
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            cap = cfg.n[k] - tail
            cap = min(cap, max_total - tail)
            if tight:
                v = cap - (cap % 2)
            else:
                v = rng.randrange(0, cap + 1, 2) if cap >= 0 else 0
            m[k][l] = max(0, v)
            tail += m[k][l]
    return cfg, BitAllocation(m=tuple(tuple(r) for r in m))
