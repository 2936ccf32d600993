import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hetmac import detmac, pipeline
from hetmac.config import ChannelConfig, UserSpec
from hetmac.detmac import allocation_feasible
from hetmac.errors import EnumerationTooLargeError
from hetmac.pipeline import (
    BitAllocation,
    enumerate_allocations,
    select_code_params,
)
from hetmac.signaling import Constellation, build_scheme

from oracles import enumerate_tables_brute


def _flat(m):
    return [v for row in m for v in row]


def two_user():
    return ChannelConfig.from_users(
        [UserSpec(24.0, 128, 1e-6), UserSpec(12.0, 200, 1e-5)]
    )


def with_levels(*levels):
    """The channel whose users have these bit levels, strongest first."""
    cfg = ChannelConfig.from_users(
        [UserSpec(10 * math.log10(2.0**b), 100 + 50 * i, 1e-4) for i, b in enumerate(levels)]
    )
    assert cfg.n == levels
    return cfg


# 1 to 4 users at both even_only values: enumerate_allocations builds these
# tables from their columns, and they must look exactly like validated ones
ENUMERATED = [
    pytest.param(levels, even_only, id=f"{len(levels)}u-{'even' if even_only else 'all'}")
    for levels in [(6,), (6, 4), (5, 3, 2), (4, 3, 2, 1)]
    for even_only in (True, False)
]


class TestDeriveN:
    def test_reference_levels(self):
        assert two_user().n == (8, 4)

    def test_clamped_at_zero(self):
        cfg = ChannelConfig.from_users([UserSpec(-3.0, 100, 1e-4)])
        assert cfg.n == (0,)

    def test_exact_power_of_two(self):
        cfg = ChannelConfig.from_users([UserSpec(10 * math.log10(256.0), 100, 1e-4)])
        assert cfg.n == (8,)


class TestEnumerate:
    def test_reference_pairs_present(self):
        allocs = enumerate_allocations(two_user(), even_only=True)
        flat = {a.m for a in allocs}
        for m1, m21 in [(8, 0), (6, 2), (4, 4), (2, 4), (0, 4)]:
            assert ((m1,), (m21, 4)) in flat

    def test_single_user_even(self):
        cfg = ChannelConfig.from_users([UserSpec(10 * math.log10(60.0), 100, 1e-4)])
        assert cfg.n == (6,)
        allocs = enumerate_allocations(cfg, even_only=True)
        assert {a.m[0][0] for a in allocs} == {0, 2, 4, 6}

    def test_zero_level_only_silent(self):
        cfg = ChannelConfig.from_users([UserSpec(-1.0, 100, 1e-4)])
        allocs = enumerate_allocations(cfg, even_only=False)
        assert [a.m for a in allocs] == [((0,),)]

    def test_lexicographic_order(self):
        allocs = enumerate_allocations(two_user(), even_only=True)
        flats = [_flat(a.m) for a in allocs]
        assert flats == sorted(flats)

    def test_no_table_is_validated_again(self, monkeypatch):
        calls = []
        validate = BitAllocation.__post_init__

        def counting(alloc):
            calls.append(alloc.m)
            validate(alloc)

        monkeypatch.setattr(BitAllocation, "__post_init__", counting)
        allocs = enumerate_allocations(with_levels(12, 8, 4), even_only=True)
        assert len(allocs) == 1980 and calls == []
        # the counter does see a table from anywhere else
        BitAllocation(m=allocs[-1].m)
        assert calls == [allocs[-1].m]

    def test_columns_come_from_the_binding_tail(self, monkeypatch):
        # enumeration holds no tail-sum rule of its own: under a stricter rule, two
        # bits less on every tail, it lists exactly the tables that rule admits
        true_tail = detmac._binding_tail

        def stricter(n, m_col, l):
            first, load, capacity = true_tail(n, m_col, l)
            return first, load, capacity - 2

        monkeypatch.setattr(detmac, "_binding_tail", stricter)
        cfg = with_levels(5, 3, 2)
        for even_only in (True, False):
            region = enumerate_tables_brute(cfg.n, even_only)
            admitted = [m for m in region if detmac.allocation_feasible(cfg.n, BitAllocation(m))]
            assert 0 < len(admitted) < len(region)
            got = [a.m for a in enumerate_allocations(cfg, even_only=even_only)]
            assert got == sorted(admitted, key=_flat)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(pipeline, "DEFAULT_ENUMERATION_CAP", 10)
        with pytest.raises(EnumerationTooLargeError):
            enumerate_allocations(two_user(), even_only=False)

    @pytest.mark.parametrize("even_only", [True, False])
    def test_matches_brute_force_lattice(self, even_only):
        cfg = ChannelConfig.from_users(
            [UserSpec(10 * math.log10(50.0), 100, 1e-4), UserSpec(10 * math.log10(10.0), 150, 1e-4)]
        )
        assert cfg.n == (6, 4)
        got = [a.m for a in enumerate_allocations(cfg, even_only=even_only)]
        assert got == sorted(enumerate_tables_brute(cfg.n, even_only), key=_flat)

    def test_three_user_lattice(self):
        cfg = ChannelConfig.from_users(
            [
                UserSpec(10 * math.log10(12.0), 100, 1e-4),
                UserSpec(10 * math.log10(3.0), 150, 1e-4),
                UserSpec(10 * math.log10(2.0), 200, 1e-4),
            ]
        )
        assert cfg.n == (4, 2, 1)
        for even_only in (True, False):
            got = [a.m for a in enumerate_allocations(cfg, even_only=even_only)]
            assert got == sorted(enumerate_tables_brute(cfg.n, even_only), key=_flat)

    def test_every_even_allocation_builds_a_scheme(self):
        cfg = two_user()
        for alloc in enumerate_allocations(cfg, even_only=True):
            sig = build_scheme(cfg, alloc)
            for (k, l), z in sig.zeta.items():
                assert 0.0 <= z <= 1.0 + 1e-12
                assert Constellation(sig.transmit_axis(k, l)).avg_energy <= cfg.P[k] * (1 + 1e-12)


class TestOrder:
    @pytest.mark.parametrize("value", [True, False, 2.5, float("inf"), "4"])
    def test_rejected(self, value):
        with pytest.raises(ValueError, match="orders must be integers"):
            pipeline._order(value)

    @pytest.mark.parametrize(
        "value, want", [(np.int64(4), 4), (2.0, 2), (Fraction(4, 1), 4), (10**400, 10**400)]
    )
    def test_accepted_as_an_exact_int(self, value, want):
        got = pipeline._order(value)
        assert type(got) is int and got == want

    def test_allocation_holds_plain_ints(self):
        alloc = BitAllocation(m=((np.int64(4),), (2.0, Fraction(4, 1))))
        assert alloc.m == ((4,), (2, 4))
        assert all(type(v) is int for v in _flat(alloc.m))

    @pytest.mark.parametrize("levels, even_only", ENUMERATED)
    def test_enumerated_allocation_holds_plain_ints(self, levels, even_only):
        for alloc in enumerate_allocations(with_levels(*levels), even_only):
            assert all(type(v) is int for v in _flat(alloc.m) + _flat(alloc.columns))


class TestCodeParams:
    def test_reference_lengths(self):
        cfg = two_user()
        alloc = BitAllocation(m=((4,), (4, 4)))
        params = select_code_params(cfg, alloc, [3.68, 3.19])
        assert params[1].codeword_bits == 128 * 4 + 72 * 4 == 800
        assert params[0].codeword_bits == 128 * 4 == 512
        assert params[0].info_bits == math.floor(3.68 * 128)
        assert params[1].info_bits == math.floor(3.19 * 200)

    def test_zero_rate_gives_zero_info(self):
        cfg = two_user()
        alloc = BitAllocation(m=((0,), (4, 4)))
        params = select_code_params(cfg, alloc, [0.0, 2.0])
        assert params[0].info_bits == 0
        assert params[0].degenerate

    def test_code_rate_at_most_one(self):
        cfg = two_user()
        alloc = BitAllocation(m=((2,), (2, 2)))
        params = select_code_params(cfg, alloc, [10.0, 10.0])
        for entry in params:
            assert entry.info_bits <= entry.codeword_bits
            assert entry.rate <= 1.0

    def test_degenerate_warning_for_tiny_rate(self):
        cfg = two_user()
        alloc = BitAllocation(m=((2,), (2, 2)))
        params = select_code_params(cfg, alloc, [0.001, 1.0])
        assert params[0].degenerate
        assert not params[1].degenerate

    @pytest.mark.parametrize("rates", [[1.0], [1.0, 1.0, 1.0]])
    def test_one_rate_per_user(self, rates):
        alloc = BitAllocation(m=((2,), (2, 2)))
        with pytest.raises(ValueError, match="need one rate per user"):
            select_code_params(two_user(), alloc, rates)


class TestBitAllocation:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BitAllocation(m=((2, 2),))
        with pytest.raises(ValueError):
            BitAllocation(m=((2,), (2,)))
        with pytest.raises(ValueError):
            BitAllocation(m=((-2,),))
        with pytest.raises(ValueError):
            BitAllocation(m=((2,),), scheme_type=3)
        with pytest.raises(ValueError, match="at least one row"):
            BitAllocation(m=())

    def test_predicates(self):
        alloc = BitAllocation(m=((6,), (2, 4)))
        assert allocation_feasible((8, 4), alloc)
        assert not allocation_feasible((6, 4), alloc)

    def test_columns_are_the_transposed_table(self):
        m = ((6,), (2, 4), (0, 2, 2))
        alloc = BitAllocation(m=m)
        assert alloc.columns == ((6, 2, 0), (4, 2), (2,))
        assert alloc.columns == tuple(tuple(m[k][l] for k in range(l, 3)) for l in range(3))

    @pytest.mark.parametrize("levels, even_only", ENUMERATED)
    def test_enumerated_columns_are_the_validated_ones(self, levels, even_only):
        for alloc in enumerate_allocations(with_levels(*levels), even_only):
            twin = BitAllocation(m=alloc.m)
            assert alloc == twin and hash(alloc) == hash(twin) and repr(alloc) == repr(twin)
            # m, scheme_type and columns, and nothing else
            assert vars(alloc) == vars(twin)

    def test_columns_are_neither_compared_hashed_nor_shown(self):
        alloc, twin = BitAllocation(m=((6,), (2, 4))), BitAllocation(m=((6,), (2, 4)))
        object.__setattr__(twin, "columns", ((0, 0), (0,)))  # a table differing only there
        assert alloc == twin and hash(alloc) == hash(twin)
        assert repr(alloc) == "BitAllocation(m=((6,), (2, 4)), scheme_type=1)"
        with pytest.raises(TypeError):
            BitAllocation(m=((6,), (2, 4)), columns=((6, 2), (4,)))

    def test_replace_recomputes_the_columns(self):
        alloc = BitAllocation(m=((6,), (2, 4)))
        object.__setattr__(alloc, "columns", ((0, 0), (0,)))
        other = replace(alloc, scheme_type=2)
        assert other.scheme_type == 2 and other.columns == ((6, 2), (4,))
        assert replace(alloc, m=((4,), (4, 4))).columns == ((4, 4), (4,))

    @pytest.mark.parametrize("levels, even_only", ENUMERATED)
    def test_replace_validates_an_enumerated_table(self, levels, even_only):
        for alloc in enumerate_allocations(with_levels(*levels), even_only):
            other = replace(alloc, scheme_type=2)
            assert vars(other) == {**vars(alloc), "scheme_type": 2}
            with pytest.raises(ValueError, match="scheme_type"):
                replace(alloc, scheme_type=3)
            with pytest.raises(ValueError, match="nonnegative"):
                replace(alloc, m=((-2,),) + alloc.m[1:])
