import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmac.detmac import (
    DetConfig,
    F2Matrix,
    _depth_rows,
    achieved_rates,
    allocation_feasible,
    component_layout,
    random_full_rank,
    rank_f2,
    verify_region,
)
from hetmac.errors import InfeasibleAllocationError

from oracles import (
    component_layout_depthwise,
    det_mutual_info_concat,
    enumerate_tables_brute,
    full_rank_words,
    generator_rows,
    rank_by_subsets,
)


@functools.lru_cache(maxsize=None)
def _brute_tables(n: tuple[int, ...]) -> set:
    return enumerate_tables_brute(n, even_only=False)


@st.composite
def _levels_and_table(draw):
    """Sorted levels of 1-3 users up to 6, and a table from the box m[k][l] <= n[l]."""
    users = draw(st.integers(1, 3))
    n = tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=users, max_size=users)), reverse=True))
    m = tuple(tuple(draw(st.integers(0, n[l])) for l in range(k + 1)) for k in range(users))
    return n, m


@st.composite
def _feasible_levels_and_table(draw):
    """Sorted levels of 1-3 users up to 6 and a table meeting every tail-sum rule."""
    users = draw(st.integers(1, 3))
    n = tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=users, max_size=users)), reverse=True))
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            m[k][l] = draw(st.integers(0, n[k] - tail))
            tail += m[k][l]
    return n, tuple(tuple(row) for row in m)


class TestRank:
    def test_identity(self):
        assert rank_f2(F2Matrix(3, 3, (1, 2, 4))) == 3

    def test_zero(self):
        assert rank_f2(F2Matrix(4, 2, (0, 0, 0, 0))) == 0

    def test_dependent_rows(self):
        # rows [1, 1], [1, 1], [0, 1]
        assert rank_f2(F2Matrix(3, 2, (3, 3, 2))) == 2

    @given(
        st.integers(1, 6),
        st.integers(1, 24),
        st.integers(0, 2**144 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_oracle(self, rows, cols, packed):
        cells = [(packed >> (i * cols + j)) & 1 for i in range(rows) for j in range(cols)]
        mat = [cells[i * cols : (i + 1) * cols] for i in range(rows)]
        words = tuple(sum(b << j for j, b in enumerate(row)) for row in mat)
        assert rank_f2(F2Matrix(rows, cols, words)) == rank_by_subsets(mat)


class TestGenerators:
    # each user's received rows (depth - 1) in one component; a generator
    # in user k's own frame would hold them n_l - n_k rows higher
    def test_two_user_layout(self):
        # levels (10, 8) with 6+4 bits filling component 1 exactly
        cfg = DetConfig(n=(10, 8), m=((6,), (4, 8)))
        rows_0, rows_1 = _depth_rows(cfg, 1)[0]
        # user 1's block occupies the top six rows
        assert rows_0 == (0, 1, 2, 3, 4, 5)
        # generator rows 4..7 of user 2, shifted down by 10 - 8
        assert rows_1 == (6, 7, 8, 9)

    def test_empty_message(self):
        cfg = DetConfig(n=(10, 8), m=((0,), (4, 8)))
        assert _depth_rows(cfg, 1)[0][0] == ()

    def test_three_user_disjoint_supports(self):
        cfg = DetConfig(n=(9, 6, 3), m=((3,), (3, 0), (3, 0, 0)))
        occupied = [r for rows in _depth_rows(cfg, 1)[0] for r in rows]
        assert len(occupied) == len(set(occupied)) == 9

    def test_type2_two_user_split(self):
        cfg = DetConfig(n=(10, 8), m=((6,), (4, 8)))
        # upper part in the top n1-n2 = 2 rows, lower part below user 2's window
        assert sorted(_depth_rows(cfg, 2)[0][0]) == [0, 1, 6, 7, 8, 9]
        assert component_layout(cfg.n, [6, 4], 0, 2)[0] == [(0, 2), (6, 10)]

    def test_type2_single_user_is_top_block(self):
        cfg = DetConfig(n=(6,), m=((4,),))
        assert _depth_rows(cfg, 2) == (((0, 1, 2, 3),),)

    def test_type2_full_last_user_has_no_padding(self):
        cfg = DetConfig(n=(6, 4), m=((2,), (0, 4)))
        assert _depth_rows(cfg, 2)[1] == ((0, 1, 2, 3),)

    def test_infeasible_allocation_raises(self):
        cfg = DetConfig(n=(3,), m=((4,),))
        with pytest.raises(InfeasibleAllocationError):
            achieved_rates(cfg, 1)
        with pytest.raises(InfeasibleAllocationError):
            achieved_rates(cfg, 2)

    def test_bad_f_block_shape(self):
        cfg = DetConfig(n=(4,), m=((2,),))
        with pytest.raises(ValueError, match="F block must be 2x2"):
            achieved_rates(cfg, 2, {(0, 0): F2Matrix(2, 3, (1, 2))})


def _rows(f: F2Matrix) -> list[list[int]]:
    return [[(w >> j) & 1 for j in range(f.cols)] for w in f.bits]


class TestMutualInfo:
    def test_reference_triple(self):
        # the oracle, on its own layouts, gives the allocated bits
        n, m = (10, 8), ((6,), (4, 8))
        for scheme_type in (1, 2):
            gens0 = generator_rows(n, m, 0, scheme_type)
            assert det_mutual_info_concat(n, gens0, 0, 0) == 6
            assert det_mutual_info_concat(n, gens0, 1, 0) == 4
            gens1 = generator_rows(n, m, 1, scheme_type)
            assert det_mutual_info_concat(n, gens1, 1, 1) == 8

    @given(_feasible_levels_and_table(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rates_match_concatenation_oracle(self, case, seed):
        n, m = case
        cfg = DetConfig(n, m)
        rng = random.Random(seed)
        pairs = [(k, l) for l in range(cfg.users) for k in range(l, cfg.users)]
        for scheme_type in (1, 2):
            full_rank = {(k, l): random_full_rank(m[k][l], rng) for k, l in pairs}
            # full rank by the oracle's own rank test, drawn without detmac
            oracle_full_rank = {
                (k, l): F2Matrix(m[k][l], m[k][l], full_rank_words(m[k][l], rng)) for k, l in pairs
            }
            # any square block, singular ones included, so rates may fall short of m
            arbitrary = {
                (k, l): F2Matrix(m[k][l], m[k][l], tuple(rng.getrandbits(m[k][l]) for _ in range(m[k][l])))
                for k, l in pairs
            }
            identity = achieved_rates(cfg, scheme_type)
            for blocks in (None, full_rank, oracle_full_rank, arbitrary):
                rates = achieved_rates(cfg, scheme_type, blocks)
                if blocks is not arbitrary:
                    # the block diagonal of full-rank witnesses is invertible: no rank moves
                    assert rates == identity
                assert list(rates) == pairs
                for l in range(cfg.users):
                    per_user = None if blocks is None else {
                        k: _rows(f) for (k, fl), f in blocks.items() if fl == l
                    }
                    gens = generator_rows(n, m, l, scheme_type, per_user)
                    for k in range(l, cfg.users):
                        assert rates[(k, l)] == det_mutual_info_concat(n, gens, k, l)

    def test_witness_stream_is_pinned(self):
        # det-verify's witnesses depend on these getrandbits calls and on
        # each accept/reject decision of the rank test
        rng = random.Random(20240917)
        assert [random_full_rank(n, rng).bits for n in range(9)] == [
            (),
            (1,),
            (3, 1),
            (1, 2, 7),
            (7, 5, 12, 3),
            (17, 25, 20, 18, 27),
            (8, 9, 51, 13, 28, 33),
            (8, 63, 41, 73, 4, 74, 127),
            (146, 190, 70, 73, 233, 84, 67, 66),
        ]
        assert rng.getrandbits(32) == 2522864786

    @pytest.mark.parametrize("scheme_type", [1, 2])
    def test_random_full_rank_blocks_achieve_allocation(self, scheme_type):
        rng = random.Random(77)
        for _ in range(25):
            cfg = _random_feasible(rng)
            blocks = {
                (k, l): random_full_rank(cfg.m[k][l], rng)
                for l in range(cfg.users)
                for k in range(l, cfg.users)
            }
            rates = achieved_rates(cfg, scheme_type, blocks)
            assert all(r == cfg.m[k][l] for (k, l), r in rates.items()), (cfg.n, cfg.m)


class TestRegion:
    def test_zero_slack_component(self):
        cfg = DetConfig(n=(8, 4), m=((4,), (4, 4)))
        comps = verify_region(cfg)
        assert comps[0].load == 8 and comps[0].slack == 0 and comps[0].feasible
        assert comps[1].feasible

    def test_all_zero_allocation_feasible(self):
        cfg = DetConfig(n=(8, 4), m=((0,), (0, 0)))
        assert all(c.feasible for c in verify_region(cfg))

    def test_direct_violation(self):
        cfg = DetConfig(n=(3,), m=((4,),))
        comp = verify_region(cfg)[0]
        assert not comp.feasible and comp.slack == -1

    def test_binding_tail_below_component_user(self):
        # component 1 holds 8 <= 8 bits, but user 2's tail carries 6 > 4
        cfg = DetConfig(n=(8, 4), m=((2,), (6, 0)))
        comp = verify_region(cfg)[0]
        assert not comp.feasible
        assert (comp.first_user, comp.load, comp.capacity) == (1, 6, 4)
        assert not allocation_feasible(cfg)

    @given(_levels_and_table())
    @settings(max_examples=100, deadline=None)
    def test_single_rule_matches_brute_oracle(self, case):
        n, m = case
        feasible = m in _brute_tables(n)
        assert allocation_feasible(DetConfig(n, m)) == feasible
        layout_raised = False
        for l in range(len(n)):
            try:
                component_layout(n, [m[k][l] for k in range(l, len(n))], l, scheme_type=1)
            except InfeasibleAllocationError:
                layout_raised = True
        assert layout_raised == (not feasible)


class TestLayout:
    def test_windows_stay_disjoint_and_within_levels(self):
        rng = random.Random(3)
        for _ in range(50):
            cfg = _random_feasible(rng)
            for scheme_type in (1, 2):
                for l in range(cfg.users):
                    m_col = [cfg.m[k][l] for k in range(l, cfg.users)]
                    layout = component_layout(cfg.n, m_col, l, scheme_type)
                    seen = set()
                    for k, frags in layout.items():
                        for start, end in frags:
                            assert start >= cfg.n[l] - cfg.n[k]
                            assert end <= cfg.n[l]
                            depths = set(range(start + 1, end + 1))
                            assert not depths & seen
                            seen |= depths
                        assert sum(e - s for s, e in frags) == cfg.m[k][l]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_scheme2_matches_depthwise_oracle(self, data):
        # det-verify's ranks depend on which depths a user takes, not on how
        # they group into windows; the windows are the QAM parts, so check them
        users = data.draw(st.integers(1, 4))
        n = sorted(data.draw(st.lists(st.integers(0, 10), min_size=users, max_size=users)),
                   reverse=True)
        l = data.draw(st.integers(0, users - 1))
        m_col = data.draw(st.lists(st.integers(0, 10), min_size=users - l, max_size=users - l))

        def outcome(layout, *args):
            try:
                return layout(*args)
            except InfeasibleAllocationError as exc:
                return str(exc)

        assert outcome(component_layout, n, m_col, l, 2) == outcome(
            component_layout_depthwise, n, m_col, l
        )

    def test_layout_raises_exactly_on_infeasible_columns(self):
        # every column of 1-3 users with levels 0..6 and entries 0..n_l + 1, both
        # schemes; a larger entry is infeasible just as n_l + 1 is
        def layout(*args):
            try:
                return component_layout(*args)
            except InfeasibleAllocationError:
                return None

        mismatches = []
        for users in (1, 2, 3):
            for n in itertools.combinations_with_replacement(range(6, -1, -1), users):
                for l in range(users):
                    for m_col in itertools.product(range(n[l] + 2), repeat=users - l):
                        m = tuple(
                            tuple(m_col[k - l] if j == l else 0 for j in range(k + 1))
                            for k in range(users)
                        )
                        feasible = verify_region(DetConfig(n, m))[l].feasible
                        got = [layout(n, m_col, l, scheme_type) for scheme_type in (1, 2)]
                        want = component_layout_depthwise(n, m_col, l) if feasible else None
                        if [g is not None for g in got] != [feasible] * 2 or got[1] != want:
                            mismatches.append((n, l, m_col))
        assert mismatches == []

    def test_spill_run_is_not_merged_into_the_slot(self):
        # user 1 fills its slot (0, 2] and spills to depth 3, right below the slot
        assert component_layout((6, 4), [4, 0], 0, 2) == {1: [], 0: [(0, 2), (2, 4)]}
        # users 1 and 2 hold depths 7..9, which split user 0's spill into two runs
        assert component_layout((10, 6, 2), [7, 2, 1], 0, 2) == {
            2: [(8, 9)], 1: [(6, 8)], 0: [(0, 4), (4, 6), (9, 10)]
        }


def _random_feasible(rng: random.Random) -> DetConfig:
    users = rng.randint(1, 4)
    n = sorted((rng.randint(0, 12) for _ in range(users)), reverse=True)
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            v = rng.randint(0, max(0, n[k] - tail))
            m[k][l] = v
            tail += v
    return DetConfig(n=tuple(n), m=tuple(tuple(r) for r in m))


def test_achieved_rates_cover_all_pairs():
    cfg = DetConfig(n=(10, 8), m=((6,), (4, 8)))
    rates = achieved_rates(cfg, 1)
    assert rates == {(0, 0): 6, (1, 0): 4, (1, 1): 8}


def test_achieved_rates_rejects_a_block_of_the_wrong_shape():
    cfg = DetConfig(n=(10, 8), m=((6,), (2, 8)))
    with pytest.raises(ValueError, match="F block must be 2x2"):
        achieved_rates(cfg, 1, {(1, 0): F2Matrix(3, 3, (1, 2, 4))})
