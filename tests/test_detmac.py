import functools
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmac.detmac import (
    ComponentFeasibility,
    _binding_tail,
    _component_rows,
    achieved_rates,
    allocation_feasible,
    component_layout,
    feasible_columns,
    random_full_rank,
    rank_f2,
    verify_region,
)
from hetmac.errors import InfeasibleAllocationError
from hetmac.pipeline import BitAllocation

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
def _feasible_levels_and_table(draw, users=st.integers(1, 3), top=6):
    """Sorted levels up to top and a table meeting every tail-sum rule."""
    users = draw(users)
    n = tuple(sorted(draw(st.lists(st.integers(0, top), min_size=users, max_size=users)), reverse=True))
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            m[k][l] = draw(st.integers(0, n[k] - tail))
            tail += m[k][l]
    return n, tuple(tuple(row) for row in m)


class TestRank:
    def test_identity(self):
        assert rank_f2((1, 2, 4)) == 3

    def test_zero(self):
        assert rank_f2((0, 0, 0, 0)) == 0
        assert rank_f2(()) == 0

    def test_dependent_rows(self):
        # rows [1, 1], [1, 1], [0, 1]
        assert rank_f2((3, 3, 2)) == 2

    def test_negative_word_rejected(self):
        # a negative int has infinitely many set bits: no row of any width
        with pytest.raises(ValueError, match="row words must be nonnegative, got -1"):
            rank_f2((1, -1))

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
        assert rank_f2(words) == rank_by_subsets(mat)


class TestGenerators:
    # each user's received rows (depth - 1) in one component; a generator
    # in user k's own frame would hold them n_l - n_k rows higher
    def test_two_user_layout(self):
        # levels (10, 8) with 6+4 bits filling component 1 exactly
        alloc = BitAllocation(m=((6,), (4, 8)))
        rows_0, rows_1 = _component_rows((10, 8), 0, alloc.columns[0], 1)
        # user 1's block occupies the top six rows
        assert rows_0 == (0, 1, 2, 3, 4, 5)
        # generator rows 4..7 of user 2, shifted down by 10 - 8
        assert rows_1 == (6, 7, 8, 9)

    def test_empty_message(self):
        alloc = BitAllocation(m=((0,), (4, 8)))
        assert _component_rows((10, 8), 0, alloc.columns[0], 1)[0] == ()

    def test_three_user_disjoint_supports(self):
        alloc = BitAllocation(m=((3,), (3, 0), (3, 0, 0)))
        occupied = [r for rows in _component_rows((9, 6, 3), 0, alloc.columns[0], 1) for r in rows]
        assert len(occupied) == len(set(occupied)) == 9

    def test_type2_two_user_split(self):
        n, alloc = (10, 8), BitAllocation(m=((6,), (4, 8)))
        # upper part in the top n1-n2 = 2 rows, lower part below user 2's window
        assert sorted(_component_rows(n, 0, alloc.columns[0], 2)[0]) == [0, 1, 6, 7, 8, 9]
        assert component_layout(n, [6, 4], 0, 2)[0] == [(0, 2), (6, 10)]

    def test_type2_single_user_is_top_block(self):
        alloc = BitAllocation(m=((4,),))
        assert _component_rows((6,), 0, alloc.columns[0], 2) == ((0, 1, 2, 3),)

    def test_type2_full_last_user_has_no_padding(self):
        alloc = BitAllocation(m=((2,), (0, 4)))
        assert _component_rows((6, 4), 1, alloc.columns[1], 2) == ((0, 1, 2, 3),)

    def test_infeasible_allocation_raises(self):
        alloc = BitAllocation(m=((4,),))
        with pytest.raises(InfeasibleAllocationError):
            achieved_rates((3,), alloc, 1)
        with pytest.raises(InfeasibleAllocationError):
            achieved_rates((3,), alloc, 2)

    def test_bad_f_block_shape(self):
        alloc = BitAllocation(m=((2,),))
        with pytest.raises(ValueError, match="F block must be 2x2"):
            # two row words, one of them three columns wide
            achieved_rates((4,), alloc, 2, {(0, 0): (1, 6)})


def _rows(f: tuple[int, ...]) -> list[list[int]]:
    # a square block: as many columns as row words
    return [[(w >> j) & 1 for j in range(len(f))] for w in f]


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
        alloc = BitAllocation(m)
        users = alloc.users
        rng = random.Random(seed)
        pairs = [(k, l) for l in range(users) for k in range(l, users)]
        for scheme_type in (1, 2):
            full_rank = {(k, l): random_full_rank(m[k][l], rng) for k, l in pairs}
            # full rank by the oracle's own rank test, drawn without detmac
            oracle_full_rank = {(k, l): full_rank_words(m[k][l], rng) for k, l in pairs}
            # any square block, singular ones included, so rates may fall short of m
            arbitrary = {
                (k, l): tuple(rng.getrandbits(m[k][l]) for _ in range(m[k][l]))
                for k, l in pairs
            }
            identity = achieved_rates(n, alloc, scheme_type)
            for blocks in (None, full_rank, oracle_full_rank, arbitrary):
                rates = achieved_rates(n, alloc, scheme_type, blocks)
                if blocks is not arbitrary:
                    # the block diagonal of full-rank witnesses is invertible: no rank moves
                    assert rates == identity
                assert list(rates) == pairs
                for l in range(users):
                    per_user = None if blocks is None else {
                        k: _rows(f) for (k, fl), f in blocks.items() if fl == l
                    }
                    gens = generator_rows(n, m, l, scheme_type, per_user)
                    for k in range(l, users):
                        assert rates[(k, l)] == det_mutual_info_concat(n, gens, k, l)

    @given(_feasible_levels_and_table(users=st.integers(2, 4), top=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_identity_blocks_match_the_blockless_rates(self, case, seed):
        n, m = case
        alloc = BitAllocation(m)
        users = alloc.users
        # an explicit identity block takes the block branch of the packing, a missing one
        # the identity branch
        ident = {
            (k, l): tuple(1 << j for j in range(m[k][l]))
            for l in range(users)
            for k in range(l, users)
        }
        # a random subset with (0, 0) but not (1, 0), so component 0 mixes both branches,
        # and no block of the last component, which stays blockless
        rng = random.Random(seed)
        some = {
            (k, l): f for (k, l), f in ident.items()
            if (k, l) == (0, 0) or (k, l) != (1, 0) and l < users - 1 and rng.random() < 0.5
        }
        for scheme_type in (1, 2):
            blockless = achieved_rates(n, alloc, scheme_type)
            assert achieved_rates(n, alloc, scheme_type, ident) == blockless
            assert achieved_rates(n, alloc, scheme_type, some) == blockless
            for l in range(users):
                gens = generator_rows(n, m, l, scheme_type)
                for k in range(l, users):
                    assert blockless[(k, l)] == det_mutual_info_concat(n, gens, k, l)

    def test_witness_stream_is_pinned(self):
        # det-verify's witnesses depend on these getrandbits calls and on
        # each accept/reject decision of the rank test
        rng = random.Random(20240917)
        assert [random_full_rank(n, rng) for n in range(9)] == [
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
            n, alloc = _random_feasible(rng)
            blocks = {
                (k, l): random_full_rank(alloc.m[k][l], rng)
                for l in range(alloc.users)
                for k in range(l, alloc.users)
            }
            rates = achieved_rates(n, alloc, scheme_type, blocks)
            assert all(r == alloc.m[k][l] for (k, l), r in rates.items()), (n, alloc.m)


class TestRegion:
    def test_zero_slack_component(self):
        comps = verify_region((8, 4), BitAllocation(m=((4,), (4, 4))))
        assert comps[0].load == 8 and comps[0].slack == 0 and comps[0].feasible
        assert comps[1].feasible

    def test_all_zero_allocation_feasible(self):
        assert all(c.feasible for c in verify_region((8, 4), BitAllocation(m=((0,), (0, 0)))))

    def test_direct_violation(self):
        comp = verify_region((3,), BitAllocation(m=((4,),)))[0]
        assert not comp.feasible and comp.slack == -1

    def test_binding_tail_below_component_user(self):
        # component 1 holds 8 <= 8 bits, but user 2's tail carries 6 > 4
        n, alloc = (8, 4), BitAllocation(m=((2,), (6, 0)))
        comp = verify_region(n, alloc)[0]
        assert not comp.feasible
        assert (comp.first_user, comp.load, comp.capacity) == (1, 6, 4)
        assert not allocation_feasible(n, alloc)

    @given(_levels_and_table())
    @settings(max_examples=100, deadline=None)
    def test_reports_match_a_fresh_binding_tail(self, case):
        n, m = case
        fresh = tuple(
            ComponentFeasibility(l, *_binding_tail(n, [m[k][l] for k in range(l, len(n))], l))
            for l in range(len(n))
        )
        assert verify_region(n, BitAllocation(m)) == fresh

    def test_a_shared_column_keeps_each_levels_capacity(self):
        # column (2, 2) of component 1 binds at user 2's level under both level tuples
        m = ((2,), (2, 2))
        for n, capacity in (((8, 4), 4), ((10, 6), 6), ((8, 4), 4)):
            comp = verify_region(n, BitAllocation(m))[0]
            assert (comp.first_user, comp.load, comp.capacity) == (1, 2, capacity)

    @given(_levels_and_table())
    @settings(max_examples=100, deadline=None)
    def test_single_rule_matches_brute_oracle(self, case):
        n, m = case
        feasible = m in _brute_tables(n)
        assert allocation_feasible(n, BitAllocation(m)) == feasible
        layout_raised = False
        for l in range(len(n)):
            try:
                component_layout(n, [m[k][l] for k in range(l, len(n))], l, scheme_type=1)
            except InfeasibleAllocationError:
                layout_raised = True
        assert layout_raised == (not feasible)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=4).map(
            lambda levels: tuple(sorted(levels, reverse=True))
        ),
        st.sampled_from([1, 2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_feasible_columns_are_the_binding_tail_scan(self, n, step):
        # the pruned generator against every column of the box that _binding_tail accepts
        for l in range(len(n)):
            got = list(feasible_columns(n, l, step))
            box = itertools.product(*[range(0, n[k] + 1, step) for k in range(l, len(n))])
            scan = [col for col in box if ComponentFeasibility(l, *_binding_tail(n, col, l)).feasible]
            assert len(set(got)) == len(got)
            assert sorted(got) == scan

    @pytest.mark.parametrize("step", [0, -2])
    def test_feasible_columns_reject_a_step_below_one(self, step):
        # step 0 would list the all-zero column forever: at most a few columns are
        # taken, so a generator that forgot the check fails here instead of hanging
        columns = feasible_columns((4, 2), 0, step)
        with pytest.raises(ValueError, match=f"step must be at least 1, got {step}"):
            list(itertools.islice(columns, 10))


class TestInputChecks:
    # every entry point passes through _binding_tail, which checks that the levels
    # are nonnegative and nonincreasing and that each column covers users l..K-1
    BAD = {
        "unsorted_levels": ((4, 8), ((2,), (2, 2)), r"nonincreasing, got \(4, 8\)"),
        "negative_level": ((4, -1), ((2,), (0, 0)), r"nonnegative .*, got \(4, -1\)"),
        "more_rows": ((8, 4), ((2,), (2, 2), (0, 0, 0)), "column 1 must cover users 1..2"),
        "fewer_rows": ((8, 4, 2), ((2,), (2, 2)), "column 1 must cover users 1..3"),
        # a negative order would lay out the reversed window (10, 8) for user 2
        "negative_order": (
            (8, 4), ((4,), (-2, 0)), r"column 1 must hold nonnegative orders, got \(4, -2\)"
        ),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_table_entry_points_reject(self, case):
        n, m, message = self.BAD[case]
        if case == "negative_order":
            # BitAllocation rejects a negative order itself; a table that skipped its
            # checks holds the same columns, which are all the entry points read
            columns = tuple(tuple(row[l] for row in m[l:]) for l in range(len(m)))
            alloc = SimpleNamespace(m=m, columns=columns)
        else:
            alloc = BitAllocation(m)
        with pytest.raises(ValueError, match=message):
            verify_region(n, alloc)
        with pytest.raises(ValueError, match=message):
            allocation_feasible(n, alloc)
        for scheme_type in (1, 2):
            with pytest.raises(ValueError, match=message):
                achieved_rates(n, alloc, scheme_type)

    @pytest.mark.parametrize("case", BAD)
    @pytest.mark.parametrize("scheme_type", [1, 2])
    def test_component_layout_rejects(self, case, scheme_type):
        n, m, message = self.BAD[case]
        m_col = [row[0] for row in m]
        with pytest.raises(ValueError, match=message):
            component_layout(n, m_col, 0, scheme_type)

    @pytest.mark.parametrize(
        "block",
        [(1,), (1, 2, 0), (1, 4), (-1, 1)],
        ids=["too_few_words", "too_many_words", "wide_word", "negative_word"],
    )
    def test_malformed_blocks_rejected(self, block):
        # user 1's 2x2 block in component 1 must be two row words below 1 << 2
        alloc = BitAllocation(m=((2,), (0, 0)))
        for scheme_type in (1, 2):
            with pytest.raises(ValueError, match="F block must be 2x2: 2 row words below 4"):
                achieved_rates((4, 2), alloc, scheme_type, {(0, 0): block})

    def test_component_layout_rejects_an_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme_type must be 1 or 2"):
            component_layout((8, 4), (4, 4), 0, 3)

    def test_checks_run_before_the_tail_sum_rule(self):
        # a negative level is an input error, not an infeasible column
        with pytest.raises(ValueError, match="nonnegative"):
            _binding_tail((4, -1), (2, 0), 0)
        # unsorted levels are rejected, not laid out
        with pytest.raises(ValueError, match="nonincreasing"):
            component_layout((4, 8), (2, 2), 0, 1)


class TestLayout:
    def test_windows_stay_disjoint_and_within_levels(self):
        rng = random.Random(3)
        for _ in range(50):
            n, alloc = _random_feasible(rng)
            for scheme_type in (1, 2):
                for l in range(alloc.users):
                    m_col = [alloc.m[k][l] for k in range(l, alloc.users)]
                    layout = component_layout(n, m_col, l, scheme_type)
                    seen = set()
                    for k, frags in layout.items():
                        for start, end in frags:
                            assert start >= n[l] - n[k]
                            assert end <= n[l]
                            depths = set(range(start + 1, end + 1))
                            assert not depths & seen
                            seen |= depths
                        assert sum(e - s for s, e in frags) == alloc.m[k][l]

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
                        feasible = verify_region(n, BitAllocation(m))[l].feasible
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


def _random_feasible(rng: random.Random) -> tuple[tuple[int, ...], BitAllocation]:
    users = rng.randint(1, 4)
    n = sorted((rng.randint(0, 12) for _ in range(users)), reverse=True)
    m = [[0] * (k + 1) for k in range(users)]
    for l in range(users):
        tail = 0
        for k in range(users - 1, l - 1, -1):
            v = rng.randint(0, max(0, n[k] - tail))
            m[k][l] = v
            tail += v
    return tuple(n), BitAllocation(m=tuple(tuple(r) for r in m))


def test_achieved_rates_cover_all_pairs():
    rates = achieved_rates((10, 8), BitAllocation(m=((6,), (4, 8))), 1)
    assert rates == {(0, 0): 6, (1, 0): 4, (1, 1): 8}


def test_achieved_rates_rejects_a_block_of_the_wrong_shape():
    alloc = BitAllocation(m=((6,), (2, 8)))
    with pytest.raises(ValueError, match="F block must be 2x2"):
        achieved_rates((10, 8), alloc, 1, {(1, 0): (1, 2, 4)})
