from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from starchip import (
    BudgetExceededError,
    CENTER,
    ChipGameError,
    EnumerationResult,
    Move,
    StarParams,
    Tableau,
    Vertex,
    enumerate_all,
    enumerate_volmin,
    reachable_set,
    to_outcome,
    generate_syts,
    is_row_and_rim_sorted,
    verify_branch_sorted,
    verify_rim_sorted,
)
from starchip.core import _Replay, _board, _calmest, _fire, _fireable, _outcome
from starchip import enumeration
from starchip.enumeration import _sweep
from oracles import (
    _naive_apply,
    _naive_moves,
    naive_sequence_counts,
    naive_total_sequences,
    naive_volmin_moves,
    naive_volmin_outcomes,
    naive_vertex,
    rrs_fillings,
)


class TestEnumerateAll:
    def test_matches_naive_walk_on_tiny_games(self):
        for k, m in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (4, 2)]:
            result = enumerate_all(StarParams(k, m))
            assert result.per_outcome == dict(naive_sequence_counts(k, m))
            assert result.total_sequences == sum(result.per_outcome.values())

    def test_matches_naive_walk_on_two_by_three(self):
        # the largest case where walking all sequences is still affordable
        result = enumerate_all(StarParams(2, 3))
        assert result.per_outcome == dict(naive_sequence_counts(2, 3))

    def test_single_branch_counts(self):
        assert enumerate_all(StarParams(1, 1)).per_outcome == {((1,),): 1}
        assert enumerate_all(StarParams(1, 2)).per_outcome == {((1, 2),): 2}
        assert enumerate_all(StarParams(1, 3)).per_outcome == {((1, 2, 3),): 60}

    def test_one_level_counts(self):
        assert enumerate_all(StarParams(2, 1)).per_outcome == {(((1,), (2,))): 1}
        assert enumerate_all(StarParams(3, 1)).per_outcome == {((1,), (2,), (3,)): 1}

    def test_two_by_two_counts(self):
        result = enumerate_all(StarParams(2, 2))
        assert result.per_outcome == {((1, 3), (2, 4)): 4, ((1, 2), (3, 4)): 8}
        assert result.total_sequences == 12

    def test_three_by_two_counts(self):
        result = enumerate_all(StarParams(3, 2))
        assert result.per_outcome == {
            ((1, 4), (2, 5), (3, 6)): 12,
            ((1, 3), (2, 5), (4, 6)): 12,
            ((1, 3), (2, 4), (5, 6)): 24,
            ((1, 2), (3, 5), (4, 6)): 24,
            ((1, 2), (3, 4), (5, 6)): 48,
        }
        assert result.total_sequences == 120

    def test_two_by_three_counts(self):
        # frozen from two independent implementations (memoized and naive walk);
        # the total also equals the label-free count over chip counts alone
        result = enumerate_all(StarParams(2, 3))
        assert result.per_outcome == {
            ((1, 3, 5), (2, 4, 6)): 8568,
            ((1, 2, 5), (3, 4, 6)): 22680,
            ((1, 3, 4), (2, 5, 6)): 24696,
            ((1, 2, 4), (3, 5, 6)): 51408,
            ((1, 2, 3), (4, 5, 6)): 74088,
        }
        assert result.total_sequences == 181440
        assert result.total_sequences == naive_total_sequences(2, 3)

    def test_default_budget_refuses_nine_cells(self):
        with pytest.raises(BudgetExceededError, match="cell budget"):
            enumerate_all(StarParams(3, 3))

    def test_state_budget_enforced(self):
        with pytest.raises(BudgetExceededError, match="max_states"):
            enumerate_all(StarParams(2, 3), max_states=10)

    def test_state_budget_counts_distinct_states(self):
        # (2,4) has 19,069 distinct states, the start and the stable ones included
        assert len(enumerate_all(StarParams(2, 4), max_states=19_069).per_outcome) == 16
        with pytest.raises(BudgetExceededError, match=r"max_states = 19068 at depth 30 of 30$"):
            enumerate_all(StarParams(2, 4), max_states=19_068)

    def test_budget_error_names_the_depth_reached(self):
        with pytest.raises(BudgetExceededError, match=r"max_states = 10 at depth 1 of 14$"):
            enumerate_all(StarParams(2, 3), max_states=10)

    # every shape with k*m <= 8, where the sweep's key gives each slot a
    # k*m-bit mask of 1 to 8 bits, and the wider masks of (3,3) and (6,2)
    @pytest.mark.parametrize(
        "k, m", [(k, m) for k in range(1, 9) for m in range(1, 8 // k + 1)] + [(3, 3), (6, 2)]
    )
    def test_census_totals_equal_label_free_count(self, k, m):
        result = enumerate_all(StarParams(k, m), max_states=200_000)  # (1,8) has over 100,000 states
        assert result.total_sequences == naive_total_sequences(k, m)

    def test_budget_override_allows_larger_games(self):
        result = enumerate_all(StarParams(3, 3), max_states=2_000_000)
        assert len(result.per_outcome) == 47
        # the branch-sorted but non-standard outcome of the worked example is reachable
        assert ((1, 4, 7), (2, 3, 8), (5, 6, 9)) in result.per_outcome


class TestReachableSet:
    def test_two_by_two(self):
        assert reachable_set(StarParams(2, 2)) == {((1, 3), (2, 4)), ((1, 2), (3, 4))}

    def test_one_level_is_forced(self):
        for k in (1, 2, 3, 4):
            assert reachable_set(StarParams(k, 1)) == {
                tuple((i,) for i in range(1, k + 1))
            }

    def test_two_by_four_has_sixteen(self):
        assert len(reachable_set(StarParams(2, 4))) == 16

    def test_equals_enumeration_support(self):
        for k, m in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            params = StarParams(k, m)
            assert reachable_set(params) == set(enumerate_all(params).per_outcome)

    def test_outcomes_are_sorted_both_ways(self):
        for k, m in [(2, 3), (3, 2), (2, 4)]:
            for outcome in reachable_set(StarParams(k, m)):
                assert verify_branch_sorted(outcome)
                assert verify_rim_sorted(outcome)

    def test_state_budget_counts_distinct_states(self):
        assert len(reachable_set(StarParams(2, 4), max_states=19_069)) == 16
        with pytest.raises(BudgetExceededError, match=r"max_states = 19068 at depth 30 of 30$"):
            reachable_set(StarParams(2, 4), max_states=19_068)

    def test_default_budget(self):
        with pytest.raises(BudgetExceededError):
            reachable_set(StarParams(5, 2))
        assert len(reachable_set(StarParams(5, 2), max_states=200_000)) == 42


class TestVolminFilter:
    # Packed states slot by slot: slot 0 is the center, then branch 1's
    # levels 1..m, then branch 2's. The rule reads their chip counts and
    # narrows their fireable slots, as the sweep calls it.
    def test_only_center_fireable_passes_through(self):
        board = _board(StarParams(2, 2))
        counts = tuple(map(len, ((1, 2, 3, 4), (), (), (), ())))
        assert _calmest(board, counts, _fireable(board, counts)) == _fireable(board, counts) == [0]

    def test_level_one_wave_after_two_center_fires(self):
        # C:{1,2} then C:{3,4}
        board = _board(StarParams(2, 2))
        counts = tuple(map(len, ((), (1, 3), (), (2, 4), ())))
        slots = _calmest(board, counts, _fireable(board, counts))
        assert {board.vertex[s] for s in slots} == {Vertex(1, 1), Vertex(2, 1)}

    def test_tie_broken_toward_outer_vertex(self):
        # Firing either ready vertex leaves one ready vertex. Level m never
        # fires on the packed state, so the outer vertex sits below it.
        board = _board(StarParams(2, 3))
        state = ((1, 2), (), (3, 4), (), (), (5,), (6,))
        counts = tuple(map(len, state))
        slots = _calmest(board, counts, _fireable(board, counts))
        assert _packed_moves(board, state, slots) == [Move(Vertex(1, 2), (3, 4))]

    def test_empty_iff_stable(self):
        # the sweep calls the rule only on a non-empty fireable list
        board = _board(StarParams(2, 2))
        counts = tuple(map(len, ((), (1,), (2,), (3,), (4,))))
        fireable = _fireable(board, counts)
        assert (fireable and _calmest(board, counts, fireable)) == []


class TestEnumerateVolmin:
    def test_subset_of_reachable(self):
        for k, m in [(2, 2), (2, 3), (3, 2)]:
            params = StarParams(k, m)
            assert enumerate_volmin(params) <= reachable_set(params)

    def test_equals_syt_image(self):
        for k, m in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            image = {to_outcome(t) for t in generate_syts(k, m)}
            assert enumerate_volmin(StarParams(k, m)) == image

    def test_one_level_unique(self):
        assert enumerate_volmin(StarParams(3, 1)) == {((1,), (2,), (3,))}

    def test_three_by_three_in_default_budget(self):
        outcomes = enumerate_volmin(StarParams(3, 3))
        assert len(outcomes) == 42
        assert ((1, 4, 7), (2, 3, 8), (5, 6, 9)) not in outcomes

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_volmin(StarParams(5, 2))

    @pytest.mark.parametrize("k, m, needed, depth, count", [(3, 3, 5_500, 18, 42), (2, 4, 5_212, 30, 14)])
    def test_state_budget_counts_distinct_states(self, k, m, needed, depth, count):
        assert len(enumerate_volmin(StarParams(k, m), max_states=needed)) == count
        with pytest.raises(BudgetExceededError, match=rf"max_states = {needed - 1} at depth {depth} of {depth}$"):
            enumerate_volmin(StarParams(k, m), max_states=needed - 1)

    @pytest.mark.parametrize("k, m", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3)])
    def test_matches_the_naive_layered_search(self, k, m):
        assert enumerate_volmin(StarParams(k, m)) == naive_volmin_outcomes(k, m)


def _packed_moves(board, state, slots):
    return [Move(board.vertex[s], chips) for s in slots for chips in combinations(state[s], board.deg[s])]


@settings(deadline=None)
@given(st.data())
def test_packed_kernel_matches_object_model(data):
    # Random legal games, played in place through the packed kernel the
    # drivers use, the label-position state the replays use, and the
    # oracle's _naive_moves, _naive_apply and volmin filter side by side,
    # from the board's start to the outcome read off the packed state.
    k = data.draw(st.integers(min_value=1, max_value=9), label="k")
    m = data.draw(st.integers(min_value=1, max_value=9 // k), label="m")
    board = _board(StarParams(k, m))
    cfg = {"C": frozenset(range(1, k * m + 1))}
    state = [list(labels) for labels in board.start]
    replayed = _Replay(board)
    while True:
        assert replayed.state() == state
        assert replayed.count == [len(labels) for labels in state]
        assert {naive_vertex(v) for v in board.vertex} >= set(cfg)
        assert state == [sorted(cfg.get(naive_vertex(v), ())) for v in board.vertex]
        moves = _naive_moves(cfg, k)
        counts = [len(labels) for labels in state]
        packed = [(naive_vertex(v), chips) for v, chips in _packed_moves(board, state, _fireable(board, counts))]
        assert packed == moves
        fireable = _fireable(board, counts)
        volmin = _packed_moves(board, state, fireable and _calmest(board, counts, fireable))
        assert [(naive_vertex(v), chips) for v, chips in volmin] == naive_volmin_moves(cfg, k)
        if not moves:
            rows = tuple(tuple(next(iter(cfg[(i, j)])) for j in range(1, m + 1)) for i in range(1, k + 1))
            assert _outcome(board, state) == rows
            break
        v, chips = data.draw(st.sampled_from(moves), label="move")
        mv = Move(CENTER if v == "C" else Vertex(*v), chips)
        cfg = _naive_apply(cfg, (v, chips), k)
        replayed.fire(board.slot[mv.vertex], mv.chips, mv.vertex)
        fireable = _fireable(board, counts)
        _fire(board, state, board.slot[mv.vertex], mv.chips, fireable)
        assert fireable == _fireable(board, list(map(len, state)))


def test_sweep_refuses_a_dead_end_before_the_last_layer():
    # a dead end would silently drop its path counts from the totals
    with pytest.raises(ChipGameError, match="no legal move at depth 0 of 5"):
        _sweep(StarParams(2, 2), None, lambda board, counts, fireable: [])


@pytest.mark.parametrize("budget, builds", [(16, 1), (22, 3)])
def test_a_step_build_sure_to_pass_the_budget_is_refused_before_it_is_made(monkeypatch, budget, builds):
    # On (2,3) the first center fire builds 15 steps, and 16 states admit
    # them and the start. Each center state of the next layer has 6 moves.
    # With 16 no room is left for them. With 22 the layer's first build
    # fills the budget with 6 children, and its second is still made, since
    # its 6 fires may all reach those 6 children. The refusal names the
    # depth a build would have passed the budget at.
    made = []
    real = enumeration.combinations
    monkeypatch.setattr(enumeration, "combinations", lambda pool, d: made.append(pool) or real(pool, d))
    with pytest.raises(BudgetExceededError, match=rf"max_states = {budget} at depth 2 of 14$"):
        reachable_set(StarParams(2, 3), max_states=budget)
    assert len(made) == builds


def test_sweep_filters_each_chip_count_vector_once():
    # a play rule reads chip counts alone, so the sweep asks it once per
    # distinct count vector, with that vector as a tuple of ints and its
    # fireable slots
    def every(board, counts, fireable):
        return fireable

    for k, m, rule, expected in [
        (2, 4, every, 143),
        (2, 4, _calmest, 46),
        (3, 3, every, 72),
        (3, 3, _calmest, 39),
    ]:
        seen = []

        def spy(board, counts, fireable):
            assert isinstance(counts, tuple) and len(counts) == len(board.vertex)
            assert all(type(c) is int for c in counts)
            assert fireable == _fireable(board, counts)
            seen.append(counts)
            return rule(board, counts, fireable)

        _sweep(StarParams(k, m), None, spy)
        assert len(seen) == len(set(seen)) == expected, (k, m, rule.__name__)


_CHAIN_SHAPES = [(k, m) for k in range(2, 10) for m in range(1, 9 // k + 1)]
_CHAIN_COUNTS = {(2, 3): (5, 5, 5, 6), (2, 4): (14, 14, 16, 20), (3, 3): (42, 42, 47, 71)}


@pytest.mark.parametrize("k, m", _CHAIN_SHAPES)
def test_standard_image_volmin_reachable_and_row_and_rim_sorted_nest(k, m):
    # The paper's sorting property: every reachable outcome is row-and-rim
    # sorted (RRS), and volmin play reaches every standard filling. At (2,4)
    # and (3,3) the inclusions past volmin are strict.
    params = StarParams(k, m)
    syt = {to_outcome(t) for t in generate_syts(k, m)}
    volmin = enumerate_volmin(params)
    reachable = reachable_set(params, max_states=1_000_000)
    rrs = rrs_fillings(k, m)
    assert syt <= volmin <= reachable <= rrs
    if (k, m) in _CHAIN_COUNTS:
        assert (len(syt), len(volmin), len(reachable), len(rrs)) == _CHAIN_COUNTS[k, m]


def test_rrs_oracle_matches_the_two_by_four_brute_force():
    # criterion 03's set: every split of 1..8 into two sorted rows of four,
    # kept when the package calls it row-and-rim sorted
    labels = set(range(1, 9))
    brute = set()
    for top in combinations(sorted(labels), 4):
        t = Tableau((top, tuple(sorted(labels - set(top)))))
        if is_row_and_rim_sorted(t):
            brute.add(t.rows)
    assert len(brute) == 20
    assert rrs_fillings(2, 4) == brute


class TestResultSerialization:
    def test_total_is_the_sum_of_the_counts(self):
        result = EnumerationResult(StarParams(2, 2), {((1, 3), (2, 4)): 4, ((1, 2), (3, 4)): 8})
        assert result.total_sequences == 12
        with pytest.raises(TypeError):
            EnumerationResult(StarParams(2, 2), result.per_outcome, 13)  # the total is not stored

    def test_counts_serialized_as_decimal_strings(self):
        import json

        doc = json.loads(enumerate_all(StarParams(2, 2)).to_json())
        assert doc["total_sequences"] == "12"
        assert all(isinstance(e["sequence_count"], str) for e in doc["outcomes"])
        assert doc["k"] == 2 and doc["m"] == 2
