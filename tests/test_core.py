import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from starchip import (
    CENTER,
    IllegalMoveError,
    Move,
    ShapeError,
    StarParams,
    Vertex,
    branch_vertex,
    degree,
    is_totally_sorted,
    outcome_from_text,
    outcome_to_text,
    parse_move,
    parse_vertex,
    totally_sorted_outcome,
)
from starchip.core import _Replay, _board, _fire, _fireable, _outcome

from oracles import _naive_apply, _naive_moves, naive_refusal, naive_vertex


def packed(params: StarParams, placement: dict) -> list[list[int]]:
    """The packed state that holds ``placement``'s labels, each slot's in
    ascending order; every vertex must have a slot."""
    board = _board(params)
    state = [[] for _ in board.vertex]
    for v, labels in placement.items():
        state[board.slot[v]] = sorted(labels)
    return state


def moves_on(board, state) -> list[Move]:
    """Every fire the packed kernel allows on ``state``, in canonical order."""
    slots = _fireable(board, list(map(len, state)))
    return [Move(board.vertex[s], chips) for s in slots for chips in combinations(state[s], board.deg[s])]


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its object is gone fails the star import
    import starchip

    namespace: dict = {}
    exec("from starchip import *", namespace)
    assert len(set(starchip.__all__)) == len(starchip.__all__)
    assert all(namespace[name] is getattr(starchip, name) for name in starchip.__all__)


class TestVertexAndParams:
    def test_center_identity(self):
        assert CENTER.is_center
        assert str(CENTER) == "C"
        assert parse_vertex("C") == CENTER

    def test_branch_vertex_str_roundtrip(self):
        v = branch_vertex(2, 5)
        assert str(v) == "B(2,5)"
        assert parse_vertex("B(2,5)") == v

    def test_branch_vertex_validation(self):
        with pytest.raises(ValueError):
            branch_vertex(0, 1)
        with pytest.raises(ValueError):
            branch_vertex(1, 0)

    def test_vertex_ordering_center_first(self):
        vs = [Vertex(2, 1), CENTER, Vertex(1, 2), Vertex(1, 1)]
        assert sorted(vs) == [CENTER, Vertex(1, 1), Vertex(1, 2), Vertex(2, 1)]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            StarParams(0, 1)
        with pytest.raises(ValueError):
            StarParams(1, 0)
        assert StarParams(3, 4).n_chips == 12

    def test_degree(self):
        assert degree(StarParams(3, 3), CENTER) == 3
        assert degree(StarParams(3, 5), Vertex(2, 5)) == 2
        assert degree(StarParams(1, 1), CENTER) == 1

    def test_degree_rejects_foreign_vertex(self):
        with pytest.raises(ValueError):
            degree(StarParams(2, 2), Vertex(3, 1))


class TestLegalMoves:
    # the fires the packed kernel lists: the slots _fireable names, each
    # with every degree-size subset of its labels
    def test_single_branch_singletons(self):
        board = _board(StarParams(1, 2))
        assert moves_on(board, board.start) == [Move(CENTER, (1,)), Move(CENTER, (2,))]

    def test_full_center_subset_count(self):
        board = _board(StarParams(3, 3))
        assert len(moves_on(board, board.start)) == math.comb(9, 3)

    def test_overfull_branch_vertex(self):
        p = StarParams(3, 3)
        state = packed(
            p,
            {
                CENTER: {1, 2},
                Vertex(1, 1): {3, 7, 9},
                Vertex(2, 1): {4},
                Vertex(3, 1): {5},
                Vertex(1, 2): {6},
                Vertex(2, 2): {8},
            },
        )
        moves = moves_on(_board(p), state)
        assert len(moves) == math.comb(3, 2)
        assert all(mv.vertex == Vertex(1, 1) for mv in moves)
        assert [mv.chips for mv in moves] == [(3, 7), (3, 9), (7, 9)]

    def test_empty_iff_stable(self):
        p = StarParams(2, 2)
        stable = packed(p, {Vertex(i, j): {2 * (i - 1) + j} for i in (1, 2) for j in (1, 2)})
        assert moves_on(_board(p), stable) == []


class TestApplyMove:
    # one fire of the packed kernel, core._fire, on a hand-built state
    @staticmethod
    def fire(params: StarParams, placement: dict, move: Move) -> dict:
        board = _board(params)
        state = packed(params, placement)
        _fire(board, state, board.slot[move.vertex], move.chips)
        return {v: set(labels) for v, labels in zip(board.vertex, state) if labels}

    def test_center_fire_routes_by_rank(self):
        p = StarParams(3, 3)
        after = self.fire(p, {CENTER: range(1, 10)}, Move(CENTER, (1, 2, 3)))
        assert after == {Vertex(1, 1): {1}, Vertex(2, 1): {2}, Vertex(3, 1): {3}, CENTER: set(range(4, 10))}

    def test_level_one_fire_sends_small_to_center(self):
        p = StarParams(3, 3)
        placement = {CENTER: {2, 3, 5, 6, 8}, Vertex(1, 1): {1, 7}, Vertex(2, 1): {4}, Vertex(3, 1): {9}}
        after = self.fire(p, placement, Move(Vertex(1, 1), (1, 7)))
        assert 1 in after[CENTER]
        assert after[Vertex(1, 2)] == {7}
        assert Vertex(1, 1) not in after

    def test_deep_branch_fire(self):
        # level 3 fires only below level m, so the board has m = 4
        p = StarParams(2, 4)
        after = self.fire(p, {CENTER: {1, 2, 3, 5, 7, 8}, Vertex(2, 3): {4, 6}}, Move(Vertex(2, 3), (4, 6)))
        assert after[Vertex(2, 2)] == {4}
        assert after[Vertex(2, 4)] == {6}

    def test_illegal_move_reports_vertex_and_chips(self):
        # a replay from the start refuses each of these, by _check_fire's reasons
        board = _board(StarParams(2, 2))
        replayed = _Replay(board)

        def refuse(move: Move) -> IllegalMoveError:
            with pytest.raises(IllegalMoveError) as err:
                replayed.fire(board.slot.get(move.vertex), move.chips, move.vertex)
            return err.value

        err = refuse(Move(Vertex(1, 1), (1, 2)))
        assert err.vertex == Vertex(1, 1)
        assert err.chips == (1, 2)
        assert refuse(Move(CENTER, (1,))).reason == "must fire exactly 2 chips"
        assert refuse(Move(CENTER, (2, 1))).reason == "chips must be distinct and sorted"
        assert refuse(Move(CENTER, (1.0, 2))).reason == "chips must be int labels"
        assert refuse(Move(CENTER, [1, 2])).reason == "chips must be a tuple"
        err = refuse(Move(Vertex(3, 1), (1, 2)))  # branch past k
        assert err.vertex == Vertex(3, 1)
        assert err.reason == "vertex is not on a star with k=2"
        assert replayed.state() == [[1, 2, 3, 4], [], [], [], []]

    @pytest.mark.parametrize("chips", [(1, 5), (2, 2), (3, 9)])
    def test_fire_refuses_a_chip_the_slot_does_not_hold(self, chips):
        # 5 is on a branch, 2 is named twice and no label 9 exists; no
        # chip reaches a receiver
        board = _board(StarParams(2, 3))
        state = packed(board.params, {CENTER: {1, 2, 3, 4, 6}, Vertex(1, 1): {5}})
        with pytest.raises(ValueError):
            _fire(board, state, 0, chips)
        assert state[1:] == [[5], [], [], [], [], []]


class TestCanonicalOutcome:
    # core._outcome on packed states written out slot by slot
    def test_filled_three_branch_outcome(self):
        p = StarParams(3, 3)
        rows = ((1, 4, 7), (2, 3, 8), (5, 6, 9))
        state = packed(p, {Vertex(i + 1, j + 1): {rows[i][j]} for i in range(3) for j in range(3)})
        assert _outcome(_board(p), state) == rows

    def test_tiny(self):
        assert _outcome(_board(StarParams(1, 1)), ((), (1,))) == ((1,),)

    def test_unstable_raises(self):
        board = _board(StarParams(2, 2))
        with pytest.raises(ShapeError, match="not stable"):
            _outcome(board, board.start)


class TestOutcomeReadOff:
    # core._outcome on (2,2): slot 0 is the center, slots 1-2 branch 1 and
    # slots 3-4 branch 2, levels 1 and 2.
    def test_filled_state_reads_its_rows(self):
        assert _outcome(_board(StarParams(2, 2)), ((), (1,), (3,), (2,), (4,))) == ((1, 3), (2, 4))

    @pytest.mark.parametrize(
        "state, match",
        [
            pytest.param(((), (1,), (), (2,), (3, 4)), "pile up on level 2", id="second chip on level m"),
            pytest.param(((), (1, 2), (3,), (), (4,)), "not stable", id="fireable below level m"),
            pytest.param(((5,), (1,), (3,), (2,), (4,)), "does not fill", id="chip left on the center"),
            pytest.param(((), (1,), (3,), (), (4,)), "does not fill", id="empty branch slot"),
            pytest.param(((), (1,), (3,), (1,), (4,)), "labels are not 1..4", id="repeated label"),
            pytest.param(((), (1,), (3,), (2,), (5,)), "labels are not 1..4", id="label out of range"),
        ],
    )
    def test_anything_but_the_stable_shape_raises(self, state, match):
        with pytest.raises(ShapeError, match=match):
            _outcome(_board(StarParams(2, 2)), state)


def test_board_cache_keeps_only_the_latest_few_shapes():
    # a (300,300) board holds about 37 MB, so a process that touches many
    # shapes keeps only the boards it used last
    bound = _board.cache_info().maxsize
    assert bound is not None and bound <= 16
    for k in range(1, bound + 5):
        _board(StarParams(k, 1))
    assert _board.cache_info().currsize == bound


class TestTextForms:
    def test_move_roundtrip(self):
        for text in ("C:{1,2,3}", "B(1,2):{4,7}"):
            assert str(parse_move(text)) == text

    def test_outcome_roundtrip(self):
        out = ((1, 3), (2, 4))
        assert outcome_to_text(out) == "[1,3],[2,4]"
        assert outcome_from_text("[1,3],[2,4]") == out
        assert outcome_from_text(outcome_to_text(((1,),))) == ((1,),)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_move("Q:{1}")
        with pytest.raises(ValueError):
            parse_vertex("B(1)")
        with pytest.raises(ValueError):
            outcome_from_text("nope")


class TestTotallySorted:
    def test_construction(self):
        assert totally_sorted_outcome(StarParams(3, 2)) == ((1, 2), (3, 4), (5, 6))

    def test_predicate(self):
        assert is_totally_sorted(((1, 2), (3, 4)))
        assert not is_totally_sorted(((1, 3), (2, 4)))


# Randomized invariants of the packed kernel's single fire.

@st.composite
def state_with_fire(draw):
    """A packed state with any labels on any slots, and a fire that
    ``_fireable`` allows on it, as (board, state, slot, chips)."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    board = _board(StarParams(k, m))
    placement = draw(
        st.lists(st.integers(0, len(board.vertex) - 1), min_size=board.params.n_chips, max_size=board.params.n_chips)
    )
    state = [[] for _ in board.vertex]
    for label, s in enumerate(placement, start=1):
        state[s].append(label)
    fireable = _fireable(board, list(map(len, state)))
    assume(fireable)
    s = draw(st.sampled_from(fireable))
    chips = draw(st.sampled_from(list(combinations(state[s], board.deg[s]))))
    return board, state, s, chips


def _fired(board, state, s, chips) -> list[list[int]]:
    after = [list(labels) for labels in state]
    _fire(board, after, s, chips)
    return after


@given(state_with_fire())
def test_chip_conservation(case):
    board, state, s, chips = case
    after = _fired(*case)
    assert sorted(c for labels in after for c in labels) == list(range(1, board.params.n_chips + 1))
    assert all(labels == sorted(labels) for labels in after)


@given(state_with_fire())
def test_locality(case):
    board, state, s, chips = case
    after = _fired(*case)
    v = board.vertex[s]
    if v.is_center:
        allowed = {CENTER} | {Vertex(i, 1) for i in range(1, board.params.k + 1)}
    else:
        inner = CENTER if v.level == 1 else Vertex(v.branch, v.level - 1)
        allowed = {v, inner, Vertex(v.branch, v.level + 1)}
    changed = {board.vertex[t] for t in range(len(state)) if state[t] != after[t]}
    assert changed <= allowed


@given(state_with_fire())
def test_projection_onto_unlabeled_game(case):
    board, state, s, chips = case
    params = board.params
    after_counts = {v: len(labels) for v, labels in zip(board.vertex, _fired(*case)) if labels}

    counts = {v: len(labels) for v, labels in zip(board.vertex, state)}
    v = board.vertex[s]
    counts[v] -= degree(params, v)
    if v.is_center:
        receivers = [Vertex(i, 1) for i in range(1, params.k + 1)]
    else:
        receivers = [
            CENTER if v.level == 1 else Vertex(v.branch, v.level - 1),
            Vertex(v.branch, v.level + 1),
        ]
    for u in receivers:
        counts[u] = counts.get(u, 0) + 1
    assert after_counts == {v: c for v, c in counts.items() if c}


# The replay's checked fire on label positions against the oracle's rules.

def _move_to_try(rnd: random.Random, cfg: dict, k: int, m: int) -> Move:
    """A move on the oracle's configuration ``cfg`` that is legal or wrong
    in one of several ways: the vertex may sit on level m, past it or on a
    branch past k, and the chips may be too few or too many, unsorted,
    repeated, absent, out of 1..k*m or not ints. Any of these, a legal
    fire's chips included, may come in a list instead of a tuple."""
    n = k * m
    i = rnd.randint(1, k)
    held_at = sorted(CENTER if v == "C" else Vertex(*v) for v in cfg)
    v = rnd.choice(held_at + [Vertex(i, m), Vertex(i, m + 1), Vertex(k + 1, 1)])
    d = k if v.is_center else 2
    held = sorted(cfg.get(naive_vertex(v), ()))

    def some(labels: list[int], size: int) -> list[int]:
        return sorted(rnd.sample(labels, min(max(size, 0), len(labels))))

    kind = rnd.choice(["held", "wrong size", "unsorted", "duplicate", "absent chip", "out of range", "not an int"])
    if kind == "wrong size":
        chips = some(held, rnd.choice([d - 1, d + 1]))
    elif kind == "unsorted":
        chips = some(held, d)[::-1]
    elif kind == "duplicate":
        part = some(held or list(range(1, n + 1)), max(d - 1, 1))
        chips = sorted(part + part[:1])
    elif kind == "absent chip":
        chips = some(list(range(1, n + 1)), d)
    elif kind == "out of range":
        chips = sorted(some(held, d - 1) + [rnd.choice([-1, 0, n + 1])])
    elif kind == "not an int":
        chips = some(held, d)
        if chips:
            at = rnd.randrange(len(chips))
            chips[at] = rnd.choice([float(chips[at]), chips[at] + 0.5, str(chips[at])])
    else:
        chips = some(held, d)
    return Move(v, chips if rnd.random() < 0.2 else tuple(chips))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_replay_fire_matches_the_oracle(k, m, rnd):
    # Games from the start where each step tries a legal move or a broken
    # one: the replay accepts exactly what tests/oracles.py's rules accept,
    # refuses the rest with the oracle's reason and an unchanged state, and
    # holds the oracle's configuration after every step.
    params = StarParams(k, m)
    board = _board(params)
    cfg = {"C": frozenset(range(1, k * m + 1))}
    replayed = _Replay(board)
    while moves := _naive_moves(cfg, k):
        if rnd.random() < 0.5:
            v, chips = rnd.choice(moves)
            mv = Move(CENTER if v == "C" else Vertex(*v), chips)
        else:
            mv = _move_to_try(rnd, cfg, k, m)
        naive = (naive_vertex(mv.vertex), mv.chips)
        reason = naive_refusal(cfg, naive, k)
        if reason is None:
            replayed.fire(board.slot.get(mv.vertex), mv.chips, mv.vertex)
            cfg = _naive_apply(cfg, naive, k)
        else:
            with pytest.raises(IllegalMoveError) as refused:
                replayed.fire(board.slot.get(mv.vertex), mv.chips, mv.vertex)
            assert str(refused.value) == str(IllegalMoveError(mv.vertex, mv.chips, reason))
        assert {naive_vertex(v) for v in board.vertex} >= set(cfg)
        state = replayed.state()
        assert state == [sorted(cfg.get(naive_vertex(v), ())) for v in board.vertex]
        assert replayed.count == [len(labels) for labels in state]
