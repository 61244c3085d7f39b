import math
import random
from collections import defaultdict

import pytest
from hypothesis import assume, given, settings, strategies as st

from starchip import (
    CENTER,
    IllegalMoveError,
    LabeledConfig,
    Move,
    ShapeError,
    StarParams,
    UnlabeledConfig,
    Vertex,
    apply_move,
    branch_vertex,
    canonical_outcome,
    degree,
    initial_labeled,
    initial_unlabeled,
    is_stable,
    is_totally_sorted,
    legal_moves,
    outcome_from_text,
    outcome_to_text,
    parse_move,
    parse_vertex,
    totally_sorted_outcome,
)
from starchip.core import _Replay, _board, _outcome, _pack, _unpack


def labeled(params: StarParams, placement: dict) -> LabeledConfig:
    return LabeledConfig(params, placement)


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


class TestConfigs:
    def test_initial_labeled(self):
        cfg = initial_labeled(StarParams(2, 2))
        assert cfg.labels_at(CENTER) == frozenset({1, 2, 3, 4})
        assert cfg.labels_at(Vertex(1, 1)) == frozenset()
        big = initial_labeled(StarParams(3, 3))
        assert big.labels_at(CENTER) == frozenset(range(1, 10))
        assert initial_labeled(StarParams(1, 1)).labels_at(CENTER) == frozenset({1})

    def test_initial_unlabeled(self):
        assert initial_unlabeled(StarParams(2, 2), 4).count_at(CENTER) == 4
        assert initial_unlabeled(StarParams(3, 2), 7).count_at(CENTER) == 7
        empty = initial_unlabeled(StarParams(1, 1), 0)
        assert empty.total == 0 and empty.is_stable

    def test_labeled_partition_enforced(self):
        p = StarParams(2, 1)
        with pytest.raises(ValueError):
            LabeledConfig(p, {CENTER: {1, 1, 3}})  # not 1..2
        with pytest.raises(ValueError):
            LabeledConfig(p, {CENTER: {1}})  # missing 2
        with pytest.raises(ValueError):
            LabeledConfig(p, {CENTER: {1, 2}, Vertex(1, 1): {2}})  # duplicate

    def test_unlabeled_negative_rejected(self):
        with pytest.raises(ValueError):
            UnlabeledConfig(StarParams(1, 1), {CENTER: -1})

    def test_config_equality_and_hash(self):
        p = StarParams(2, 1)
        a = labeled(p, {CENTER: {1}, Vertex(1, 1): {2}})
        b = labeled(p, {Vertex(1, 1): {2}, CENTER: {1}})
        assert a == b
        assert hash(a) == hash(b)
        assert a.key() == b.key()
        u = UnlabeledConfig(p, {Vertex(1, 1): 1, CENTER: 1})
        assert u == a.to_unlabeled() and hash(u) == hash(a.to_unlabeled())
        assert u != a and a != u

    def test_is_stable(self):
        p = StarParams(2, 2)
        stable = labeled(p, {Vertex(i, j): {2 * (i - 1) + j} for i in (1, 2) for j in (1, 2)})
        assert is_stable(stable)
        assert not is_stable(initial_labeled(p))
        one_chip_center = labeled(
            StarParams(2, 2), {CENTER: {1}, Vertex(1, 1): {2}, Vertex(1, 2): {3}, Vertex(2, 1): {4}}
        )
        assert is_stable(one_chip_center)


class TestLegalMoves:
    def test_single_branch_singletons(self):
        cfg = initial_labeled(StarParams(1, 2))
        assert legal_moves(cfg) == [Move(CENTER, (1,)), Move(CENTER, (2,))]

    def test_full_center_subset_count(self):
        cfg = initial_labeled(StarParams(3, 3))
        assert len(legal_moves(cfg)) == math.comb(9, 3)

    def test_overfull_branch_vertex(self):
        p = StarParams(3, 3)
        cfg = labeled(
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
        moves = legal_moves(cfg)
        assert len(moves) == math.comb(3, 2)
        assert all(mv.vertex == Vertex(1, 1) for mv in moves)
        assert [mv.chips for mv in moves] == [(3, 7), (3, 9), (7, 9)]

    def test_empty_iff_stable(self):
        p = StarParams(2, 2)
        stable = labeled(p, {Vertex(i, j): {2 * (i - 1) + j} for i in (1, 2) for j in (1, 2)})
        assert legal_moves(stable) == []


class TestApplyMove:
    def test_center_fire_routes_by_rank(self):
        cfg = initial_labeled(StarParams(3, 3))
        nxt = apply_move(cfg, Move(CENTER, (1, 2, 3)))
        assert nxt.labels_at(Vertex(1, 1)) == {1}
        assert nxt.labels_at(Vertex(2, 1)) == {2}
        assert nxt.labels_at(Vertex(3, 1)) == {3}
        assert nxt.labels_at(CENTER) == frozenset(range(4, 10))

    def test_level_one_fire_sends_small_to_center(self):
        p = StarParams(3, 3)
        cfg = labeled(
            p,
            {
                CENTER: {2, 3, 5, 6, 8},
                Vertex(1, 1): {1, 7},
                Vertex(2, 1): {4},
                Vertex(3, 1): {9},
            },
        )
        nxt = apply_move(cfg, Move(Vertex(1, 1), (1, 7)))
        assert 1 in nxt.labels_at(CENTER)
        assert nxt.labels_at(Vertex(1, 2)) == {7}
        assert nxt.labels_at(Vertex(1, 1)) == frozenset()

    def test_deep_branch_fire(self):
        p = StarParams(2, 3)
        cfg = labeled(
            p,
            {
                CENTER: {1, 2, 3, 5},
                Vertex(2, 3): {4, 6},
            },
        )
        nxt = apply_move(cfg, Move(Vertex(2, 3), (4, 6)))
        assert nxt.labels_at(Vertex(2, 2)) == {4}
        assert nxt.labels_at(Vertex(2, 4)) == {6}

    def test_illegal_move_reports_vertex_and_chips(self):
        cfg = initial_labeled(StarParams(2, 2))
        with pytest.raises(IllegalMoveError) as err:
            apply_move(cfg, Move(Vertex(1, 1), (1, 2)))
        assert err.value.vertex == Vertex(1, 1)
        assert err.value.chips == (1, 2)
        with pytest.raises(IllegalMoveError):
            apply_move(cfg, Move(CENTER, (1,)))  # wrong size
        with pytest.raises(IllegalMoveError):
            apply_move(cfg, Move(CENTER, (2, 1)))  # unsorted
        with pytest.raises(IllegalMoveError) as err:
            apply_move(cfg, Move(Vertex(3, 1), (1, 2)))  # branch past k
        assert err.value.vertex == Vertex(3, 1)
        assert err.value.reason == "vertex is not on a star with k=2"


class TestCanonicalOutcome:
    def test_filled_three_branch_outcome(self):
        p = StarParams(3, 3)
        rows = ((1, 4, 7), (2, 3, 8), (5, 6, 9))
        cfg = labeled(p, {Vertex(i + 1, j + 1): {rows[i][j]} for i in range(3) for j in range(3)})
        assert canonical_outcome(cfg) == rows

    def test_tiny(self):
        cfg = labeled(StarParams(1, 1), {Vertex(1, 1): {1}})
        assert canonical_outcome(cfg) == ((1,),)

    def test_unstable_raises(self):
        with pytest.raises(ShapeError):
            canonical_outcome(initial_labeled(StarParams(2, 2)))

    def test_stable_wrong_shape_raises(self):
        p = StarParams(2, 2)
        cfg = labeled(p, {Vertex(1, 1): {1}, Vertex(1, 2): {2}, Vertex(1, 3): {3}, Vertex(2, 1): {4}})
        assert cfg.is_stable
        with pytest.raises(ShapeError, match="past level 2"):
            canonical_outcome(cfg)


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


# Randomized invariants of the single-move dynamics.

@st.composite
def config_with_move(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    params = StarParams(k, m)
    pool = [CENTER] + [Vertex(i, j) for i in range(1, k + 1) for j in range(1, m + 2)]
    placement = draw(
        st.lists(st.sampled_from(pool), min_size=params.n_chips, max_size=params.n_chips)
    )
    chips = defaultdict(set)
    for label, v in enumerate(placement, start=1):
        chips[v].add(label)
    config = LabeledConfig(params, chips)
    moves = legal_moves(config)
    assume(moves)
    return config, draw(st.sampled_from(moves))


@given(config_with_move())
def test_chip_conservation(case):
    config, mv = case
    before = {c for s in config.chips.values() for c in s}
    after_cfg = apply_move(config, mv)
    after = {c for s in after_cfg.chips.values() for c in s}
    assert before == after == set(range(1, config.params.n_chips + 1))


@given(config_with_move())
def test_locality(case):
    config, mv = case
    after = apply_move(config, mv)
    v = mv.vertex
    if v.is_center:
        allowed = {CENTER} | {Vertex(i, 1) for i in range(1, config.params.k + 1)}
    else:
        inner = CENTER if v.level == 1 else Vertex(v.branch, v.level - 1)
        allowed = {v, inner, Vertex(v.branch, v.level + 1)}
    changed = {
        u
        for u in set(config.chips) | set(after.chips)
        if config.labels_at(u) != after.labels_at(u)
    }
    assert changed <= allowed


@given(config_with_move())
def test_projection_onto_unlabeled_game(case):
    config, mv = case
    params = config.params
    after_labeled = apply_move(config, mv).to_unlabeled()

    counts = dict(config.to_unlabeled().counts)
    v = mv.vertex
    counts[v] -= degree(params, v)
    if counts[v] == 0:
        del counts[v]
    if v.is_center:
        receivers = [Vertex(i, 1) for i in range(1, params.k + 1)]
    else:
        receivers = [
            CENTER if v.level == 1 else Vertex(v.branch, v.level - 1),
            Vertex(v.branch, v.level + 1),
        ]
    for u in receivers:
        counts[u] = counts.get(u, 0) + 1
    assert after_labeled == UnlabeledConfig(params, counts)


@given(config_with_move())
def test_legal_moves_deterministic(case):
    config, _ = case
    twin = LabeledConfig(config.params, {v: set(s) for v, s in config.chips.items()})
    assert legal_moves(config) == legal_moves(twin)
    moves = legal_moves(config)
    assert moves == sorted(moves)


# The replay's checked fire on label positions against apply_move.

def _move_to_try(rnd: random.Random, config: LabeledConfig) -> Move:
    """A move on ``config`` that is legal or wrong in one of several ways:
    the vertex may sit on level m, past it or on a branch past k, and the
    chips may be too few or too many, unsorted, repeated, absent, out of
    1..k*m, or a list instead of a tuple."""
    k, m, n = config.params.k, config.params.m, config.params.n_chips
    i = rnd.randint(1, k)
    v = rnd.choice(sorted(config.chips) + [Vertex(i, m), Vertex(i, m + 1), Vertex(k + 1, 1)])
    d = k if v.is_center else 2
    held = sorted(config.labels_at(v))

    def some(labels: list[int], size: int) -> list[int]:
        return sorted(rnd.sample(labels, min(max(size, 0), len(labels))))

    kind = rnd.choice(["held", "wrong size", "unsorted", "duplicate", "absent chip", "out of range", "list"])
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
    else:
        chips = some(held, d)
    return Move(v, chips if kind == "list" else tuple(chips))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_replay_fire_matches_apply_move(k, m, rnd):
    # Games from the start where each step tries a legal move or a broken
    # one: the replay accepts exactly what apply_move accepts, refuses the
    # rest with the same text and an unchanged state, and holds the same
    # configuration after every step.
    params = StarParams(k, m)
    board = _board(params)
    config = initial_labeled(params)
    replayed = _Replay(board)
    while moves := legal_moves(config):
        mv = rnd.choice(moves) if rnd.random() < 0.5 else _move_to_try(rnd, config)
        try:
            after = apply_move(config, mv)
        except IllegalMoveError as e:
            with pytest.raises(IllegalMoveError) as refused:
                replayed.fire(board.slot.get(mv.vertex), mv)
            assert str(refused.value) == str(e)
        else:
            replayed.fire(board.slot.get(mv.vertex), mv)
            config = after
        state = replayed.state()
        assert _unpack(params, state) == config
        assert state == [list(labels) for labels in _pack(config)]
        assert replayed.count == [len(labels) for labels in state]
