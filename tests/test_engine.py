from collections import Counter
from enum import IntEnum
from itertools import combinations
from math import comb

import pytest

from starchip import (
    CENTER,
    Deterministic,
    IllegalMoveError,
    Move,
    RandomUniform,
    SequenceLog,
    StarParams,
    Vertex,
    VolatilityMinimizing,
    expected_fire_count,
    expected_total_fires,
    from_outcome,
    make_strategy,
    outcome_to_text,
    parse_move,
    replay,
    stabilize_labeled,
    stabilize_unlabeled,
    verify_poset,
)
from starchip.core import _board, _fireable, totally_sorted_outcome
from starchip.engine import _unrank, random_games
from starchip.tableaux import Tableau, _WitnessScript
from starchip.verify import GameCheck, check_game

from oracles import ReferenceSplitMix64, naive_play, naive_replay, naive_state_text
from recorder import Moves, played


class TestUnlabeledStabilization:
    def test_single_chip_single_branch(self):
        counts, fires = stabilize_unlabeled(StarParams(1, 1), 1)
        assert counts == {Vertex(1, 1): 1}
        assert fires == {CENTER: 1}

    def test_two_branches_four_chips(self):
        params = StarParams(2, 2)
        counts, fires = stabilize_unlabeled(params, 4)
        assert list(counts.items()) == [(Vertex(i, j), 1) for i in (1, 2) for j in (1, 2)]
        assert sum(fires.values()) == 5
        assert fires[CENTER] == 3
        assert fires[Vertex(1, 1)] == fires[Vertex(2, 1)] == 1
        for v, n in fires.items():
            assert n == expected_fire_count(params, v)

    def test_remainder_chips_stay_on_center(self):
        counts, _ = stabilize_unlabeled(StarParams(3, 2), 7)  # 7 = 3*2 + 1
        assert counts.pop(CENTER) == 1
        assert counts == {Vertex(i, j): 1 for i in (1, 2, 3) for j in (1, 2)}

    def test_subcritical_pile_is_already_stable(self):
        counts, fires = stabilize_unlabeled(StarParams(4, 1), 3)
        assert counts == {CENTER: 3}
        assert fires == {}

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_form_counts(self, k, m):
        params = StarParams(k, m)
        _, fires = stabilize_unlabeled(params, k * m)
        assert sum(fires.values()) == expected_total_fires(params)
        for v, n in fires.items():
            assert n == expected_fire_count(params, v)
        for j in range(m):
            v = CENTER if j == 0 else Vertex(1, j)
            assert fires.get(v, 0) == (m - j) * (m - j + 1) // 2
        assert _board(params).fires == fires
        assert sum(_board(params).fires.values()) == expected_total_fires(params)

    def test_negative_pile_rejected(self):
        with pytest.raises(ValueError):
            stabilize_unlabeled(StarParams(1, 1), -1)


class TestClosedForms:
    def test_center_fire_count(self):
        assert expected_fire_count(StarParams(2, 5), CENTER) == 15

    def test_branch_fire_counts(self):
        params = StarParams(1, 3)
        assert expected_fire_count(params, Vertex(1, 2)) == 1
        assert expected_fire_count(params, Vertex(1, 3)) == 0
        assert expected_fire_count(params, Vertex(1, 9)) == 0  # the star is infinite

    @pytest.mark.parametrize(
        "v, reason",
        [
            (Vertex(3, 1), "is not on a star with k=2"),
            (Vertex(0, 1), "is not on a star with k=2"),
            (Vertex(-1, 2), "is not on a star with k=2"),
            (Vertex(1, 0), "malformed center vertex"),
        ],
        ids=["B(3,1)", "B(0,1)", "B(-1,2)", "Vertex(1,0)"],
    )
    def test_a_vertex_off_the_star_is_refused(self, v, reason):
        with pytest.raises(ValueError, match=reason):
            expected_fire_count(StarParams(2, 5), v)

    def test_totals(self):
        assert expected_total_fires(StarParams(1, 3)) == 10
        assert expected_total_fires(StarParams(3, 5)) == 75
        assert expected_total_fires(StarParams(5, 1)) == 1
        # single-branch totals follow the tetrahedral numbers
        for m in range(1, 8):
            assert expected_total_fires(StarParams(1, m)) == m * (m + 1) * (m + 2) // 6


class TestLabeledStabilization:
    def test_single_branch_deterministic(self):
        outcome, log = played(StarParams(1, 2), Deterministic())
        assert outcome == ((1, 2),)
        assert len(log.moves) == expected_total_fires(StarParams(1, 2))

    @pytest.mark.parametrize("strategy", [Deterministic(), RandomUniform(5), VolatilityMinimizing(5)])
    def test_two_branches_one_level_is_forced(self, strategy):
        # with no per-fire check, the game returns its outcome and its one fire
        assert stabilize_labeled(StarParams(2, 1), strategy) == (((1,), (2,)), 1)

    @pytest.mark.parametrize("name", ["det", "random", "volmin"])
    @pytest.mark.parametrize("k,m", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_log_length_matches_closed_form(self, name, k, m):
        params = StarParams(k, m)
        outcome, log = played(params, make_strategy(name, seed=3))
        assert len(log.moves) == expected_total_fires(params)
        assert Counter(mv.vertex for mv in log.moves)[CENTER] == expected_fire_count(params, CENTER)
        assert sorted(x for row in outcome for x in row) == list(range(1, k * m + 1))

    @pytest.mark.parametrize("name", ["random", "volmin"])
    def test_same_seed_same_log(self, name):
        params = StarParams(3, 3)
        _, log1 = played(params, make_strategy(name, seed=99))
        _, log2 = played(params, make_strategy(name, seed=99))
        assert log1 == log2

    def test_engine_logs_replay_to_their_outcome(self):
        for name in ("det", "random", "volmin"):
            params = StarParams(3, 2)
            outcome, log = played(params, make_strategy(name, seed=6))
            assert replay(params, log.moves) == outcome

    def test_confluence_of_lengths_and_fire_counts(self):
        params = StarParams(2, 3)
        logs = [
            played(params, RandomUniform(seed))[1]
            for seed in range(50)
        ]
        lengths = {len(log.moves) for log in logs}
        count_maps = {tuple(sorted(Counter(mv.vertex for mv in log.moves).items())) for log in logs}
        assert lengths == {expected_total_fires(params)}
        assert len(count_maps) == 1

    def test_unknown_strategy_name(self):
        for name in ("bogus", "deterministic"):
            with pytest.raises(ValueError, match="unknown strategy"):
                make_strategy(name)


class TestReplay:
    def test_scripted_three_branch_game(self, replay_3x3_text):
        params = StarParams(3, 3)
        log = SequenceLog.from_text(params, replay_3x3_text)
        assert len(log.moves) == 18
        final = replay(params, log.moves)
        assert final == ((1, 4, 7), (2, 3, 8), (5, 6, 9))
        assert outcome_to_text(final) == "[1,4,7],[2,3,8],[5,6,9]"

    def test_empty_script_returns_unstable_config(self):
        assert replay(StarParams(1, 1), []) == {CENTER: (1,)}

    def test_the_log_holds_the_moves_given(self, replay_3x3_text):
        # the moves are read once, from any iterable: a one-shot iterator
        # replays to the state the tuple does, complete or not
        params = StarParams(3, 3)
        moves = SequenceLog.from_text(params, replay_3x3_text).moves
        assert replay(params, iter(moves)) == replay(params, moves) == ((1, 4, 7), (2, 3, 8), (5, 6, 9))
        held = replay(params, (mv for mv in moves[:5]))
        assert held == replay(params, moves[:5])
        assert held[CENTER]

    def test_illegal_second_move_reports_step(self):
        params = StarParams(1, 2)
        moves = [Move(CENTER, (1,)), Move(CENTER, (1,))]
        with pytest.raises(IllegalMoveError) as err:
            replay(params, moves)
        assert err.value.step == 2


class TestSequenceLog:
    def test_text_roundtrip(self):
        params = StarParams(2, 2)
        _, log = played(params, RandomUniform(17))
        assert SequenceLog.from_text(params, "".join(f"{mv}\n" for mv in log.moves)) == log

    def test_text_skips_blank_and_comment_lines(self):
        params = StarParams(1, 1)
        log = SequenceLog.from_text(params, "# header\n\nC:{1}\n")
        assert log.moves == (Move(CENTER, (1,)),)

    def test_fire_count_and_positions(self):
        params = StarParams(2, 2)
        _, log = played(params, Deterministic())
        counts = Counter(mv.vertex for mv in log.moves)
        assert counts[CENTER] == 3

    def test_fire_count_and_positions_are_fresh_copies(self):
        # a log has no fire counts of its own; a game's come from its GameCheck
        check = GameCheck(StarParams(2, 2))
        stabilize_labeled(StarParams(2, 2), Deterministic(), check.fire)
        check.per_vertex_fire_count[CENTER] = 99
        assert check.per_vertex_fire_count[CENTER] == 3

    def test_move_parse_matches_str(self):
        mv = Move(Vertex(2, 1), (3, 9))
        assert parse_move(str(mv)) == mv


SMALL_SHAPES = [(k, m) for k in range(1, 10) for m in range(1, 10) if k * m <= 9]


@pytest.mark.parametrize("name", ["det", "random", "volmin"])
@pytest.mark.parametrize("k,m", SMALL_SHAPES)
def test_games_match_the_naive_driver(k, m, name):
    # The packed driver and an independent one built on the naive oracle's
    # moves agree move for move, draw for draw.
    params = StarParams(k, m)
    for seed in (0, 1, 7, 2024):
        _, log = played(params, make_strategy(name, seed))
        moves = [("C" if mv.vertex == CENTER else tuple(mv.vertex), mv.chips) for mv in log.moves]
        assert moves == naive_play(k, m, name, seed)


def test_volmin_play_reaches_a_filling_that_is_not_standard():
    # At (3,4) volmin play ends outside the standard-tableau image: 639
    # outcomes against 462 SYT in the exhaustive search. Seed 413 is one
    # such game, and the naive driver plays it fire for fire.
    outcome, log = played(StarParams(3, 4), VolatilityMinimizing(413))
    assert outcome_to_text(outcome) == "[1,4,5,9],[2,3,7,11],[6,8,10,12]"
    assert [row[1] for row in outcome] == [4, 3, 8]
    assert not from_outcome(outcome).is_standard
    moves = [("C" if mv.vertex == CENTER else tuple(mv.vertex), mv.chips) for mv in log.moves]
    assert len(moves) == 40
    assert moves == naive_play(3, 4, "volmin", 413)


def test_unrank_lists_every_combination_in_order():
    for n in range(10):
        pool = tuple(3 * i + 1 for i in range(n))
        for d in range(n + 1):
            listed = list(combinations(pool, d))
            assert len(listed) == comb(n, d)
            assert [_unrank(pool, d, r) for r in range(len(listed))] == listed


class _BrokenStrategy:
    """Fires against the rules, counting its picks: the first fireable slot
    with one chip too few or with labels no vertex holds, or one chip of the
    first slot below level m that holds chips but cannot fire (the first
    fireable slot's legal chips while no such slot exists)."""

    def __init__(self, fault):
        self.fault = fault
        self.picks = 0

    def pick(self, board, state, fireable):
        self.picks += 1
        s = fireable[0]
        deg = board.deg[s]
        if self.fault == "one chip too few":
            return s, state[s][: deg - 1]
        if self.fault == "a slot that cannot fire":
            held = [t for t in board.firing if state[t] and t not in fireable]
            if held:
                return held[0], tuple(state[held[0]][:1])
            return s, tuple(state[s][:deg])
        n = board.params.n_chips
        return s, tuple(range(n + 1, n + 1 + deg))


@pytest.mark.parametrize("fault", ["one chip too few", "labels it does not hold"])
def test_a_broken_strategy_is_refused_within_the_game_length(fault):
    # the driver checks each fire as it makes it, so the first illegal one
    # ends the game with replay's error, before the strategy picks again
    params = StarParams(10, 10)
    strategy = _BrokenStrategy(fault)
    with pytest.raises(IllegalMoveError, match=r"^illegal move C:\{[\d,]+\} at step 1"):
        stabilize_labeled(params, strategy)
    assert strategy.picks == 1


class _OverfiringStrategy:
    """Fires k + 1 chips at the center first, then plays as Deterministic
    does: the chip past the k-th has no branch to land on and is lost."""

    def __init__(self):
        self.picks = 0

    def pick(self, board, state, fireable):
        self.picks += 1
        if self.picks == 1:
            return 0, tuple(state[0][: board.params.k + 1])
        return Deterministic().pick(board, state, fireable)


@pytest.mark.parametrize("k, m", [(2, 2), (3, 3)])
def test_a_fire_of_k_plus_one_center_chips_is_refused(k, m):
    # the fire that would lose a chip is refused as it is made, with the
    # replayed check's reason and the state it was tried on
    strategy = _OverfiringStrategy()
    fired, start = (",".join(map(str, range(1, n + 1))) for n in (k + 1, k * m))
    with pytest.raises(IllegalMoveError) as err:
        stabilize_labeled(StarParams(k, m), strategy)
    assert str(err.value) == (
        f"illegal move C:{{{fired}}} at step 1: must fire exactly {k} chips; state C:{{{start}}}"
    )
    assert err.value.step == strategy.picks == 1


class _SlotStrategy:
    """Plays as Deterministic does, but names the slot ``slot(state)`` with
    the first fireable slot's chips at its ``at``-th pick."""

    def __init__(self, slot, at):
        self.slot, self.at = slot, at
        self.picks = 0

    def pick(self, board, state, fireable):
        self.picks += 1
        s, chips = Deterministic().pick(board, state, fireable)
        return (self.slot(state), chips) if self.picks == self.at else (s, chips)


@pytest.mark.parametrize(
    "slot, name",
    [
        (lambda state: len(state), "10"),
        (lambda state: len(state) + 3, "13"),
        (lambda state: -len(state), "-10"),
        (lambda state: 1.0, "1.0"),
    ],
    ids=["just past the board", "past the board", "negative", "float"],
)
@pytest.mark.parametrize("at", [1, 4])
def test_a_slot_off_the_board_is_refused_naming_the_step(slot, name, at):
    # a slot past the board raised a bare IndexError, and a negative one
    # played the center until a removal raised a bare ValueError
    strategy = _SlotStrategy(slot, at)
    with pytest.raises(IllegalMoveError, match=rf"at step {at}: no slot {name} on a board of 10 slots$") as err:
        stabilize_labeled(StarParams(3, 3), strategy)
    assert err.value.step == strategy.picks == at


class _Script:
    """Fires the moves of a script in order, whatever the state holds. The
    script is a text of moves or a list of moves with chips of any type."""

    def __init__(self, script):
        self.moves = [parse_move(word) for word in script.split()] if isinstance(script, str) else script
        self.picks = 0

    def pick(self, board, state, fireable):
        mv = self.moves[self.picks]
        self.picks += 1
        return board.slot[mv.vertex], mv.chips


@pytest.mark.parametrize(
    "k, m, script, step, error",
    [
        (1, 2, "C:{2} C:{2} B(1,1):{1,2} C:{1}", 2, "chips not present"),
        (2, 2, "C:{1,3} C:{2,4} B(1,1):{1,2} B(2,1):{1,3} C:{1}", 4, "chips not present"),
        pytest.param(
            2, 1, [Move(CENTER, [1.0, 2.0])], 1, r"C:\{1.0,2.0\} at step 1: chips must be int labels", id="float"
        ),
        pytest.param(
            2,
            2,
            [Move(CENTER, (True, 3)), Move(CENTER, (2, 4))]
            + [Move(Vertex(1, 1), (True, 2)), Move(Vertex(2, 1), (True, 3))],
            4,
            r"B\(2,1\):\{1,3\} at step 4: chips not present",
            id="bool",
        ),
        # a pick that is not a strictly increasing tuple of positive ints is
        # sorted and converted first, and refused with the text it always got
        pytest.param(
            2, 1, [Move(CENTER, (2, 2))], 1, r"^illegal move C:\{2,2\} at step 1: chips must be distinct and sorted; "
            r"state C:\{1,2\}$", id="repeated"
        ),
        pytest.param(
            2, 1, [Move(CENTER, (0, 1))], 1, r"^illegal move C:\{0,1\} at step 1: chips not present \(vertex holds "
            r"\[1, 2\]\); state C:\{1,2\}$", id="zero"
        ),
        pytest.param(
            2, 1, [Move(CENTER, (1.0, 2))], 1, r"^illegal move C:\{1.0,2\} at step 1: chips must be int labels; "
            r"state C:\{1,2\}$", id="float first"
        ),
    ],
)
def test_a_fire_of_chips_the_vertex_does_not_hold_is_refused(k, m, script, step, error):
    # Played to the end, the first script stops on [1,2] and the second on
    # the unsorted [1,2],[4,3]: stable states of the right shape, which the
    # read-off alone cannot tell from a game's outcome. The float chips,
    # each equal to a held label, would land on the board, and the bool
    # True, equal to the label 1, must be logged as 1.
    strategy = _Script(script)
    with pytest.raises(IllegalMoveError, match=error) as err:
        stabilize_labeled(StarParams(k, m), strategy)
    assert err.value.step == strategy.picks == step


def test_a_bool_chip_is_played_as_its_int():
    outcome, log = played(StarParams(2, 1), _Script([Move(CENTER, (True, 2))]))
    assert outcome_to_text(outcome) == "[1],[2]"
    assert [type(c) for row in outcome for c in row] == [type(c) for mv in log.moves for c in mv.chips] == [int, int]


class _SloppyStrategy:
    """Random play from a reference stream that now and then breaks the
    rules: each fire swaps a chip for a label the slot does not hold, fires
    a chip short, or names a held label as a float, each with chance
    1/(4L), where L is the game's length, so some half of the games break a
    rule. It names its chips in descending order, which the driver sorts.
    ``fault`` is the step of its first illegal fire, or None."""

    def __init__(self, params, seed):
        self.rng = ReferenceSplitMix64(seed)
        self.odds = 4 * expected_total_fires(params)
        self.picks = 0
        self.fault = None

    def pick(self, board, state, fireable):
        rng = self.rng
        self.picks += 1
        s = fireable[rng.randrange(len(fireable))]
        chips = list(rng.subset(state[s], board.deg[s]))
        roll = rng.randrange(self.odds)
        if roll == 0:
            foreign = [c for c in range(1, board.params.n_chips + 2) if c not in state[s]]
            chips[rng.randrange(len(chips))] = foreign[rng.randrange(len(foreign))]
        elif roll == 1:
            chips.pop(rng.randrange(len(chips)))
        elif roll == 2:
            at = rng.randrange(len(chips))
            chips[at] = float(chips[at])
        if roll < 3 and self.fault is None:
            self.fault = self.picks
        return s, chips[::-1]


@pytest.mark.parametrize("k, m", SMALL_SHAPES)
def test_a_game_is_refused_at_its_first_illegal_fire_or_passes_every_check(k, m):
    params = StarParams(k, m)
    refused = 0
    for seed in range(200):
        strategy = _SloppyStrategy(params, 1000 * (10 * k + m) + seed)
        try:
            outcome, log = played(params, strategy)
        except IllegalMoveError as e:
            assert e.step == strategy.fault == strategy.picks
            refused += 1
            continue
        assert strategy.fault is None
        assert replay(params, log.moves) == outcome
        assert all(check_game(outcome, log).values())
    assert 0 < refused < 200


@pytest.mark.parametrize("k, m", SMALL_SHAPES)
def test_a_game_without_a_log_names_its_illegal_fire_as_replay_does(k, m):
    # with no log to replay, the refused fire is named from the game's own
    # state; the text must be replay's for the fires made and the refused one
    params = StarParams(k, m)
    refused = 0
    for seed in range(200):
        strategy = _SloppyStrategy(params, 1000 * (10 * k + m) + seed)
        made = Moves(params)
        try:
            stabilize_labeled(params, strategy, made.fire)
        except IllegalMoveError as e:
            assert e.step == strategy.fault == len(made) + 1
            with pytest.raises(IllegalMoveError) as replayed:
                replay(params, made + [Move(e.vertex, e.chips)])
            assert str(e) == str(replayed.value)
            refused += 1
    assert 0 < refused < 200


class _SlicingStrategy:
    """Plays as Deterministic does, but returns its chips as a list slice
    of the live state rather than a tuple."""

    def pick(self, board, state, fireable):
        s = fireable[0]
        return s, state[s][: board.deg[s]]


def test_a_strategy_returning_list_chips_logs_tuples_and_passes_every_check():
    params = StarParams(2, 2)
    outcome, log = played(params, _SlicingStrategy())
    assert all(type(mv.chips) is tuple for mv in log.moves)
    assert log == played(params, Deterministic())[1]
    assert all(check_game(outcome, log).values())


_Label = IntEnum("_Label", [(f"L{c}", c) for c in range(1, 101)])


class _Reshaped:
    """Plays the picks of ``inner``, each handed on ``"as given"``, as a
    list from the largest chip down (``"descending"``), or in order with
    its first chip an IntEnum member of the same value (``"enum"``)."""

    def __init__(self, inner, form):
        self.inner, self.form = inner, form

    def pick(self, board, state, fireable):
        s, chips = self.inner.pick(board, state, fireable)
        if self.form == "descending":
            chips = sorted(chips, reverse=True)
        elif self.form == "enum":
            chips = (_Label(chips[0]), *chips[1:])
        return s, chips


@pytest.mark.parametrize("form", ["as given", "descending", "enum"])
@pytest.mark.parametrize("name", ["det", "random", "volmin"])
@pytest.mark.parametrize("k, m", [(3, 3), (4, 2), (2, 4)])
def test_a_pick_in_any_form_plays_the_game_of_its_sorted_int_tuple(k, m, name, form):
    # a strictly increasing tuple of ints is fired as given and any other
    # pick as its sorted ints, so each form plays the same fires, and every
    # chip the check is handed is an exact int
    params = StarParams(k, m)
    outcome, log = played(params, _Reshaped(make_strategy(name, 7), form))
    assert (outcome, log) == played(params, make_strategy(name, 7))
    assert {type(c) for mv in log.moves for c in mv.chips} == {int}


class _Spy:
    """Passes each pick on to ``inner``, first checking that the fireable
    list the driver keeps up to date fire by fire equals a rescan."""

    def __init__(self, inner):
        self.inner = inner
        self.picks = 0

    def pick(self, board, state, fireable):
        assert fireable == _fireable(board, list(map(len, state)))
        self.picks += 1
        return self.inner.pick(board, state, fireable)


_SMALL_SHAPES = [(k, m) for k in range(1, 13) for m in range(1, 12 // k + 1)]


def _strategies(k, m):
    """Every strategy of the package, the witness scripts of two standard
    tableaux included: filled row by row and column by column."""
    by_rows = Tableau(totally_sorted_outcome(StarParams(k, m)))
    by_columns = Tableau(tuple(tuple(j * k + i + 1 for j in range(m)) for i in range(k)))
    return [
        Deterministic(),
        RandomUniform(k * 100 + m),
        VolatilityMinimizing(k * 100 + m),
        _WitnessScript(by_rows),
        _WitnessScript(by_columns),
    ]


@pytest.mark.parametrize("k, m", _SMALL_SHAPES + [(10, 10)])
def test_the_kept_fireable_list_equals_a_rescan(k, m):
    params = StarParams(k, m)
    for strategy in _strategies(k, m):
        spy = _Spy(strategy)
        _, log = played(params, spy)
        assert spy.picks == len(log.moves) == expected_total_fires(params)
        assert all(type(mv.chips) is tuple for mv in log.moves)


@pytest.mark.parametrize(
    "fault", ["one chip too few", "labels it does not hold", "a slot that cannot fire", "k + 1 chips at the center"]
)
@pytest.mark.parametrize("k, m", [(2, 3), (3, 3), (10, 10)])
def test_a_broken_fire_changes_only_its_slot_and_receivers(fault, k, m):
    # the kept list is updated at the fired slot and its receivers alone,
    # which is right only if no legal fire changes another slot; the spy
    # checks it against a rescan up to the first illegal fire, which ends
    # the game at once
    spy = _Spy(_OverfiringStrategy() if fault == "k + 1 chips at the center" else _BrokenStrategy(fault))
    with pytest.raises(IllegalMoveError) as err:
        stabilize_labeled(StarParams(k, m), spy)
    assert err.value.step == spy.picks > 0


def _bad_logs():
    params = StarParams(3, 3)
    _, log = played(params, RandomUniform(11))
    moves = list(log.moves)
    t = next(t for t, mv in enumerate(moves) if mv.vertex == CENTER and t > 3)
    b = next(t for t, mv in enumerate(moves) if mv.vertex == Vertex(2, 1))
    v, chips = moves[t]
    absent = tuple(c for c in range(1, 10) if c not in chips)[:3]

    def swap(at, mv):
        return moves[:at] + [mv] + moves[at + 1:]

    return params, {
        "wrong size": swap(t, Move(v, chips[:2])),
        "unsorted": swap(b, Move(moves[b].vertex, moves[b].chips[::-1])),
        "absent chips": swap(t, Move(v, absent)),
        "level m": swap(b, Move(Vertex(2, 3), moves[b].chips)),
        "past level m": swap(b, Move(Vertex(2, 4), moves[b].chips)),
        "branch past k": swap(b, Move(Vertex(4, 1), moves[b].chips)),
    }


@pytest.mark.parametrize("case", ["wrong size", "unsorted", "absent chips", "level m", "past level m", "branch past k"])
def test_illegal_moves_are_reported_as_by_the_object_model(case):
    params, logs = _bad_logs()
    moves = logs[case]
    t, cfg, reason = naive_replay(params.k, params.m, moves)
    mv = moves[t - 1]
    with pytest.raises(IllegalMoveError) as err:
        replay(params, moves)
    assert err.value.step == t
    assert str(err.value) == str(IllegalMoveError(mv.vertex, mv.chips, f"{reason}; state {naive_state_text(cfg)}", t))
    report = verify_poset(SequenceLog(params, tuple(moves)))
    replay_details = [v.detail for v in report.violations if v.rule == "illegal-replay"]
    if case in ("wrong size", "unsorted", "absent chips"):
        assert replay_details == [str(IllegalMoveError(mv.vertex, mv.chips, reason))]
    else:
        # a fire off levels 0..m-1 breaks the closed-form fire counts first
        assert [v.rule for v in report.violations] == ["fire-count-mismatch"]


@pytest.mark.parametrize("a,b", [(0, 0), (0, 7), (3, 4), (5, 20), (19, 20)])
def test_random_games_over_a_range_are_that_slice_of_a_full_run(a, b):
    params = StarParams(2, 3)
    full = list(random_games(params, range(20), 11, lambda: Moves(params)))
    assert list(random_games(params, range(a, b), 11, lambda: Moves(params))) == full[a:b]


def test_random_games_hand_each_fire_to_the_check_or_to_nothing():
    params = StarParams(3, 3)
    checked = list(random_games(params, range(30), 5, lambda: Moves(params)))
    for (trial_seed, outcome, fires), (plain_seed, plain_outcome, none) in zip(
        checked, random_games(params, range(30), 5), strict=True
    ):
        assert (plain_seed, plain_outcome, none) == (trial_seed, outcome, None)
        _, log = played(params, RandomUniform(trial_seed))
        assert fires == list(log.moves)
