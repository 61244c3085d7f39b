import hashlib
import json
from collections import Counter

import pytest

from starchip import (
    CENTER,
    IllegalMoveError,
    LogInconsistencyError,
    Move,
    SequenceLog,
    StarParams,
    Vertex,
    Deterministic,
    RandomUniform,
    endgame_positions,
    endgame_refs,
    make_strategy,
    replay,
    stabilize_labeled,
    verify_branch_sorted,
    verify_mixing,
    verify_poset,
    verify_rim_sorted,
)
from starchip.core import _board, totally_sorted_outcome
from starchip.verify import FireRef, GameCheck, VerifierReport, Violation, check_game

from oracles import ReferenceSplitMix64
from recorder import played


def det_log(k: int, m: int) -> SequenceLog:
    _, log = played(StarParams(k, m), Deterministic())
    return log


def forged_order_swap() -> SequenceLog:
    """A (2,2) log with the center's last fire moved before branch 2's."""
    return SequenceLog(
        StarParams(2, 2),
        (
            Move(CENTER, (1, 2)),
            Move(CENTER, (3, 4)),
            Move(Vertex(1, 1), (1, 3)),
            Move(CENTER, (1, 2)),
            Move(Vertex(2, 1), (2, 4)),
        ),
    )


def R(branch: int, level: int, from_end: int) -> FireRef:
    return FireRef(Vertex(branch, level), from_end)


# A (3,3) game with six fires moved: its fire counts are right, it breaks
# every order rule, and its replay fails at index 5.
FORGED_3X3 = (
    "C:{3,8,9} C:{5,6,7} C:{1,2,4} B(2,1):{2,6} B(3,1):{7,9} B(2,1):{6,8} B(3,1):{4,7} "
    "B(2,1):{2,6} B(1,1):{1,3} B(3,1):{4,7} C:{1,6,7} B(3,2):{7,9} C:{1,2,4} B(2,2):{6,8} "
    "B(1,1):{1,5} B(1,1):{1,3} B(1,2):{3,5} C:{1,2,4}"
)


class TestEndgamePositions:
    def test_single_move_game(self):
        log = det_log(1, 1)
        assert endgame_positions(log) == {FireRef(CENTER, 0): 0}

    def test_center_endgame_is_last_two_of_three(self):
        log = det_log(2, 2)
        positions = endgame_positions(log)
        center_fires = [t for t, mv in enumerate(log.moves) if mv.vertex == CENTER]
        assert len(center_fires) == 3
        assert positions[FireRef(CENTER, 0)] == center_fires[-1]
        assert positions[FireRef(CENTER, 1)] == center_fires[-2]

    def test_outermost_firing_level_has_one_endgame_fire(self):
        for m in (2, 3, 4):
            refs = endgame_refs(StarParams(2, m))
            assert sum(1 for r in refs if r.vertex == Vertex(1, m - 1)) == 1

    def test_inconsistent_log_rejected(self):
        log = det_log(2, 2)
        truncated = SequenceLog(log.params, log.moves[:-1])
        with pytest.raises(LogInconsistencyError):
            endgame_positions(truncated)

    def test_total_on_engine_logs(self):
        for k, m in [(1, 3), (2, 2), (3, 2), (2, 3)]:
            log = det_log(k, m)
            positions = endgame_positions(log)
            assert len(positions) == len(endgame_refs(StarParams(k, m)))


class TestVerifyPoset:
    def test_deterministic_log_passes(self):
        report = verify_poset(det_log(2, 2))
        assert report.passed and not report.violations

    @pytest.mark.parametrize("name", ["det", "random", "volmin"])
    @pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 2), (3, 3), (1, 4)])
    def test_engine_logs_pass(self, name, k, m):
        _, log = played(StarParams(k, m), make_strategy(name, seed=21))
        assert verify_poset(log).passed

    def test_random_sample_passes(self):
        params = StarParams(2, 3)
        for seed in range(100):
            _, log = played(params, RandomUniform(seed))
            assert verify_poset(log).passed

    def test_forged_order_swap_is_caught(self):
        report = verify_poset(forged_order_swap())
        assert not report.passed
        rules = {v.rule for v in report.violations}
        assert "branch-precedes-center" in rules
        assert "illegal-replay" in rules
        # FireRef pairs for the order rules, a log index for the replay
        assert {type(v.subject[0]) for v in report.violations} == {FireRef, int}

    def test_forged_log_violations_in_full(self):
        log = SequenceLog.from_text(StarParams(3, 3), FORGED_3X3.replace(" ", "\n"))
        report = verify_poset(log)
        assert [(v.rule, v.subject, v.detail) for v in report.violations] == [
            ("branch-precedes-center", (R(1, 1, 1), R(0, 0, 1)), "B(1,1)^1 at index 14 must precede C^1 at index 12"),
            ("outer-precedes", (R(1, 2, 0), R(1, 1, 0)), "B(1,2)^0 at index 16 must precede B(1,1)^0 at index 15"),
            ("inner-refire-precedes", (R(0, 0, 1), R(2, 1, 0)), "C^1 at index 12 must precede B(2,1)^0 at index 7"),
            ("outer-precedes", (R(2, 2, 0), R(2, 1, 0)), "B(2,2)^0 at index 13 must precede B(2,1)^0 at index 7"),
            ("inner-refire-precedes", (R(0, 0, 2), R(2, 1, 1)), "C^2 at index 10 must precede B(2,1)^1 at index 5"),
            ("inner-refire-precedes", (R(0, 0, 1), R(3, 1, 0)), "C^1 at index 12 must precede B(3,1)^0 at index 9"),
            ("outer-precedes", (R(3, 2, 0), R(3, 1, 0)), "B(3,2)^0 at index 11 must precede B(3,1)^0 at index 9"),
            ("inner-refire-precedes", (R(0, 0, 2), R(3, 1, 1)), "C^2 at index 10 must precede B(3,1)^1 at index 6"),
            ("exact-degree-chips", (R(2, 1, 1),), "endgame fire B(2,1)^1 at index 5 ran with 1 chips present, not 2"),
            ("illegal-replay", (5,), "illegal move B(2,1):{6,8}: chips not present (vertex holds [8])"),
        ]

    def test_closed_form_counts_are_built_once_per_shape(self):
        before = _board.cache_info()
        for seed in range(10):
            for params in (StarParams(2, 3), StarParams(3, 2)):
                _, log = played(params, RandomUniform(seed))
                assert verify_poset(log).passed
        after = _board.cache_info()
        assert after.misses - before.misses <= 2
        assert after.hits - before.hits >= 18
        p = StarParams(2, 3)
        assert _board(p).fires is _board(p).fires

    def test_count_mismatch_reported_not_raised(self):
        params = StarParams(1, 1)
        report = verify_poset(SequenceLog(params, ()))
        assert not report.passed
        assert report.violations[0].rule == "fire-count-mismatch"

    def test_count_mismatch_lists_the_counts_in_first_fire_order(self):
        log = det_log(2, 2)
        report = verify_poset(SequenceLog(log.params, log.moves[:-1]))
        assert [(v.rule, v.subject) for v in report.violations] == [("fire-count-mismatch", ())]
        assert report.violations[0].detail == (
            "per-vertex fire counts {Vertex(branch=0, level=0): 2, Vertex(branch=1, level=1): 1, "
            "Vertex(branch=2, level=1): 1} disagree with the closed form {Vertex(branch=0, level=0): 3, "
            "Vertex(branch=1, level=1): 1, Vertex(branch=2, level=1): 1}"
        )
        # a vertex off the board has no slot; its fires are counted apart
        off = Move(Vertex(9, 9), (1, 2))
        report = verify_poset(SequenceLog(log.params, (log.moves[0], off, off)))
        assert [(v.rule, v.subject) for v in report.violations] == [("fire-count-mismatch", ())]
        assert report.violations[0].detail == (
            "per-vertex fire counts {Vertex(branch=0, level=0): 1, Vertex(branch=9, level=9): 2} disagree with "
            "the closed form {Vertex(branch=0, level=0): 3, Vertex(branch=1, level=1): 1, "
            "Vertex(branch=2, level=1): 1}"
        )


class TestOutOfRangeLabels:
    # A replay that looks labels up by position must refuse a label outside
    # 1..k*m before it looks: index -1 would read label k*m's slot. A label
    # that is not an int cannot index at all, and 1.0 == 1 must not make it
    # count as present.
    HOLDS = "chips not present (vertex holds [1, 2, 3, 4, 5, 6, 7, 8, 9])"
    NOT_INT = "chips must be int labels"
    NOT_TUPLE = "chips must be a tuple"

    @pytest.mark.parametrize(
        "first",
        [
            "C:{0,1,2}",
            "C:{1,2,10}",
            Move(CENTER, (-1, 8, 9)),
            pytest.param(Move(CENTER, (1.0, 2, 3)), id="float"),
            # held labels, distinct and sorted, but in a list
            pytest.param(Move(CENTER, [1, 2, 3]), id="list"),
        ],
    )
    def test_refused_by_the_verifier_and_by_replay(self, first):
        log = det_log(3, 3)
        if isinstance(first, str):  # a parsed log
            log = SequenceLog.from_text(log.params, "".join(f"{mv}\n" for mv in log.moves).replace("C:{1,2,3}\n", first + "\n", 1))
        else:  # built through the API
            log = SequenceLog(log.params, (first,) + log.moves[1:])
        bad = log.moves[0]
        if type(bad.chips) is not tuple:
            reason = self.NOT_TUPLE
        else:
            reason = self.HOLDS if all(type(c) is int for c in bad.chips) else self.NOT_INT
        report = verify_poset(log)
        assert [(v.rule, v.subject, v.detail) for v in report.violations] == [
            ("illegal-replay", (0,), f"illegal move {bad}: {reason}")
        ]
        with pytest.raises(IllegalMoveError) as refused:
            replay(log.params, log.moves)
        assert str(refused.value) == f"illegal move {bad} at step 1: {reason}; state C:{{1,2,3,4,5,6,7,8,9}}"


class TestVerifyMixing:
    def test_engine_log_passes(self):
        assert verify_mixing(det_log(2, 3)).passed

    def test_repeats_are_fine_by_default_but_flagged_in_strict_mode(self, replay_3x3_text):
        params = StarParams(3, 3)
        log = SequenceLog.from_text(params, replay_3x3_text)
        assert verify_mixing(log).passed
        strict = verify_mixing(log, strict=True)
        assert not strict.passed
        assert all(v.rule == "center-send-repeated" for v in strict.violations)

    def test_single_branch_games_pass(self):
        for m in (1, 2, 3, 4):
            assert verify_mixing(det_log(1, m)).passed

    def test_forged_increase_is_a_violation_in_both_modes(self):
        params = StarParams(2, 2)
        forged = SequenceLog(
            params,
            (Move(CENTER, (3, 4)), Move(CENTER, (1, 2)), Move(CENTER, (3, 4))),
        )
        for strict in (False, True):
            report = verify_mixing(forged, strict=strict)
            assert not report.passed
            assert any(v.rule == "center-send-increased" for v in report.violations)

    def test_forged_repeat_only_fails_strict(self):
        params = StarParams(2, 2)
        forged = SequenceLog(params, (Move(CENTER, (1, 2)), Move(CENTER, (1, 2))))
        assert verify_mixing(forged).passed
        assert not verify_mixing(forged, strict=True).passed

    def test_center_fire_of_the_wrong_size_is_reported(self):
        # a fire of fewer than k chips used to be indexed past its end
        log = SequenceLog(StarParams(2, 2), (Move(CENTER, (1,)), Move(CENTER, (2, 3))))
        report = verify_mixing(log)
        assert [(v.rule, v.subject) for v in report.violations] == [("center-fire-size", (0,))]
        assert not check_game(((1, 3), (2, 4)), log)["mixing"]


class TestOutcomePredicates:
    def test_branch_sorted(self):
        assert verify_branch_sorted(((1, 4, 7), (2, 3, 8), (5, 6, 9)))
        assert not verify_branch_sorted(((2, 1),))
        assert verify_branch_sorted(((1,),))

    def test_rim_sorted(self):
        assert verify_rim_sorted(((1, 4, 7), (2, 3, 8), (5, 6, 9)))
        assert not verify_rim_sorted(((2, 3), (1, 4)))
        assert verify_rim_sorted(((1, 9, 2),))  # single branch: nothing to compare

    @pytest.mark.parametrize("name", ["det", "random", "volmin"])
    @pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_engine_outcomes_sorted(self, name, k, m):
        outcome, _ = stabilize_labeled(StarParams(k, m), make_strategy(name, 4))
        assert verify_branch_sorted(outcome)
        assert verify_rim_sorted(outcome)


class TestVerifierReport:
    def test_verdict_is_read_off_the_violations(self):
        assert VerifierReport().passed
        failing = VerifierReport((Violation("center-send-increased", (0, 1, 2), "went up"),))
        assert not failing.passed
        with pytest.raises(TypeError):
            VerifierReport(True, ())  # the verdict is not stored


class _OnePass(tuple):
    """Moves that may be iterated once and never indexed."""

    read = False

    def __iter__(self):
        if self.read:
            raise AssertionError("the moves were read a second time")
        self.read = True
        return super().__iter__()

    def __getitem__(self, i):
        raise AssertionError(f"the moves were indexed at {i!r}")


@pytest.mark.parametrize("reader", [verify_poset, verify_mixing, endgame_positions])
@pytest.mark.parametrize("name", ["det", "random", "volmin", "forged"])
def test_each_reader_reads_the_moves_once(reader, name):
    params = StarParams(3, 3)
    if name == "forged":
        log = SequenceLog.from_text(params, FORGED_3X3.replace(" ", "\n"))
    else:
        _, log = played(params, make_strategy(name, seed=5))
    expected = reader(log)
    assert reader(SequenceLog(params, _OnePass(log.moves))) == expected


def _mutate(moves: tuple, kind: str, rng: ReferenceSplitMix64, n_chips: int) -> tuple:
    """One forgery of an engine log: two fires swapped (adjacent or not), a
    window of up to six fires shuffled, the log cut short, one fired chip
    relabeled or dropped, or one fire played twice."""
    moves = list(moves)
    n = len(moves)
    if kind in ("swap-adjacent", "swap"):
        i = rng.randrange(n - 1)
        j = i + 1 if kind == "swap-adjacent" else rng.randrange(n)
        moves[i], moves[j] = moves[j], moves[i]
    elif kind == "shuffle":
        i = rng.randrange(n - 1)
        window = moves[i : i + 6]
        moves[i : i + 6] = [window.pop(rng.randrange(len(window))) for _ in range(len(window))]
    elif kind == "truncate":
        del moves[rng.randrange(n) :]
    elif kind == "relabel":
        i = rng.randrange(n)
        chips = list(moves[i].chips)
        chips[rng.randrange(len(chips))] = 1 + rng.randrange(n_chips)
        moves[i] = Move(moves[i].vertex, tuple(sorted(chips)))
    elif kind == "drop-chip":
        i = rng.randrange(n)
        chips = list(moves[i].chips)
        del chips[rng.randrange(len(chips))]
        moves[i] = Move(moves[i].vertex, tuple(chips))
    else:  # duplicate
        i = rng.randrange(n)
        moves.insert(i, moves[i])
    return tuple(moves)


_MUTATIONS = ("swap-adjacent", "swap", "shuffle", "truncate", "relabel", "drop-chip", "duplicate")


class TestForgedLogVerdicts:
    # Every shape with m >= 2 and k*m <= 9, played under each strategy, and
    # each game forged seven ways: 336 logs. The digest pins every violation
    # list verify_poset and verify_mixing (both modes) give on them, in
    # content and order.
    SHAPES = [(k, m) for k in range(1, 10) for m in range(2, 10) if k * m <= 9]
    DIGEST = "1758711bd5281eb4cb155acb55afd66051c255c12902cca90ee327d7c7431424"

    def test_violation_lists_are_pinned(self):
        reports = []
        rng = ReferenceSplitMix64(2024)
        for k, m in self.SHAPES:
            params = StarParams(k, m)
            for name in ("det", "random", "volmin"):
                _, game = played(params, make_strategy(name, seed=k * 10 + m))
                logs = [game.moves] + [_mutate(game.moves, kind, rng, params.n_chips) for kind in _MUTATIONS]
                for moves in logs:
                    log = SequenceLog(params, moves)
                    for report in (verify_poset(log), verify_mixing(log), verify_mixing(log, strict=True)):
                        reports.append([[v.rule, v.subject, v.detail] for v in report.violations])
        assert len(reports) == 3 * 8 * 3 * len(self.SHAPES) == 1008
        assert sum(map(bool, reports)) == 602
        assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == self.DIGEST


class TestOnePass:
    """A game checked as it is played keeps no log. Its verdicts must be
    those check_game gives on the stored log of the same fires."""

    @staticmethod
    def one_pass(log: SequenceLog, outcome) -> dict:
        check = GameCheck(log.params)
        slot = check.board.slot
        for mv in log.moves:
            check.fire(slot[mv.vertex], mv.chips)  # as a game hands it a fire: the slot and the chips
        return check.verdicts(outcome)

    @pytest.mark.parametrize("forged", ["order swap", "3x3"])
    def test_forged_logs(self, forged):
        if forged == "order swap":
            log = forged_order_swap()
        else:
            log = SequenceLog.from_text(StarParams(3, 3), FORGED_3X3.replace(" ", "\n"))
        outcome = totally_sorted_outcome(log.params)
        verdicts = self.one_pass(log, outcome)
        assert verdicts == check_game(outcome, log)
        assert not verdicts["poset"] and verdicts["length_matches"]

    def test_forged_engine_logs(self):
        rng = ReferenceSplitMix64(7)
        for k, m in TestForgedLogVerdicts.SHAPES:
            params = StarParams(k, m)
            for name in ("det", "random", "volmin"):
                outcome, game = played(params, make_strategy(name, seed=k * 10 + m))
                for kind in _MUTATIONS:
                    log = SequenceLog(params, _mutate(game.moves, kind, rng, params.n_chips))
                    assert self.one_pass(log, outcome) == check_game(outcome, log)

    @pytest.mark.parametrize("name", ["det", "random", "volmin"])
    def test_games_up_to_ten_by_ten(self, name):
        for k in range(1, 11):
            for m in range(1, 11):
                params = StarParams(k, m)
                outcome, log = played(params, make_strategy(name, seed=10 * k + m))
                check = GameCheck(params)
                game = stabilize_labeled(params, make_strategy(name, seed=10 * k + m), check.fire)
                assert game == (outcome, len(log.moves))
                verdicts = check.verdicts(outcome)
                assert verdicts == check_game(outcome, log) == self.one_pass(log, outcome)
                assert all(verdicts.values())
                assert check.fires == len(log.moves)
                assert check.per_vertex_fire_count == dict(Counter(mv.vertex for mv in log.moves))
