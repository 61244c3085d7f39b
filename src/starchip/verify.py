"""Checks that recorded stabilization sequences obey the known structure.

Near the end of every stabilization sequence from the all-on-center start,
each firing vertex performs its "endgame" fires: the final m-j fires of a
level-j vertex (the center counts as level 0). These are partially ordered:

* the fire one step further out with the same countdown index, and the fire
  one step further in with countdown index one higher, must both happen
  first ("outer-precedes", "inner-refire-precedes");
* each of the center's endgame fires happens only after every branch's
  level-1 fire with the same countdown index ("branch-precedes-center",
  skipped at the earliest countdown index);
* every endgame fire happens with exactly degree-many chips present
  ("exact-degree-chips").

A separate check watches what the center's endgame fires send outward: for a
fixed branch, consecutive sends never increase. (They can repeat: a level-1
vertex may bounce the same chip back to the center, which then returns it.)

By confluence every complete stabilization fires each vertex as often as
the closed form says, so a fire's count tells whether it is an endgame fire
as it comes. One :class:`GameCheck` makes every check fire by fire: a game
feeds it as it plays and keeps no log, and each log check, which returns a
:class:`VerifierReport` of the violations in order, feeds it a stored log.
Stable outcomes are checked for the two sorting guarantees: rows sorted
along each branch, and the innermost/outermost rings sorted across
branches.
"""
from __future__ import annotations

from collections import deque
from operator import lt
from typing import NamedTuple

from .core import (
    IllegalMoveError,
    LogInconsistencyError,
    Move,
    Outcome,
    StarParams,
    Vertex,
    _Replay,
    _board,
    parse_move,
)
from .engine import expected_total_fires


class SequenceLog(NamedTuple):
    """An ordered record of fires, normally a complete stabilization
    sequence read from text: the moves and nothing else. The verifiers read
    the moves once, front to back. A game keeps no log; a per-fire check of
    ``engine.stabilize_labeled`` records one."""

    params: StarParams
    moves: tuple[Move, ...]

    @classmethod
    def from_text(cls, params: StarParams, text: str) -> "SequenceLog":
        """The log of ``text``: one move per line, ``C:{1,2,3}`` or
        ``B(i,j):{a,b}``; blank lines and lines that start with ``#`` are
        skipped."""
        moves = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            moves.append(parse_move(line))
        return cls(params, tuple(moves))


class FireRef(NamedTuple):
    """A vertex fire addressed from the end: from_end = 0 is the vertex's last fire."""

    vertex: Vertex
    from_end: int


class Violation(NamedTuple):
    rule: str
    subject: tuple
    detail: str


class VerifierReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def endgame_refs(params: StarParams) -> list[FireRef]:
    """Every endgame fire of a full stabilization: level j contributes its
    last m-j fires, for j in [0, m-1]."""
    board = _board(params)
    return [FireRef(board.vertex[s], f) for s in board.firing for f in range(params.m - board.level[s])]


class GameCheck:
    """The checks of :func:`check_game`, made fire by fire: pass each fire
    to :meth:`fire`, in order, as a game makes it
    (``stabilize_labeled(params, strategy, check.fire)``) or a log records
    it, then read the verdicts off.

    It holds a ``core._Replay`` of the fires, how often each slot has
    fired, the index of each endgame fire (a slot's f-th from the end
    leaves f of its fires to come) and the center's last m fires. The
    replay and the chip count check stop at the first illegal fire; the
    counting goes on to the end."""

    __slots__ = (
        "board", "replay", "wanted", "times", "fired", "fires", "first", "stray", "center", "replayed", "sizes"
    )

    def __init__(self, params: StarParams):
        board = self.board = _board(params)
        self.replay: _Replay | None = _Replay(board)
        self.wanted = [board.fires.get(v, 0) for v in board.vertex]
        # for each slot, the index of its f-th fire from the end at entry f, or -1; none at level m
        self.times = [[-1] * (params.m - level) for level in board.level]
        self.fired = [0] * len(board.vertex)
        self.fires = 0
        self.first: list[Vertex] = []  # every fired vertex, in order of first fire
        self.stray: dict[Vertex, int] = {}  # fires of vertices that have no slot
        # (index, chips) of the center's last m fires; chips is None for a fire of other than k chips
        self.center: deque[tuple[int, tuple[int, ...] | None]] = deque(maxlen=params.m)
        self.replayed: list[Violation] = []  # exact-degree-chips and illegal-replay, in order
        self.sizes: list[Violation] = []  # center-fire-size, in order

    def fire(self, s: int | None, chips: tuple[int, ...], v: Vertex | None = None) -> None:
        """Check the next fire, ``chips`` at slot ``s`` of vertex ``v``: a log
        passes ``board.slot.get(v)`` and ``v``, a game the slot alone."""
        t = self.fires
        self.fires = t + 1
        replay = self.replay
        if s is None:
            if v not in self.stray:
                self.first.append(v)
            self.stray[v] = self.stray.get(v, 0) + 1
        else:
            n = self.fired[s] = self.fired[s] + 1
            if n == 1:
                self.first.append(self.board.vertex[s] if v is None else v)
            f = self.wanted[s] - n  # how many fires of this slot are still to come
            times = self.times[s]
            if 0 <= f < len(times):
                times[f] = t
                if replay is not None and replay.count[s] != replay.deg[s]:
                    v = self.board.vertex[s] if v is None else v
                    have, d = replay.count[s], replay.deg[s]
                    detail = f"endgame fire {v}^{f} at index {t} ran with {have} chips present, not {d}"
                    self.replayed.append(Violation("exact-degree-chips", (FireRef(v, f),), detail))
            if s == 0:
                k = self.board.params.k
                size = len(chips) if hasattr(chips, "__len__") else None  # the replay names chips of no size
                if size != k:
                    detail = f"center fire at index {t} sent {size} chips, not {k}"
                    self.sizes.append(Violation("center-fire-size", (t,), detail))
                self.center.append((t, chips if size == k else None))
        if replay is not None:
            try:
                replay.fire(s, chips, v)
            except IllegalMoveError as e:
                self.replayed.append(Violation("illegal-replay", (t,), str(e)))
                self.replay = None

    @property
    def per_vertex_fire_count(self) -> dict[Vertex, int]:
        """How often each fired vertex fired, in order of first fire."""
        slot, fired, stray = self.board.slot, self.fired, self.stray
        return {v: stray[v] if v in stray else fired[slot[v]] for v in self.first}

    def _complete(self) -> None:
        """Raise LogInconsistencyError unless every vertex fired as often as
        the closed form says."""
        if self.stray or self.fired != self.wanted:
            counts, closed = self.per_vertex_fire_count, self.board.fires
            raise LogInconsistencyError(f"per-vertex fire counts {counts} disagree with the closed form {closed}")

    def poset(self) -> list[Violation]:
        """:func:`verify_poset`'s violations: the order rules first, then what
        the replay found."""
        try:
            self._complete()
        except LogInconsistencyError as e:
            return [Violation("fire-count-mismatch", (), str(e))]
        board, times = self.board, self.times
        violations: list[Violation] = []

        def late(rule: str, u: int, g: int, s: int, f: int) -> None:
            # slot u's g-th fire from the end did not precede slot s's f-th, as rule requires
            earlier, later = FireRef(board.vertex[u], g), FireRef(board.vertex[s], f)
            detail = (
                f"{earlier.vertex}^{g} at index {times[u][g]} must precede {later.vertex}^{f} at index {times[s][f]}"
            )
            violations.append(Violation(rule, (earlier, later), detail))

        for s in board.firing:
            mine = times[s]
            if s == 0:  # the center
                receivers = [(u, times[u]) for u in board.routes[0]]
                for f, t in enumerate(mine):
                    for u, theirs in receivers:
                        if f < len(theirs) and theirs[f] >= t:
                            late("branch-precedes-center", u, f, s, f)
            else:
                inner, outer = board.routes[s]
                refires, outs = times[inner], times[outer]  # inner has one endgame fire more than s
                for f, t in enumerate(mine):
                    if refires[f + 1] >= t:
                        late("inner-refire-precedes", inner, f + 1, s, f)
                    if f < len(outs) and outs[f] >= t:
                        late("outer-precedes", outer, f, s, f)
        return violations + self.replayed

    def mixing(self, strict: bool = False) -> list[Violation]:
        """:func:`verify_mixing`'s violations."""
        k = self.board.params.k
        violations = list(self.sizes)
        endgame = [(t, chips) for t, chips in self.center if chips is not None]
        for (prev_t, previous), (t, sent) in zip(endgame, endgame[1:]):
            for i in range(k):
                if sent[i] > previous[i]:
                    detail = f"center fire at index {t} sent chip {sent[i]} to branch {i + 1}, larger than "
                    detail += f"{previous[i]} sent at index {prev_t}"
                    violations.append(Violation("center-send-increased", (prev_t, t, i + 1), detail))
                elif strict and sent[i] == previous[i]:
                    detail = f"center fires at indices {prev_t} and {t} both sent chip {sent[i]} to branch {i + 1}"
                    violations.append(Violation("center-send-repeated", (prev_t, t, i + 1), detail))
        return violations

    def verdicts(self, outcome: Outcome) -> dict[str, bool]:
        """:func:`check_game`'s verdicts on a game that ended in ``outcome``."""
        return {
            "poset": not self.poset(),
            "mixing": not self.mixing(),
            "branches_sorted": verify_branch_sorted(outcome),
            "rim_sorted": verify_rim_sorted(outcome),
            "length_matches": self.fires == expected_total_fires(self.board.params),
        }


def _checked(log: SequenceLog) -> GameCheck:
    """A :class:`GameCheck` fed the log's moves once, front to back."""
    check = GameCheck(log.params)
    slot, fire = check.board.slot, check.fire
    for mv in log.moves:
        fire(slot.get(mv.vertex), mv.chips, mv.vertex)
    return check


def endgame_positions(log: SequenceLog) -> dict[FireRef, int]:
    """Map each endgame fire, in :func:`endgame_refs` order, to its 0-based index in the log.

    Raises LogInconsistencyError if the log's per-vertex fire counts do not
    match the closed-form counts of a complete stabilization.
    """
    check = _checked(log)
    check._complete()
    board = check.board
    return {FireRef(board.vertex[s], f): t for s in board.firing for f, t in enumerate(check.times[s])}


def verify_poset(log: SequenceLog) -> VerifierReport:
    """Check the endgame-fire ordering and exact-chip conditions on one log.

    All findings are reported, none raised: a log that cannot even be
    replayed yields an ``illegal-replay`` violation. The order rules come
    first, then what the replay found, in log order.
    """
    return VerifierReport(tuple(_checked(log).poset()))


def verify_mixing(log: SequenceLog, strict: bool = False) -> VerifierReport:
    """Check chips sent outward by the center's endgame fires, per branch.

    For each branch the sequence of chips sent by successive endgame center
    fires must never increase. With ``strict=True``, repeats are flagged as
    well; repeats do occur in real play (a branch can return the chip it was
    just sent), so the strict mode is diagnostic rather than an invariant.
    A center fire of other than k chips is reported and left out of the
    comparison.
    """
    return VerifierReport(tuple(_checked(log).mixing(strict)))


def verify_branch_sorted(outcome: Outcome) -> bool:
    """True iff every branch reads strictly increasing from the center outward."""
    return all(all(map(lt, row, row[1:])) for row in outcome)


def verify_rim_sorted(outcome: Outcome) -> bool:
    """True iff the innermost and outermost chips are sorted across branches."""
    return verify_branch_sorted(([row[0] for row in outcome], [row[-1] for row in outcome]))


def check_game(outcome: Outcome, log: SequenceLog) -> dict[str, bool]:
    """Every check a complete game from all chips on the center must pass,
    by name: the endgame order, the center's sends, both sorting guarantees
    and the closed-form length."""
    return _checked(log).verdicts(outcome)
