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

Each check reads a log once, front to back. By confluence every complete
stabilization fires each vertex as often as the closed form says, so the
count of a vertex's fires so far tells whether a fire is an endgame fire as
it comes; only the endgame fires' indices are kept, and the order rules are
checked on them once the log ends.

Each log check returns a :class:`VerifierReport`, which holds the
violations it found, in order, and passes exactly when it holds none.

Stable outcomes themselves are checked for the two sorting guarantees:
rows sorted along each branch, and the innermost/outermost rings sorted
across branches.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    IllegalMoveError,
    LogInconsistencyError,
    Outcome,
    StarParams,
    Vertex,
    CENTER,
    _Board,
    _Replay,
    _board,
)
from .engine import SequenceLog, expected_total_fires


class FireRef(NamedTuple):
    """A vertex fire addressed from the end: from_end = 0 is the vertex's last fire."""

    vertex: Vertex
    from_end: int


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: tuple
    detail: str


@dataclass(frozen=True)
class VerifierReport:
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations


def endgame_refs(params: StarParams) -> list[FireRef]:
    """Every endgame fire of a full stabilization: level j contributes its
    last m-j fires, for j in [0, m-1]."""
    board = _board(params)
    return [FireRef(board.vertex[s], f) for s in board.firing for f in range(params.m - board.level[s])]


def _endgame_walk(log: SequenceLog, board: _Board) -> tuple[list[list[int]], list[Violation]]:
    """Read the log once, front to back, replaying it from ``_Board.start``
    on a ``core._Replay``: the slot of each label and the chip count of each
    slot, which is all the checks read. Its fires refuse an illegal move
    with ``core._check_fire``'s text.

    The closed-form counts say in advance which fires are endgame fires: a
    slot's f-th fire from the end is the one that leaves f of its fires to
    come. Returns, for each slot, the log indices of its endgame fires,
    last fire first (entry f is the index of the slot's f-th fire from the
    end; slots at level m have none), and the ``exact-degree-chips`` and
    ``illegal-replay`` violations met on the way. The replay and the chip
    check stop at the first refused fire; the counting and the times go on
    to the end of the log.

    Raises LogInconsistencyError if the log's per-vertex fire counts do not
    match the closed-form counts of a complete stabilization."""
    slot, deg = board.slot, board.deg
    wanted = [board.fires.get(v, 0) for v in board.vertex]
    times = [[-1] * (board.params.m - level) for level in board.level]
    fired = [0] * len(board.vertex)
    stray: dict[Vertex, int] = {}  # fires of vertices that have no slot
    first: list[Vertex] = []  # every fired vertex, in order of first fire
    violations: list[Violation] = []
    played = _Replay(board)
    count, fire = played.count, played.fire
    for t, mv in enumerate(log.moves):
        v = mv.vertex
        s = slot.get(v)
        if s is None:
            if v not in stray:
                first.append(v)
            stray[v] = stray.get(v, 0) + 1
        else:
            if not fired[s]:
                first.append(v)
            fired[s] += 1
            f = wanted[s] - fired[s]  # how many fires of this slot are still to come
            if 0 <= f < len(times[s]):
                times[s][f] = t
                if fire is not None and count[s] != deg[s]:
                    violations.append(
                        Violation(
                            "exact-degree-chips",
                            (FireRef(v, f),),
                            f"endgame fire {v}^{f} at index {t} ran with "
                            f"{count[s]} chips present, not {deg[s]}",
                        )
                    )
        if fire is not None:
            try:
                fire(s, mv)
            except IllegalMoveError as e:
                violations.append(Violation("illegal-replay", (t,), str(e)))
                fire = None
    if stray or fired != wanted:
        counts = {v: stray[v] if v in stray else fired[slot[v]] for v in first}
        raise LogInconsistencyError(f"per-vertex fire counts {counts} disagree with the closed form {board.fires}")
    return times, violations


def endgame_positions(log: SequenceLog) -> dict[FireRef, int]:
    """Map each endgame fire, in :func:`endgame_refs` order, to its 0-based index in the log.

    Raises LogInconsistencyError if the log's per-vertex fire counts do not
    match the closed-form counts of a complete stabilization.
    """
    board = _board(log.params)
    times, _ = _endgame_walk(log, board)
    return {FireRef(board.vertex[s], f): t for s in board.firing for f, t in enumerate(times[s])}


def verify_poset(log: SequenceLog) -> VerifierReport:
    """Check the endgame-fire ordering and exact-chip conditions on one log.

    All findings are reported, none raised: a log that cannot even be
    replayed yields an ``illegal-replay`` violation. The order rules come
    first, then what the replay found, in log order.
    """
    board = _board(log.params)
    try:
        times, replayed = _endgame_walk(log, board)
    except LogInconsistencyError as e:
        return VerifierReport((Violation("fire-count-mismatch", (), str(e)),))
    violations: list[Violation] = []

    def late(rule: str, u: int, g: int, s: int, f: int) -> None:
        """Report that slot u's g-th fire from the end did not precede slot
        s's f-th, as ``rule`` requires."""
        earlier, later = FireRef(board.vertex[u], g), FireRef(board.vertex[s], f)
        detail = f"{earlier.vertex}^{g} at index {times[u][g]} must precede {later.vertex}^{f} at index {times[s][f]}"
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
    return VerifierReport(tuple(violations + replayed))


def verify_mixing(log: SequenceLog, strict: bool = False) -> VerifierReport:
    """Check chips sent outward by the center's endgame fires, per branch.

    For each branch the sequence of chips sent by successive endgame center
    fires must never increase. With ``strict=True``, repeats are flagged as
    well; repeats do occur in real play (a branch can return the chip it was
    just sent), so the strict mode is diagnostic rather than an invariant.
    A center fire of other than k chips is reported and left out of the
    comparison.
    """
    k = log.params.k
    violations: list[Violation] = []
    last = deque(maxlen=log.params.m)  # (index, chips) of the center's last m fires
    for t, mv in enumerate(log.moves):
        if mv.vertex == CENTER:
            if len(mv.chips) != k:
                detail = f"center fire at index {t} sent {len(mv.chips)} chips, not {k}"
                violations.append(Violation("center-fire-size", (t,), detail))
            last.append((t, mv.chips))
    endgame = [(t, chips) for t, chips in last if len(chips) == k]
    for (prev_t, previous), (t, sent) in zip(endgame, endgame[1:]):
        for i in range(k):
            if sent[i] > previous[i]:
                violations.append(
                    Violation(
                        "center-send-increased",
                        (prev_t, t, i + 1),
                        f"center fire at index {t} sent chip {sent[i]} to branch {i + 1}, "
                        f"larger than {previous[i]} sent at index {prev_t}",
                    )
                )
            elif strict and sent[i] == previous[i]:
                violations.append(
                    Violation(
                        "center-send-repeated",
                        (prev_t, t, i + 1),
                        f"center fires at indices {prev_t} and {t} both sent chip "
                        f"{sent[i]} to branch {i + 1}",
                    )
                )
    return VerifierReport(tuple(violations))


def verify_branch_sorted(outcome: Outcome) -> bool:
    """True iff every branch reads strictly increasing from the center outward."""
    return all(all(a < b for a, b in zip(row, row[1:])) for row in outcome)


def verify_rim_sorted(outcome: Outcome) -> bool:
    """True iff the innermost and outermost chips are sorted across branches."""
    return verify_branch_sorted(([row[0] for row in outcome], [row[-1] for row in outcome]))


def check_game(outcome: Outcome, log: SequenceLog) -> dict[str, bool]:
    """Every check a complete game from all chips on the center must pass,
    by name: the endgame order, the center's sends, both sorting guarantees
    and the closed-form length."""
    return {
        "poset": verify_poset(log).passed,
        "mixing": verify_mixing(log).passed,
        "branches_sorted": verify_branch_sorted(outcome),
        "rim_sorted": verify_rim_sorted(outcome),
        "length_matches": len(log) == expected_total_fires(log.params),
    }
