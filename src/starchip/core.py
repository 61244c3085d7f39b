"""Core state model for chip-firing on a subdivided star graph.

The board is a "star" of k half-infinite paths (branches) glued at a single
center vertex. Branch vertices are addressed by (branch, level) with level 1
adjacent to the center; the center has degree k, every branch vertex degree 2.

Two games live on this board:

* unlabeled: a vertex holding at least degree-many chips may fire, sending
  one chip to each neighbor;
* labeled: chips carry distinct labels 1..N. A center fire picks k chips and
  routes the i-th smallest to branch i. A branch fire picks 2 chips and sends
  the smaller toward the center, the larger outward.

``engine.stabilize_unlabeled`` plays the unlabeled game on a plain dict of
chip counts. The labeled game has one start, all k*m labels on the center,
and one state representation, the packed state described above ``_State``,
which a game fires in place.
"""
from __future__ import annotations

import re
from bisect import insort
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

Outcome = tuple[tuple[int, ...], ...]
"""Stable result of the labeled game: row i holds branch i's labels, center-outward."""


class ChipGameError(Exception):
    """Base class for all errors raised by this package."""


class IllegalMoveError(ChipGameError):
    """A move whose fired chips are not available (or wrongly sized) at its vertex."""

    def __init__(self, vertex: "Vertex", chips: tuple[int, ...], reason: str, step: int | None = None):
        self.vertex = vertex
        self.chips = chips
        self.reason = reason
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"illegal move {Move(vertex, chips)}{at}: {reason}")


class ShapeError(ChipGameError):
    """A configuration does not have the one-chip-per-filled-vertex stable shape."""


class BudgetExceededError(ChipGameError):
    """A search or generation task exceeded its configured resource budget."""


class LogInconsistencyError(ChipGameError):
    """A move log's per-vertex fire counts contradict the closed-form counts."""


class WitnessConstructionError(ChipGameError):
    """Internal failure while building a scripted firing sequence (indicates a bug)."""


class Vertex(NamedTuple):
    """Address of a star vertex. The center is ``Vertex(0, 0)``; branch vertices
    have branch >= 1 and level >= 1. Tuple ordering gives the canonical vertex
    order (center first, then by branch and level)."""

    branch: int
    level: int

    @property
    def is_center(self) -> bool:
        return self.level == 0

    def __str__(self) -> str:
        return "C" if self.is_center else f"B({self.branch},{self.level})"


CENTER = Vertex(0, 0)

_VERTEX_RE = re.compile(r"^(?:C|B\((\d+),(\d+)\))$")


def branch_vertex(branch: int, level: int) -> Vertex:
    if branch < 1 or level < 1:
        raise ValueError(f"branch vertex needs branch >= 1 and level >= 1, got ({branch},{level})")
    return Vertex(branch, level)


def parse_vertex(text: str) -> Vertex:
    m = _VERTEX_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse vertex {text!r}")
    if m.group(1) is None:
        return CENTER
    return branch_vertex(int(m.group(1)), int(m.group(2)))


class _Frozen:
    """Base of the package's validated records. A subclass names its fields
    in ``__slots__``, sets each once, in ``__init__``, with
    ``object.__setattr__``, and returns their values, in that order, from
    ``_values``; assigning or deleting a field later raises AttributeError.
    Records of one class are equal, and hash alike, when their fields are
    equal, and repr as ``Name(field=value, ...)``."""

    __slots__ = ()

    def _values(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class StarParams(_Frozen):
    """Game parameters: k branches, m target levels per branch.

    The labeled game always starts with n_chips = k*m labels on the center;
    the unlabeled game accepts any starting pile.
    """

    __slots__ = ("k", "m")
    k: int
    m: int

    def __init__(self, k: int, m: int) -> None:
        if k < 1 or m < 1:
            raise ValueError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    def _values(self) -> tuple[int, int]:
        return self.k, self.m

    @property
    def n_chips(self) -> int:
        return self.k * self.m


def degree(params: StarParams, v: Vertex) -> int:
    """Vertex degree: k at the center, 2 on every branch vertex. A vertex
    off the star raises ValueError."""
    if v.is_center:
        if v != CENTER:
            raise ValueError(f"malformed center vertex {v!r}")
        return params.k
    if not (1 <= v.branch <= params.k) or v.level < 1:
        raise ValueError(f"vertex {v} is not on a star with k={params.k}")
    return 2


class Move(NamedTuple):
    """One firing event: a vertex together with the exact chips fired.

    ``chips`` is sorted and has size degree(vertex). Two moves are equal iff
    both the vertex and the chip set agree; sequence counting works at this
    granularity.
    """

    vertex: Vertex
    chips: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.vertex}:{{{','.join(map(str, self.chips))}}}"


_MOVE_RE = re.compile(r"^(C|B\(\d+,\d+\)):\{([\d,\s]*)\}$")


def parse_move(text: str) -> Move:
    m = _MOVE_RE.match(text.strip())
    if m is None:
        raise ValueError(f"cannot parse move {text!r}")
    vertex = parse_vertex(m.group(1))
    chips = tuple(sorted(int(t) for t in m.group(2).replace(" ", "").split(",") if t))
    return Move(vertex, chips)


def _receivers(k: int, v: Vertex) -> tuple[Vertex, ...]:
    """The routing rule: the i-th smallest chip fired at v lands on the i-th
    receiver. A center fire feeds branch i, level 1, in branch order; a
    branch fire sends its smaller chip inward (to the center from level 1)
    and its larger one outward."""
    if v.is_center:
        return tuple(Vertex(i, 1) for i in range(1, k + 1))
    return (CENTER if v.level == 1 else Vertex(v.branch, v.level - 1), Vertex(v.branch, v.level + 1))


def _check_fire(params: StarParams, v: Vertex, have: Iterable[int], fired: tuple[int, ...]) -> None:
    """The legality checks of firing ``fired`` at ``v`` while it holds the
    labels ``have``, which name what is wrong with a fire that
    :meth:`_Replay.fire` refuses.

    Raises IllegalMoveError, also for chips that are not a tuple, such as
    a list, for a vertex off the star and for a label that is not an int,
    such as 1.0, which equals the label 1 (a bool counts as an int)."""
    if not isinstance(fired, tuple):
        raise IllegalMoveError(v, fired, "chips must be a tuple")
    try:
        d = degree(params, v)
    except ValueError:  # v is off the star
        raise IllegalMoveError(v, fired, f"vertex is not on a star with k={params.k}") from None
    if len(fired) != d:
        raise IllegalMoveError(v, fired, f"must fire exactly {d} chips")
    if not all(isinstance(c, int) for c in fired):
        raise IllegalMoveError(v, fired, "chips must be int labels")
    if tuple(sorted(fired)) != fired or len(set(fired)) != d:
        raise IllegalMoveError(v, fired, "chips must be distinct and sorted")
    if not set(fired).issubset(have):
        raise IllegalMoveError(v, fired, f"chips not present (vertex holds {sorted(have)})")


# Packed state: what the searches and the games run on, from _Board.start to
# the matrix _outcome reads off. Slot 0 is the center and slot
# 1 + (i-1)*m + (j-1) branch i, level j; each slot holds its labels in
# ascending order. The sweep keeps a state as one int (enumeration._sweep).
# A play rule reads only chip counts: _fireable gives the slots that can
# fire, and a rule, such as _calmest, narrows them; a game and the sweep
# call it alike. A game fires in place on one list of lists (_fire), which
# stays sorted, so a strategy draws from it unsorted and must not change it.
# A replay or a verifier holds a _Replay instead, the slot of each label and
# the chip count of each slot. From k*m chips on the center level m never
# fires (_fire_count), so the slots cover every reachable state. Readers
# only index slots and take lengths, so tuples of tuples and lists of lists
# serve alike.

_State = Sequence[Sequence[int]]


def _fire_count(m: int, level: int) -> int:
    """The closed form: from k*m chips on the center, every stabilization
    fires a level-j vertex (the center: j = 0) (m-j)(m-j+1)/2 times for j < m
    and never otherwise."""
    d = max(m - level, 0)
    return d * (d + 1) // 2


class _Board(NamedTuple):
    """Slot tables of the packed state for one (k, m)."""

    params: StarParams
    vertex: tuple[Vertex, ...]
    """Vertex of each slot; slot order is canonical vertex order."""
    slot: dict[Vertex, int]
    deg: tuple[int, ...]
    level: tuple[int, ...]
    routes: tuple[tuple[int, ...], ...]
    """Receiving slots of each slot, as :func:`_receivers` orders them; empty at level m."""
    firing: tuple[int, ...]
    """The slots below level m, the only ones that ever fire."""
    fires: dict[Vertex, int]
    """How often each vertex of ``firing`` fires in every game, by
    :func:`_fire_count`, in slot order."""
    start: _State
    """The labeled game's start: every label on the center."""


@lru_cache(maxsize=16)  # a (300,300) board holds about 37 MB, so only a few are kept
def _board(params: StarParams) -> _Board:
    k, m = params.k, params.m
    vertex = (CENTER,) + tuple(Vertex(i, j) for i in range(1, k + 1) for j in range(1, m + 1))
    slot = {v: s for s, v in enumerate(vertex)}
    routes = tuple(() if v.level == m else tuple(slot[u] for u in _receivers(k, v)) for v in vertex)
    return _Board(
        params=params,
        vertex=vertex,
        slot=slot,
        deg=tuple(degree(params, v) for v in vertex),
        level=tuple(v.level for v in vertex),
        routes=routes,
        firing=tuple(s for s, r in enumerate(routes) if r),
        fires={v: _fire_count(m, v.level) for v in vertex if v.level < m},
        start=(tuple(range(1, params.n_chips + 1)),) + ((),) * (k * m),
    )


def _fireable(board: _Board, counts: Sequence[int]) -> list[int]:
    """Slots that can fire, in canonical vertex order, given the chip count
    of each slot."""
    deg = board.deg
    return [s for s in board.firing if counts[s] >= deg[s]]


def _fire(board: _Board, state: list[list[int]], s: int, chips: tuple[int, ...], fireable: list[int]) -> None:
    """Fire the sorted ``chips`` at slot ``s`` in place by the routing rule
    of :func:`_receivers`, and keep ``fireable``, the fireable slots of
    ``state`` in canonical vertex order, so: a fire changes fireability
    only at ``s``, which drops out when it falls below its degree, and at
    its receivers, each of which joins when its new chip brings it to its
    degree and it has routes.

    A slot without routes or a number of chips other than its degree
    raises ValueError before anything changes. A chip ``s`` does not hold,
    or one named twice, raises ValueError from ``list.remove`` before any
    chip is routed, with ``s`` part-emptied. Either way ``fireable`` is
    left as it was."""
    deg, routes = board.deg, board.routes
    held, d = state[s], deg[s]
    if len(chips) != d or not routes[s]:
        raise ValueError(f"slot {s} cannot fire {chips}")
    for c in chips:
        held.remove(c)
    if len(held) < d:
        fireable.remove(s)
    for u, c in zip(routes[s], chips):
        receiver = state[u]
        insort(receiver, c)
        if len(receiver) == deg[u] and routes[u]:
            insort(fireable, u)


class _Replay:
    """A replay's state, started from ``_Board.start``: ``where[c]`` is the
    slot of label c (``where[0]`` is unused) and ``count[s]`` the number of
    chips on slot s.

    :meth:`fire` accepts exactly the legal moves, as the differential test
    against ``tests/oracles.py`` pins, and refuses the others with
    :func:`_check_fire`'s IllegalMoveError, leaving the state as it was.
    Level m never holds two chips from this start, so it never fires."""

    __slots__ = ("board", "deg", "routes", "n", "where", "count")

    def __init__(self, board: _Board):
        self.board, self.deg, self.routes, self.n = board, board.deg, board.routes, board.params.n_chips
        self.where = [0] * (self.n + 1)
        self.count = [len(labels) for labels in board.start]
        for s, labels in enumerate(board.start):
            for c in labels:
                self.where[c] = s

    def fire(self, s: int | None, chips: tuple[int, ...], v: Vertex | None = None) -> None:
        """Fire ``chips`` at vertex ``v``, whose slot ``s`` is
        ``board.slot.get(v)``; only a refused fire reads ``v``, by default
        the vertex of ``s``. A fire is legal when ``s`` is not None and the
        chips are a tuple of degree-many ints, strictly increasing within
        1..k*m, each on ``s``."""
        where, count, n = self.where, self.count, self.n
        if s is not None and isinstance(chips, tuple) and len(chips) == self.deg[s]:
            last = 0
            try:
                for c in chips:
                    if not last < c <= n or where[c] != s:
                        break
                    last = c
                else:
                    count[s] -= len(chips)
                    for u, c in zip(self.routes[s], chips):
                        where[c] = u
                        count[u] += 1
                    return
            except TypeError:  # a label that is not an int cannot index where
                pass
        if v is None:
            v = self.board.vertex[s]
        _check_fire(self.board.params, v, [c for c in range(1, n + 1) if where[c] == s], chips)
        raise AssertionError(f"_check_fire accepts {Move(v, chips)}, which the replay refuses")

    def state(self) -> list[list[int]]:
        """The packed state: every slot's labels, in ascending order."""
        state: list[list[int]] = [[] for _ in self.count]
        for c in range(1, self.n + 1):
            state[self.where[c]].append(c)
        return state


def _calmest(board: _Board, counts: Sequence[int], fireable: list[int]) -> list[int]:
    """The slots of the non-empty ``fireable`` that the volatility-minimizing
    filter keeps, in the order given: those whose fire leaves the fewest
    slots ready, and of those the ones furthest from the center. ``counts``
    holds the chip count of each slot.

    Firing s leaves the other fireable slots ready, s itself if it holds
    a second fire's worth of chips, and every receiver its new chip brings
    up to its degree.
    """
    deg, routes, level = board.deg, board.routes, board.level
    others = len(fireable) - 1
    scores = [
        others + (counts[s] >= 2 * deg[s]) + sum(counts[u] + 1 == deg[u] for u in routes[s]) for s in fireable
    ]
    best = min(scores)
    calmest = [s for s, score in zip(fireable, scores) if score == best]
    top_level = max(level[s] for s in calmest)
    return [s for s in calmest if level[s] == top_level]


def _outcome(board: _Board, state: _State) -> Outcome:
    """Read a stabilized packed state off as a k x m label matrix.

    Requires the only stable shape reachable from the all-on-center start:
    one chip on each of the first m levels of every branch, none on the
    center, and the labels 1..k*m. Anything else raises ShapeError.

    A state in that shape passes the first test and is read off at once;
    only the others go through the checks that name what is wrong.
    """
    m, n = board.params.m, board.params.n_chips
    flat = [labels[0] for labels in state[1:] if len(labels) == 1]
    if not state[0] and len(flat) == n and sorted(flat) == list(range(1, n + 1)):
        return tuple(tuple(flat[s : s + m]) for s in range(0, n, m))
    rows = [state[s : s + m] for s in range(1, len(state), m)]
    if any(len(row[-1]) > 1 for row in rows):  # level m never fires on the packed state
        raise ShapeError(f"chips pile up on level {m} and must pass it, so the game cannot end in the stable shape")
    if _fireable(board, list(map(len, state))):
        raise ShapeError("configuration is not stable")
    if state[0] or any(len(labels) != 1 for row in rows for labels in row):
        raise ShapeError(f"stable configuration does not fill exactly levels 1..{m} of each branch")
    raise ShapeError(f"the labels are not 1..{n}, each once")


def outcome_to_text(outcome: Outcome) -> str:
    """Bracket notation, branches center-outward: ``[1,3],[2,4]``."""
    return ",".join("[" + ",".join(map(str, row)) + "]" for row in outcome)


def outcome_from_text(text: str) -> Outcome:
    rows = re.findall(r"\[([\d,\s]*)\]", text)
    if not rows:
        raise ValueError(f"cannot parse outcome {text!r}")
    return tuple(tuple(int(t) for t in row.replace(" ", "").split(",") if t) for row in rows)


def totally_sorted_outcome(params: StarParams) -> Outcome:
    """The outcome where branch i holds labels (i-1)*m+1 .. i*m in order."""
    m = params.m
    return tuple(tuple(range((i - 1) * m + 1, i * m + 1)) for i in range(1, params.k + 1))


def is_totally_sorted(outcome: Outcome) -> bool:
    m = len(outcome[0])
    return all(row == tuple(range((i - 1) * m + 1, i * m + 1)) for i, row in enumerate(outcome, start=1))
