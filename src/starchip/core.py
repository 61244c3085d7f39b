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

Configurations are immutable values; firing produces a fresh configuration.
"""
from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True)
class StarParams:
    """Game parameters: k branches, m target levels per branch.

    The labeled game always starts with n_chips = k*m labels on the center;
    the unlabeled game accepts any starting pile.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m < 1:
            raise ValueError(f"need k >= 1 and m >= 1, got k={self.k}, m={self.m}")

    @property
    def n_chips(self) -> int:
        return self.k * self.m


def degree(params: StarParams, v: Vertex) -> int:
    """Vertex degree: k at the center, 2 on every branch vertex."""
    check_vertex(params, v)
    return params.k if v.is_center else 2


def check_vertex(params: StarParams, v: Vertex) -> None:
    if v.is_center:
        if v != CENTER:
            raise ValueError(f"malformed center vertex {v!r}")
        return
    if not (1 <= v.branch <= params.k) or v.level < 1:
        raise ValueError(f"vertex {v} is not on a star with k={params.k}")


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


class _Config:
    """What both configuration classes derive from ``count_at`` and their sorted
    ``_key`` of (vertex, contents) pairs; configurations of two classes never match."""

    __slots__ = ()

    @property
    def is_stable(self) -> bool:
        return not any(True for _ in self.fireable_vertices())

    def fireable_vertices(self) -> Iterator[Vertex]:
        for v, _ in self._key:
            if self.count_at(v) >= degree(self.params, v):
                yield v

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.params == other.params and self._key == other._key

    def __hash__(self) -> int:
        return hash((self.params, self._key))


class UnlabeledConfig(_Config):
    """Sparse chip-count configuration: vertices absent from ``counts`` hold zero."""

    __slots__ = ("params", "counts", "_key")

    def __init__(self, params: StarParams, counts: Mapping[Vertex, int]):
        clean: dict[Vertex, int] = {}
        for v, c in counts.items():
            check_vertex(params, v)
            if c < 0:
                raise ValueError(f"negative chip count {c} at {v}")
            if c > 0:
                clean[v] = c
        self.params = params
        self.counts = clean
        self._key = tuple(sorted(clean.items()))

    def count_at(self, v: Vertex) -> int:
        return self.counts.get(v, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{c}" for v, c in self._key)
        return f"UnlabeledConfig({inner})"


class LabeledConfig(_Config):
    """Assignment of the labels 1..N to star vertices (sparse; N = k*m).

    The label sets over all vertices always partition {1, .., N}: no label is
    duplicated or missing. Values are immutable; use :func:`apply_move`.
    """

    __slots__ = ("params", "chips", "_key")

    def __init__(self, params: StarParams, chips: Mapping[Vertex, Iterable[int]]):
        clean: dict[Vertex, frozenset[int]] = {}
        for v, labels in chips.items():
            check_vertex(params, v)
            s = frozenset(labels)
            if s:
                clean[v] = s
        n = params.n_chips
        if sorted(chain.from_iterable(clean.values())) != list(range(1, n + 1)):
            raise ValueError(f"labels must partition 1..{n} exactly")
        self.params = params
        self.chips = clean
        self._key = tuple(sorted((v, tuple(sorted(s))) for v, s in clean.items()))

    def labels_at(self, v: Vertex) -> frozenset[int]:
        return self.chips.get(v, frozenset())

    def count_at(self, v: Vertex) -> int:
        return len(self.chips.get(v, ()))

    def to_unlabeled(self) -> UnlabeledConfig:
        """Forget the labels, keeping chip counts."""
        return UnlabeledConfig(self.params, {v: len(s) for v, s in self.chips.items()})

    def key(self) -> tuple:
        """Canonical hashable form: sorted (vertex, sorted labels) pairs."""
        return self._key

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{{{','.join(map(str, s))}}}" for v, s in self._key)
        return f"LabeledConfig({inner})"


def initial_labeled(params: StarParams) -> LabeledConfig:
    """All labels 1..k*m stacked on the center: the labeled game's start."""
    return LabeledConfig(params, {CENTER: range(1, params.n_chips + 1)})


def initial_unlabeled(params: StarParams, n: int) -> UnlabeledConfig:
    """n unlabeled chips on the center, nothing elsewhere."""
    if n < 0:
        raise ValueError(f"chip count must be >= 0, got {n}")
    return UnlabeledConfig(params, {CENTER: n})


def is_stable(config: LabeledConfig | UnlabeledConfig) -> bool:
    return config.is_stable


def legal_moves(config: LabeledConfig) -> list[Move]:
    """All legal single fires, in canonical order.

    Vertices come center-first then by (branch, level); each vertex
    contributes every size-degree subset of its chips in lexicographic order
    of the sorted labels. Empty exactly when the configuration is stable.
    """
    moves: list[Move] = []
    for v in config.fireable_vertices():
        d = degree(config.params, v)
        for chips in combinations(sorted(config.chips[v]), d):
            moves.append(Move(v, chips))
    return moves


def _receivers(k: int, v: Vertex) -> tuple[Vertex, ...]:
    """The routing rule: the i-th smallest chip fired at v lands on the i-th
    receiver. A center fire feeds branch i, level 1, in branch order; a
    branch fire sends its smaller chip inward (to the center from level 1)
    and its larger one outward."""
    if v.is_center:
        return tuple(Vertex(i, 1) for i in range(1, k + 1))
    return (CENTER if v.level == 1 else Vertex(v.branch, v.level - 1), Vertex(v.branch, v.level + 1))


def _check_fire(
    params: StarParams, v: Vertex, have: Iterable[int], fired: tuple[int, ...], d: int | None = None
) -> None:
    """The legality checks of firing ``fired`` at ``v`` while it holds the
    labels ``have``, shared by :func:`apply_move` and :meth:`_Replay.fire`.
    ``d`` is v's degree if the caller has it; otherwise it is looked up.

    Raises IllegalMoveError, also for a vertex off the star."""
    if d is None:
        try:
            d = degree(params, v)
        except ValueError:  # check_vertex: v is off the star
            raise IllegalMoveError(v, fired, f"vertex is not on a star with k={params.k}") from None
    if len(fired) != d:
        raise IllegalMoveError(v, fired, f"must fire exactly {d} chips")
    if tuple(sorted(fired)) != fired or len(set(fired)) != d:
        raise IllegalMoveError(v, fired, "chips must be distinct and sorted")
    if not set(fired).issubset(have):
        raise IllegalMoveError(v, fired, f"chips not present (vertex holds {sorted(have)})")


def apply_move(config: LabeledConfig, move: Move) -> LabeledConfig:
    """Fire one vertex, returning the new configuration.

    Center fire: the i-th smallest fired label lands on branch i, level 1.
    Branch fire at (i, j) with labels a < b: a moves inward (center when
    j = 1), b moves outward to level j + 1.

    Raises IllegalMoveError if the move is not legal here.
    """
    v, fired = move
    params = config.params
    have = config.labels_at(v)
    _check_fire(params, v, have, fired)

    new: dict[Vertex, frozenset[int]] = dict(config.chips)
    new[v] = have.difference(fired)
    for u, label in zip(_receivers(params.k, v), fired):
        new[u] = new.get(u, frozenset()) | {label}
    return LabeledConfig(params, new)


# Packed state: what the exhaustive searches and the game drivers run on,
# from _Board.start to the matrix _outcome reads off. It is indexed by vertex
# slot, slot 0 being the center and slot 1 + (i-1)*m + (j-1) branch i,
# level j, and each slot holds its labels in ascending order. The sweep keeps
# each state as one int (see enumeration._sweep) and decodes it into a tuple
# of tuples only for the move filter, once per chip-count group, and for the
# final read-off. A game copies _Board.start into one list of lists and fires
# in place on it (see _fire), so a fire touches only the fired slot and its
# receivers; whoever reads that list while the game runs, a strategy
# included, must not change it. A replay or a verifier reads no labels off a
# slot, so it holds a _Replay instead: the slot of each label and the chip
# count of each slot, and a fire touches only the fired chips and the counts.
# Started from k*m chips on the center, level m never fires (see _fire_count),
# so no chip passes it and the slots cover every reachable state.
# LabeledConfig is the checked public form; _pack and _unpack convert at the
# edges. Every reader here only indexes slots and takes their length, so it
# reads either form.

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


def _pack(config: LabeledConfig) -> _State:
    """The packed state of a configuration. A chip past level m has no slot
    and never comes back inside, so it raises ShapeError."""
    board = _board(config.params)
    state: list[tuple[int, ...]] = [()] * len(board.vertex)
    for v, labels in config.chips.items():
        if v not in board.slot:  # LabeledConfig keeps v on the star, so v.level > m
            raise ShapeError(f"chips lie past level {config.params.m}, so no game from here ends in the stable shape")
        state[board.slot[v]] = tuple(sorted(labels))
    return tuple(state)


def _unpack(params: StarParams, state: _State) -> LabeledConfig:
    """Validate a packed state back into a configuration."""
    return LabeledConfig(params, dict(zip(_board(params).vertex, state)))


def _fireable(board: _Board, state: _State) -> list[int]:
    """Slots that can fire, in canonical vertex order."""
    deg = board.deg
    return [s for s in board.firing if len(state[s]) >= deg[s]]


def _fire(board: _Board, state: list[list[int]], s: int, chips: tuple[int, ...]) -> None:
    """Unchecked :func:`apply_move` in place on a game's packed state:
    ``chips`` must be a sorted size-degree subset of slot ``s``'s labels.

    Only slot ``s`` and its receivers change. Nothing is checked here:
    fired labels that ``s`` does not hold are still routed, and ``s`` loses
    only those it holds, so ``engine.stabilize_labeled`` tells an illegal
    fire by how many chips left ``s`` and has ``engine.replay`` name it."""
    state[s] = [c for c in state[s] if c not in chips]
    for u, c in zip(board.routes[s], chips):
        insort(state[u], c)


class _Replay:
    """A replay's state, started from ``_Board.start``: ``where[c]`` is the
    slot of label c (``where[0]`` is unused) and ``count[s]`` the number of
    chips on slot s. The board's tables ride along for :meth:`fire`.

    :meth:`fire` accepts exactly the moves :func:`apply_move` accepts and
    refuses the others with its IllegalMoveError text, as the differential
    test in ``tests/test_core.py`` pins; a refused move leaves the state as
    it was. From the all-on-center start, level m never holds two chips
    (level m-1 fires once in every stabilization, and no legal sequence
    fires a vertex more often), so no fire there is accepted."""

    __slots__ = ("board", "deg", "routes", "n", "where", "count")

    def __init__(self, board: _Board):
        self.board, self.deg, self.routes, self.n = board, board.deg, board.routes, board.params.n_chips
        self.where = [0] * (self.n + 1)
        self.count = [len(labels) for labels in board.start]
        for s, labels in enumerate(board.start):
            for c in labels:
                self.where[c] = s

    def fire(self, s: int | None, move: Move) -> None:
        """Fire ``move`` in place; ``s`` is ``board.slot.get(move.vertex)``,
        which every caller has at hand.

        A fire is legal when its vertex has a slot, it names degree-many
        chips in a tuple, they strictly increase within 1..k*m, and each
        sits on the slot. Only a refused fire lists the slot's labels, in
        ascending order, for :func:`_check_fire` to name what is wrong."""
        v, chips = move
        where, count = self.where, self.count
        if s is not None and isinstance(chips, tuple) and len(chips) == self.deg[s]:
            last = 0
            for c in chips:
                if not last < c <= self.n or where[c] != s:
                    break
                last = c
            else:
                count[s] -= len(chips)
                for u, c in zip(self.routes[s], chips):
                    where[c] = u
                    count[u] += 1
                return
        if s is None:
            _check_fire(self.board.params, v, (), chips)
        else:
            _check_fire(self.board.params, v, [c for c in range(1, self.n + 1) if where[c] == s], chips, self.deg[s])
        raise AssertionError(f"_check_fire accepts {move}, which the replay refuses")

    def state(self) -> list[list[int]]:
        """The packed state: every slot's labels, in ascending order."""
        state: list[list[int]] = [[] for _ in self.count]
        for c in range(1, self.n + 1):
            state[self.where[c]].append(c)
        return state


def _calmest(board: _Board, state: _State, fireable: list[int]) -> list[int]:
    """The slots of the non-empty ``fireable`` that the volatility-minimizing
    filter keeps, in the order given: those whose fire leaves the fewest
    slots ready, and of those the ones furthest from the center.

    Firing s leaves the other fireable slots ready, s itself if it holds
    a second fire's worth of chips, and every receiver its new chip brings
    up to its degree. The count depends on chip counts alone.
    """
    deg, routes, level = board.deg, board.routes, board.level
    others = len(fireable) - 1
    scores = [
        others + (len(state[s]) >= 2 * deg[s]) + sum(len(state[u]) + 1 == deg[u] for u in routes[s])
        for s in fireable
    ]
    best = min(scores)
    calmest = [s for s, score in zip(fireable, scores) if score == best]
    top_level = max(level[s] for s in calmest)
    return [s for s in calmest if level[s] == top_level]


def _volmin_fireable(board: _Board, state: _State) -> list[int]:
    """The slots that survive the volatility-minimizing filter, in canonical
    vertex order; empty exactly when the state is stable."""
    fireable = _fireable(board, state)
    return _calmest(board, state, fireable) if fireable else fireable


def _outcome(board: _Board, state: _State) -> Outcome:
    """Read a stabilized packed state off as a k x m label matrix.

    Requires the only stable shape reachable from the all-on-center start:
    one chip on each of the first m levels of every branch, none on the
    center, and the labels 1..k*m. Anything else raises ShapeError.
    """
    m, n = board.params.m, board.params.n_chips
    rows = [state[s : s + m] for s in range(1, len(state), m)]
    if any(len(row[-1]) > 1 for row in rows):  # level m never fires on the packed state
        raise ShapeError(f"chips pile up on level {m} and must pass it, so the game cannot end in the stable shape")
    if _fireable(board, state):
        raise ShapeError("configuration is not stable")
    if state[0] or any(len(labels) != 1 for row in rows for labels in row):
        raise ShapeError(f"stable configuration does not fill exactly levels 1..{m} of each branch")
    outcome = tuple(tuple(labels[0] for labels in row) for row in rows)
    if sorted(c for row in outcome for c in row) != list(range(1, n + 1)):
        raise ShapeError(f"the labels are not 1..{n}, each once")
    return outcome


def canonical_outcome(config: LabeledConfig) -> Outcome:
    """Read a stabilized configuration off as a k x m label matrix, with the
    checks of :func:`_outcome`."""
    return _outcome(_board(config.params), _pack(config))


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
