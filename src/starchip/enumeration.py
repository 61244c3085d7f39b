"""Exhaustive search over stabilization sequences of the labeled game.

Every search is one forward sweep from the all-on-center start, one depth
layer at a time. The layering is exact: chip counts fix how often each vertex
has fired, so every path from the start to a given state has the same length
(Björner, Lovász and Shor, "Chip-firing games on graphs", 1991). Each state
has one child in the next layer per legal move, and only two layers are ever
held. Only ``enumerate_all``, whose counts are printed, carries a path count
per state: each state adds its count to every child, and after
``expected_total_fires`` layers the counts are the stabilization-sequence
counts of the stable outcomes, in Python's native big integers. The
outcome-only searches, ``reachable_set`` and ``enumerate_volmin``, hold
their states as dict keys with no value, so they meet the same states in
the same order and refuse a state budget exactly where the counted search
does. A state is one int, in which slot
s holds its labels as an n-bit mask at bits ``n*s`` (n = k*m); a fire adds a
cached step to it, summed from per-slot tables. A layer groups its states by
chip-count vector, which is all a play rule reads, so the sweep unpacks
only the label masks its step cache misses on, and the final states.
"""
from __future__ import annotations

import sys
from itertools import combinations
from math import comb
from typing import Callable, NamedTuple

from .core import (
    BudgetExceededError,
    ChipGameError,
    Outcome,
    StarParams,
    _Board,
    _State,
    _board,
    _calmest,
    _fireable,
    _outcome,
)
from .engine import expected_total_fires

DEFAULT_CELL_BUDGET = 8
"""Largest k*m enumerated without an explicit state budget."""

VOLMIN_CELL_BUDGET = 9
"""Restricted-tree searches stay tractable a step further than full ones."""


class EnumerationResult(NamedTuple):
    """Per-outcome stabilization-sequence counts for one (k, m)."""

    params: StarParams
    per_outcome: dict[Outcome, int]
    """Sequence count of each reachable outcome, in no specified order."""

    @property
    def total_sequences(self) -> int:
        return sum(self.per_outcome.values())

    def sorted_items(self) -> list[tuple[Outcome, int]]:
        """Rows ordered by ascending count, then lexicographically."""
        return sorted(self.per_outcome.items(), key=lambda kv: (kv[1], kv[0]))

    def to_json(self) -> str:
        import json

        doc = {
            "k": self.params.k,
            "m": self.params.m,
            "outcomes": [
                {"branches": [list(row) for row in outcome], "sequence_count": str(count)}
                for outcome, count in self.sorted_items()
            ],
            "total_sequences": str(self.total_sequences),
        }
        return json.dumps(doc, indent=2)


def _check_budget(params: StarParams, max_states: int | None, default_cells: int) -> None:
    if max_states is None and params.n_chips > default_cells:
        raise BudgetExceededError(
            f"k*m = {params.n_chips} exceeds the default cell budget of {default_cells}; "
            "no state budget (max_states) was given"
        )
    if max_states is not None and max_states < 1:
        raise ValueError("max_states must be >= 1")


def _sweep(
    params: StarParams,
    max_states: int | None,
    rule: Callable[[_Board, tuple[int, ...], list[int]], list[int]],
    counted: bool = True,
) -> dict[Outcome, int] | set[Outcome]:
    """The stable outcomes reached when a state may fire the slots
    ``rule(board, counts, fireable)`` keeps of its non-empty ``_fireable``
    slots, given its chip-count vector ``counts``, as a game's strategy calls
    ``core._calmest``: with the number of move sequences reaching each if
    ``counted``, else as a set. ``max_states`` bounds the distinct states
    discovered over all layers, the start included.

    A layer maps each chip-count vector to a dict of its states, keyed by
    state, whose values are the path counts if ``counted`` and all None if
    not, so ``_fireable`` and the rule run once per vector, on the vector
    itself. The step of firing chips at slot s is the sum of one
    table entry per chip: ``moves[s][i][c]`` moves label c from slot s to
    its i-th receiver, and slot s's table is built on its first step build,
    so a search the budget stops early builds few. Each slot's steps are
    cached by its label mask, and a mask is decoded only on a cache miss; of
    the states, only the final ones are. A slot holding exactly its degree
    has one fire, whose step is cached as one int. A miss whose fires would
    pass ``max_states`` even if every state already in their child group
    were among them raises before its steps are built, at the depth the
    build would have raised at."""
    board = _board(params)
    deg, routes, n = board.deg, board.routes, params.n_chips
    full = (1 << n) - 1
    limit = sys.maxsize if max_states is None else max_states

    def labels_of(mask: int) -> tuple[int, ...]:
        labels = []
        while mask:
            labels.append((low := mask & -mask).bit_length())
            mask ^= low
        return tuple(labels)

    def state_of(key: int) -> _State:
        return tuple(labels_of(key >> n * s & full) for s in range(len(deg)))

    def over_budget() -> BudgetExceededError:
        error = BudgetExceededError(f"state count exceeded max_states = {max_states} at depth {depth} of {total}")
        error.depth, error.total, error.max_states = depth, total, max_states
        return error

    def build(s: int, here: int, refused: bool) -> int | list[int]:
        # the steps of slot s's fires from label mask here, cached: one int
        # if it holds exactly its degree, else a list; a fire moves chips,
        # so no step is 0 and a cached one is never taken for a miss
        if refused:
            raise over_budget()
        table = moves[s]
        if table is None:
            table = moves[s] = [
                [0] + [((1 << n * u) - (1 << n * s)) << (c - 1) for c in range(1, n + 1)] for u in routes[s]
            ]
        steps = [sum(map(list.__getitem__, table, chips)) for chips in combinations(labels_of(here), deg[s])]
        steps_of[s][here] = steps = steps if len(steps) > 1 else steps[0]
        return steps

    moves: list[list[list[int]] | None] = [None] * len(deg)
    steps_of: list[dict[int, int | list[int]]] = [{} for _ in deg]
    total, states = expected_total_fires(params), 1
    layer = {tuple(map(len, board.start)): {full: 1 if counted else None}}
    for depth in range(1, total + 1):
        nxt: dict[tuple[int, ...], dict[int, int | None]] = {}
        for counts, group in layer.items():
            fireable = _fireable(board, counts)
            slots = fireable and rule(board, counts, fireable)
            if not slots:
                raise ChipGameError(f"internal error: no legal move at depth {depth - 1} of {total}")
            for s in slots:
                child_counts = [c + 1 if t in routes[s] else c for t, c in enumerate(counts)]
                child_counts[s] -= deg[s]
                children = nxt.setdefault(tuple(child_counts), {})
                shift, cache, fires = n * s, steps_of[s], comb(counts[s], deg[s])
                # the states outside this child group stay as they are while
                # it grows, so it may hold room states; distinct chip sets
                # give distinct children, so a step build of more fires than
                # room is sure to pass the budget; a group without counts is
                # checked after each key, before the next build, so it
                # refuses after the same builds as a counted one
                outside = states - len(children)
                room = limit - outside
                if counted and fires == 1:
                    for key, paths in group.items():
                        step = cache.get(here := key >> shift & full) or build(s, here, fires > room)
                        known = children.get(child := key + step)
                        if known is None:
                            if len(children) >= room:
                                raise over_budget()
                            children[child] = paths
                        else:
                            children[child] = known + paths
                elif counted:
                    for key, paths in group.items():
                        for step in cache.get(here := key >> shift & full) or build(s, here, fires > room):
                            known = children.get(child := key + step)
                            if known is None:
                                if len(children) >= room:
                                    raise over_budget()
                                children[child] = paths
                            else:
                                children[child] = known + paths
                elif fires == 1:
                    for key in group:
                        children[key + (cache.get(here := key >> shift & full) or build(s, here, fires > room))] = None
                        if len(children) > room:
                            raise over_budget()
                else:
                    for key in group:
                        for step in cache.get(here := key >> shift & full) or build(s, here, fires > room):
                            children[key + step] = None
                        if len(children) > room:
                            raise over_budget()
                states = outside + len(children)
        layer = nxt
    outcomes = {_outcome(board, state_of(key)): paths for group in layer.values() for key, paths in group.items()}
    return outcomes if counted else set(outcomes)


def _every(board: _Board, counts: tuple[int, ...], fireable: list[int]) -> list[int]:
    """The rule of a full search: every fireable slot may fire."""
    return fireable


def enumerate_all(params: StarParams, max_states: int | None = None) -> EnumerationResult:
    """Count every stabilization sequence from the all-on-center start.

    Two sequences are distinct when they differ in any move, where a move is
    a vertex plus the exact chip subset fired. Path counts are keyed on the
    state, so the cost scales with distinct states, not with sequences.
    Every fireable slot may fire.

    Raises BudgetExceededError when k*m exceeds the default cell budget and
    no explicit ``max_states`` is given, or when the number of distinct
    states passes ``max_states``; that error says how far the search got in
    its attributes ``depth``, of ``total`` layers, and ``max_states``.
    """
    _check_budget(params, max_states, DEFAULT_CELL_BUDGET)
    return EnumerationResult(params, _sweep(params, max_states, _every))


def reachable_set(params: StarParams, max_states: int | None = None) -> set[Outcome]:
    """All stable outcomes reachable from the all-on-center start: those of
    :func:`enumerate_all`, under the same budgets, found without path counts."""
    _check_budget(params, max_states, DEFAULT_CELL_BUDGET)
    return _sweep(params, max_states, _every, counted=False)


def enumerate_volmin(params: StarParams, max_states: int | None = None) -> set[Outcome]:
    """Outcomes reachable when every fire must be volatility-minimizing.

    Branches over every move at the slots ``core._calmest`` keeps, the rule
    ``VolatilityMinimizing`` plays by; the rule only prunes the tree, so the
    result is a subset of :func:`reachable_set`.
    """
    _check_budget(params, max_states, VOLMIN_CELL_BUDGET)
    return _sweep(params, max_states, _calmest, counted=False)
