"""Exhaustive search over stabilization sequences of the labeled game.

Every search is one forward sweep from the all-on-center start, one depth
layer at a time. The layering is exact: chip counts fix how often each vertex
has fired, so every path from the start to a given state has the same length
(Björner, Lovász and Shor, "Chip-firing games on graphs", 1991). Each state
adds its path count to every child in the next layer, one child per legal
move, and only two layers are ever held. After ``expected_total_fires``
layers the counts are the stabilization-sequence counts of the stable
outcomes, in Python's native big integers. A state is one int, in which slot
s holds its labels as an n-bit mask at bits ``n*s`` (n = k*m); a fire adds a
cached step to it, summed from per-slot tables. A layer groups its states by
chip-count vector, which is all a play rule reads, so the sweep unpacks
only the label masks its step cache misses on, and the final states.
"""
from __future__ import annotations

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
    params: StarParams, max_states: int | None, rule: Callable[[_Board, tuple[int, ...], list[int]], list[int]]
) -> dict[Outcome, int]:
    """Move sequences reaching each stable outcome when a state may fire the
    slots ``rule(board, counts, fireable)`` keeps of its non-empty
    ``_fireable`` slots, given its chip-count vector ``counts``, as a game's
    strategy calls ``core._calmest``; ``max_states`` bounds the distinct
    states discovered over all layers, the start included.

    A layer maps each chip-count vector to its states, so ``_fireable`` and
    the rule run once per vector, on the vector itself. The step of firing
    chips at slot s is the sum of one table entry per chip:
    ``moves[s][i][c]`` moves label c from slot s to its i-th receiver, and
    slot s's table is built on its first fire, so a search the budget stops
    early builds few. Each slot's steps are cached by its label mask, and a
    mask is decoded only on a cache miss; of the states, only the final ones
    are. A miss whose fires would pass ``max_states`` even if every state
    already in their child group were among them raises before its steps
    are built, at the depth the build would have raised at."""
    board = _board(params)
    deg, routes, n = board.deg, board.routes, params.n_chips
    full = (1 << n) - 1

    def labels_of(mask: int) -> tuple[int, ...]:
        labels = []
        while mask:
            labels.append((low := mask & -mask).bit_length())
            mask ^= low
        return tuple(labels)

    def state_of(key: int) -> _State:
        return tuple(labels_of(key >> n * s & full) for s in range(len(deg)))

    def over_budget(depth: int) -> BudgetExceededError:
        return BudgetExceededError(f"state count exceeded max_states = {max_states} at depth {depth} of {total}")

    moves: list[list[list[int]] | None] = [None] * len(deg)
    steps_of: list[dict[int, list[int]]] = [{} for _ in deg]
    total, states = expected_total_fires(params), 1
    layer = {tuple(map(len, board.start)): {full: 1}}
    for depth in range(1, total + 1):
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        for counts, group in layer.items():
            fireable = _fireable(board, counts)
            slots = fireable and rule(board, counts, fireable)
            if not slots:
                raise ChipGameError(f"internal error: no legal move at depth {depth - 1} of {total}")
            for s in slots:
                child_counts = [c + 1 if t in routes[s] else c for t, c in enumerate(counts)]
                child_counts[s] -= deg[s]
                children = nxt.setdefault(tuple(child_counts), {})
                shift, cache, table = n * s, steps_of[s], moves[s]
                if table is None:
                    table = moves[s] = [
                        [0] + [((1 << n * u) - (1 << shift)) << (c - 1) for c in range(1, n + 1)] for u in routes[s]
                    ]
                fires = comb(counts[s], deg[s])
                for key, paths in group.items():
                    steps = cache.get(here := key >> shift & full)
                    if steps is None:
                        # distinct chip sets give distinct children, so at least
                        # fires - len(children) of them are new: refuse a build
                        # that is sure to pass the budget before making it
                        if max_states is not None and fires - len(children) > max_states - states:
                            raise over_budget(depth)
                        steps = cache[here] = [
                            sum(map(list.__getitem__, table, chips)) for chips in combinations(labels_of(here), deg[s])
                        ]
                    for step in steps:
                        known = children.get(child := key + step)
                        if known is None:
                            if max_states is not None and states >= max_states:
                                raise over_budget(depth)
                            states += 1
                            children[child] = paths
                        else:
                            children[child] = known + paths
        layer = nxt
    return {_outcome(board, state_of(key)): paths for group in layer.values() for key, paths in group.items()}


def enumerate_all(params: StarParams, max_states: int | None = None) -> EnumerationResult:
    """Count every stabilization sequence from the all-on-center start.

    Two sequences are distinct when they differ in any move, where a move is
    a vertex plus the exact chip subset fired. Path counts are keyed on the
    state, so the cost scales with distinct states, not with sequences.
    Every fireable slot may fire.

    Raises BudgetExceededError when k*m exceeds the default cell budget and
    no explicit ``max_states`` is given, or when the number of distinct
    states passes ``max_states``.
    """
    _check_budget(params, max_states, DEFAULT_CELL_BUDGET)
    return EnumerationResult(params, _sweep(params, max_states, lambda board, counts, fireable: fireable))


def reachable_set(params: StarParams, max_states: int | None = None) -> set[Outcome]:
    """All stable outcomes reachable from the all-on-center start."""
    return set(enumerate_all(params, max_states).per_outcome)


def enumerate_volmin(params: StarParams, max_states: int | None = None) -> set[Outcome]:
    """Outcomes reachable when every fire must be volatility-minimizing.

    Branches over every move at the slots ``core._calmest`` keeps, the rule
    ``VolatilityMinimizing`` plays by; the rule only prunes the tree, so the
    result is a subset of :func:`reachable_set`.
    """
    _check_budget(params, max_states, VOLMIN_CELL_BUDGET)
    return set(_sweep(params, max_states, _calmest))
