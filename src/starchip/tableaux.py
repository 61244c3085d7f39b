"""Rectangular standard Young tableaux and their links to stable outcomes.

A stable outcome of the labeled game is a k x m matrix (rows = branches,
columns = levels), which is literally a tableau filling. For m = 2 the
reachable outcomes are exactly the standard fillings, counted by Catalan
numbers; for larger m every standard filling is still reachable, via an
explicit firing script built here (:func:`witness_sequence`).
"""
from __future__ import annotations

import math
import sys
from operator import index
from typing import Sequence

from .core import (
    BudgetExceededError,
    ChipGameError,
    Move,
    Outcome,
    StarParams,
    WitnessConstructionError,
    _Board,
    _Frozen,
    _State,
    _board,
    outcome_to_text,
)
from .engine import stabilize_labeled
from .verify import verify_branch_sorted, verify_rim_sorted

GENERATION_CELL_BUDGET = 12


class Tableau(_Frozen):
    """A rectangular filling with the labels 1..k*m, each used once. Each
    entry is stored as the int ``operator.index`` gives, so a bool is stored
    as its int, and an entry that is not an int, such as 4.0, raises
    ValueError.

    ``is_standard`` holds when rows increase left to right and columns
    increase top to bottom; general fillings are allowed so that arbitrary
    outcomes can be inspected as tableaux.
    """

    __slots__ = ("rows",)
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        rows = tuple(tuple(row) for row in rows)
        try:
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise ValueError("tableau entries must be int labels") from None
        if not rows or not rows[0]:
            raise ValueError("tableau must have at least one row and one column")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise ValueError("tableau rows must all have the same length")
        n = len(rows) * m
        entries = {x for row in rows for x in row}
        if entries != set(range(1, n + 1)):
            raise ValueError(f"entries must be a permutation of 1..{n}")
        object.__setattr__(self, "rows", rows)

    def _values(self) -> tuple[tuple[tuple[int, ...], ...]]:
        return (self.rows,)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def is_standard(self) -> bool:
        return verify_branch_sorted(self.rows) and _columns_strictly_increase(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def __str__(self) -> str:
        return outcome_to_text(self.rows)


def from_outcome(outcome: Outcome) -> Tableau:
    """View a stable outcome as a tableau: entry (i, j) is branch i, level j."""
    return Tableau(outcome)


def to_outcome(t: Tableau) -> Outcome:
    """The stable outcome whose branch i, level j holds entry (i, j).

    Defined only for standard tableaux. Every standard filling is a
    reachable outcome (see :func:`witness_sequence`), but not every
    reachable outcome is standard: (2,4) has 16 reachable outcomes and 14
    standard fillings. Volatility-minimizing play reaches exactly the
    standard fillings on (5,3), all 6,006 of them, but not on (3,4).
    """
    if not t.is_standard:
        raise ValueError(f"tableau {t} is not standard")
    return t.rows


def catalan(k: int) -> int:
    """The k-th Catalan number, binom(2k, k) / (k + 1), exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def _syt_digits(k: int, m: int) -> int:
    """Decimal digits of :func:`count_rect_syt`, estimated in floating point
    from log (km)! less the sum of the log hook lengths. Counted from the
    bottom, row i's hooks are i, .., i+m-1, so its log sum is
    lgamma(i+m) - lgamma(i); transposing keeps the hooks, so the sum runs
    over the shorter side."""
    a, b = sorted((k, m))
    log_hooks = sum(math.lgamma(i + b) - math.lgamma(i) for i in range(1, a + 1))
    return math.floor((math.lgamma(k * m + 1) - log_hooks) / math.log(10)) + 1


def count_rect_syt(k: int, m: int) -> int:
    """Number of standard fillings of a k x m rectangle, by the hook length
    formula: (km)! divided by the product of all hook lengths. A single
    row or column has one filling, returned before any product.

    Raises BudgetExceededError, before any big product, for a count with
    more decimal digits than the interpreter converts to text
    (``sys.get_int_max_str_digits``; a limit of 0 means none)."""
    StarParams(k, m)  # refuses k < 1 or m < 1
    if k == 1 or m == 1:
        return 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (digits := _syt_digits(k, m)) > limit:
        raise BudgetExceededError(
            f"the count of standard {k} x {m} tableaux has about {digits} decimal digits, "
            f"more than the interpreter's limit of {limit} for printing an integer"
        )
    hooks = 1
    for i in range(k):
        for j in range(m):
            hooks *= (k - i) + (m - j) - 1
    return math.factorial(k * m) // hooks


def generate_syts(k: int, m: int) -> list[Tableau]:
    """All standard k x m tableaux, in a fixed deterministic order.

    Fills values 1..km in increasing order; a value may extend any row that
    is still shorter than the row above it. Budgeted at k*m <= 12 cells.
    """
    StarParams(k, m)  # refuses k < 1 or m < 1
    if k * m > GENERATION_CELL_BUDGET:
        raise BudgetExceededError(
            f"k*m = {k * m} exceeds the generation cell budget of {GENERATION_CELL_BUDGET}"
        )
    results: list[Tableau] = []
    grid = [[0] * m for _ in range(k)]
    filled = [0] * k

    def place(val: int) -> None:
        if val > k * m:
            results.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        for i in range(k):
            if filled[i] < m and (i == 0 or filled[i] < filled[i - 1]):
                grid[i][filled[i]] = val
                filled[i] += 1
                place(val + 1)
                filled[i] -= 1

    place(1)
    return results


class _WitnessScript:
    """The strategy behind :func:`witness_sequence` for a standard tableau.

    The innermost ready branch vertex fires first (lowest level, then lowest
    branch), and it must hold exactly two chips. When only the center can
    fire, it fires the highest column of the tableau that it holds in full.
    """

    def __init__(self, t: Tableau):
        self._tableau = t
        # Columns of a standard tableau increase downward, so each is sorted.
        self._columns = [t.column(j) for j in range(t.shape[1])]

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, Sequence[int]]:
        level = board.level
        branch = [s for s in fireable if level[s]]
        if branch:
            s = min(branch, key=lambda s: (level[s], s))
            if len(state[s]) != 2:
                raise WitnessConstructionError(f"branch vertex {board.vertex[s]} holds {list(state[s])}")
            return s, state[s]
        present = set(state[0])
        for column in reversed(self._columns):
            if present.issuperset(column):
                return 0, column
        raise WitnessConstructionError(f"center holds {list(state[0])}, no full column of {self._tableau}")


def witness_sequence(t: Tableau) -> list[Move]:
    """A legal firing script from the all-on-center start that lands on
    ``to_outcome(t)``.

    The script keeps branch chips inside their own rows: whenever a branch
    vertex holds two chips it is fired (innermost vertices first), and when
    only the center can fire it fires the highest column of the tableau that
    is fully present there. Columns of a standard tableau increase downward,
    so each such center fire routes every chip to its own row's branch.

    A script that breaks this rule or lands elsewhere raises
    WitnessConstructionError, which indicates a bug, not bad input.
    """
    outcome = to_outcome(t)
    params, moves = StarParams(*t.shape), []
    vertex = _board(params).vertex
    final, _ = stabilize_labeled(params, _WitnessScript(t), lambda s, chips: moves.append(Move(vertex[s], chips)))
    if final != outcome:
        raise WitnessConstructionError(f"script for {t} stabilized elsewhere")
    return moves


def _columns_strictly_increase(grid: tuple[tuple[int, ...], ...]) -> bool:
    return verify_branch_sorted(zip(*grid))


def sort_rows(mat: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Sort each row of a column-sorted grid; columns stay sorted.

    Requires a rectangular grid of distinct integers whose columns strictly
    increase top to bottom. That the result's columns still increase is a
    classical fact; it is re-checked at runtime as a tripwire.
    """
    grid = tuple(tuple(row) for row in mat)
    if not grid or not grid[0] or any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("grid must be rectangular and non-empty")
    if len({x for row in grid for x in row}) != len(grid) * len(grid[0]):
        raise ValueError("grid entries must be distinct")
    if not _columns_strictly_increase(grid):
        raise ValueError("grid columns must strictly increase top to bottom")
    result = tuple(tuple(sorted(row)) for row in grid)
    if not _columns_strictly_increase(result):
        raise ChipGameError("row sorting broke column order; this cannot happen")
    return result


def is_row_and_rim_sorted(t: Tableau) -> bool:
    """True iff rows strictly increase and so do the first and last columns."""
    return verify_branch_sorted(t.rows) and verify_rim_sorted(t.rows)
