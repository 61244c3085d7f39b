"""Independent reference implementations used only to check the package.

These deliberately avoid the package's data structures and memoization so
that agreement with them is meaningful evidence, not a tautology.
"""
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

from starchip.rng import SplitMix64

CENTER = "C"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ReferenceSplitMix64:
    """The splitmix64 stream with one mixed draw per loop: ``randrange``
    takes ``next_u64`` outputs until one lies below the largest multiple of
    n under 2^64, and ``subset`` pops one ``randrange`` draw at a time from
    the sorted pool. A range past 2^64 takes the fewest outputs whose
    2^(64·words) span covers it, the first as the most significant word,
    and rejects at the largest multiple of n in that span. It carries its
    own copy of the mix, so it shares no code with
    :class:`starchip.rng.SplitMix64`."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        words = 1
        while 1 << 64 * words < n:
            words += 1
        span = 1 << 64 * words
        limit = span - span % n
        while True:
            outputs = [self.next_u64() for _ in range(words)]
            r = sum(x << 64 * (words - 1 - i) for i, x in enumerate(outputs))
            if r < limit:
                return r % n

    def subset(self, pool, size: int) -> tuple:
        items = sorted(pool)
        return tuple(sorted(items.pop(self.randrange(len(items))) for _ in range(size)))


def _naive_moves(cfg, k):
    moves = []
    for v in sorted(cfg, key=lambda x: (0,) if x == CENTER else (1,) + x):
        chips = sorted(cfg[v])
        deg = k if v == CENTER else 2
        if len(chips) >= deg:
            moves.extend((v, comb) for comb in combinations(chips, deg))
    return moves


def _naive_apply(cfg, move, k):
    v, fired = move
    new = {u: set(s) for u, s in cfg.items()}
    for c in fired:
        new[v].remove(c)
    if v == CENTER:
        for i, c in enumerate(fired, start=1):
            new.setdefault((i, 1), set()).add(c)
    else:
        i, j = v
        a, b = fired
        new.setdefault(CENTER if j == 1 else (i, j - 1), set()).add(a)
        new.setdefault((i, j + 1), set()).add(b)
    return {u: frozenset(s) for u, s in new.items() if s}


def naive_vertex(v):
    """A vertex in the oracle's form, ``"C"`` or ``(branch, level)``, from
    any pair such as the package's ``Vertex``; the center is (0, 0)."""
    return CENTER if tuple(v) == (0, 0) else tuple(v)


def naive_refusal(cfg, move, k):
    """Why ``move`` may not fire on ``cfg``, as the package words it, or
    None when it may. ``move`` is ``(vertex, chips)`` with the vertex in the
    oracle's form. The rules, in the order they are checked: the chips
    come in a tuple, the vertex is on the star, the move fires exactly the
    vertex's degree in chips, every chip is an int (a bool is one), the
    chips strictly increase, and the vertex holds each of them."""
    v, fired = move
    if not isinstance(fired, tuple):
        return "chips must be a tuple"
    if v != CENTER and not (1 <= v[0] <= k and v[1] >= 1):
        return f"vertex is not on a star with k={k}"
    deg = k if v == CENTER else 2
    if len(fired) != deg:
        return f"must fire exactly {deg} chips"
    if any(not isinstance(c, int) for c in fired):
        return "chips must be int labels"
    if any(a >= b for a, b in zip(fired, fired[1:])):
        return "chips must be distinct and sorted"
    held = sorted(cfg.get(v, ()))
    if any(c not in held for c in fired):
        return f"chips not present (vertex holds {held})"
    return None


def naive_replay(k, m, moves):
    """Play ``moves``, ``(vertex, chips)`` pairs with the vertex as any pair
    (see :func:`naive_vertex`), from all labels on the center. Returns the
    first move the rules of :func:`naive_refusal` refuse, as its 1-based
    step, the configuration it was tried on and the reason, or None."""
    cfg = {CENTER: frozenset(range(1, k * m + 1))}
    for t, (v, chips) in enumerate(moves, start=1):
        move = (naive_vertex(v), chips)
        reason = naive_refusal(cfg, move, k)
        if reason is not None:
            return t, cfg, reason
        cfg = _naive_apply(cfg, move, k)
    return None


def naive_state_text(cfg) -> str:
    """``cfg`` as the package names a state in its errors, vertices in
    canonical order: ``C:{3,4}, B(1,1):{1}, B(2,1):{2}``."""
    order = sorted(cfg, key=lambda x: (0,) if x == CENTER else (1,) + x)
    names = {v: "C" if v == CENTER else f"B({v[0]},{v[1]})" for v in order}
    return ", ".join(f"{names[v]}:{{{','.join(map(str, sorted(cfg[v])))}}}" for v in order if cfg[v])


def naive_sequence_counts(k: int, m: int) -> Counter:
    """Walk every maximal move sequence from the all-on-center start and
    tally final outcomes. No memoization: cost is the number of sequences."""
    tally: Counter = Counter()

    def walk(cfg):
        moves = _naive_moves(cfg, k)
        if not moves:
            rows = [[None] * m for _ in range(k)]
            for v, s in cfg.items():
                i, j = v
                rows[i - 1][j - 1] = next(iter(s))
            tally[tuple(tuple(r) for r in rows)] += 1
            return
        for mv in moves:
            walk(_naive_apply(cfg, mv, k))

    walk({CENTER: frozenset(range(1, k * m + 1))})
    return tally


def naive_total_sequences(k: int, m: int) -> int:
    """Count every maximal labeled move sequence from the all-on-center
    start without looking at labels.

    A vertex ``v`` holding ``n_v`` chips offers exactly ``C(n_v, deg v)``
    labeled moves, one per choice of chips to fire. That number depends
    only on the chip counts, and a fire at ``v`` changes the chip counts in
    the same way whichever chips it sends. So the number of labeled
    sequences is the sum, over unlabeled firing sequences, of the product
    of those binomials. The recursion below sees chip counts alone: the
    center, and ``rows[i][j - 1]`` at branch ``i + 1``, level ``j``. It is
    cached on those counts, which are not the package's labeled states.
    """

    @lru_cache(maxsize=None)
    def walk(center: int, rows: tuple) -> int:
        total = 0
        if center >= k:
            after = tuple((row[0] + 1,) + row[1:] if row else (1,) for row in rows)
            total += comb(center, k) * walk(center - k, after)
        for i, row in enumerate(rows):
            for j, n in enumerate(row):
                if n < 2:
                    continue
                new = list(row) + [0] * (j + 2 - len(row))
                new[j] -= 2
                new[j + 1] += 1
                if j:
                    new[j - 1] += 1
                after = rows[:i] + (tuple(new),) + rows[i + 1:]
                total += comb(n, 2) * walk(center + (j == 0), after)
        stable = center < k and all(n < 2 for row in rows for n in row)
        return 1 if stable else total

    return walk(k * m, ((),) * k)


def _naive_ready(cfg, k):
    """Vertices that can fire, in the order ``_naive_moves`` lists them."""
    return list(dict.fromkeys(v for v, _ in _naive_moves(cfg, k)))


def naive_volmin_moves(cfg, k: int) -> list:
    """The legal moves the volatility-minimizing filter allows, in the order
    ``_naive_moves`` lists them; empty exactly when ``cfg`` is stable.

    It trial-fires one move per ready vertex, counts the vertices still
    ready afterwards, keeps the minimum and then the highest level (the
    center is level 0).
    """
    moves = _naive_moves(cfg, k)
    first = {}
    for v, chips in moves:
        first.setdefault(v, (v, chips))
    if not first:
        return []
    after = {v: len(_naive_ready(_naive_apply(cfg, mv, k), k)) for v, mv in first.items()}
    calm = [v for v in first if after[v] == min(after.values())]
    level = {v: 0 if v == CENTER else v[1] for v in calm}
    keep = {v for v in calm if level[v] == max(level.values())}
    return [mv for mv in moves if mv[0] in keep]


def naive_volmin_outcomes(k: int, m: int) -> set:
    """Outcomes of every game in which each fire is one ``naive_volmin_moves``
    allows, from a layered search over sets of configurations."""
    layer = {frozenset({CENTER: frozenset(range(1, k * m + 1))}.items())}
    outcomes = set()
    while layer:
        nxt = set()
        for frozen in layer:
            cfg = dict(frozen)
            moves = naive_volmin_moves(cfg, k)
            if not moves:
                rows = [[None] * m for _ in range(k)]
                for (i, j), s in cfg.items():
                    rows[i - 1][j - 1] = next(iter(s))
                outcomes.add(tuple(tuple(r) for r in rows))
            for mv in moves:
                nxt.add(frozenset(_naive_apply(cfg, mv, k).items()))
        layer = nxt
    return outcomes


def naive_play(k: int, m: int, strategy: str, seed: int) -> list:
    """One labeled game from the all-on-center start, as a list of
    ``(vertex, chips)`` moves with vertex ``"C"`` or ``(branch, level)``.

    ``strategy`` is ``"det"`` (the first legal move), ``"random"`` (a ready
    vertex uniformly, then its chips drawn one at a time without
    replacement from the sorted pool) or ``"volmin"`` (a move that
    ``naive_volmin_moves`` allows). The random and volmin players index the
    full list they built with ``ReferenceSplitMix64.randrange``.
    """
    rng = ReferenceSplitMix64(seed)
    cfg = {CENTER: frozenset(range(1, k * m + 1))}
    played = []
    while True:
        moves = _naive_moves(cfg, k)
        if not moves:
            return played
        if strategy == "det":
            mv = moves[0]
        elif strategy == "random":
            ready = _naive_ready(cfg, k)
            v = ready[rng.randrange(len(ready))]
            pool = sorted(cfg[v])
            picked = [pool.pop(rng.randrange(len(pool))) for _ in range(k if v == CENTER else 2)]
            mv = (v, tuple(sorted(picked)))
        elif strategy == "volmin":
            allowed = naive_volmin_moves(cfg, k)
            mv = allowed[rng.randrange(len(allowed))]
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        played.append(mv)
        cfg = _naive_apply(cfg, mv, k)


def rrs_fillings(k: int, m: int) -> set:
    """Every row-and-rim-sorted (RRS) filling of a k x m grid with the labels
    1..k*m, as a tuple of rows: each row strictly increases, and so do the
    first and the last column.

    Rows increase and so does the first column, so the smallest label left
    always starts the next row, and any m - 1 of the others complete it.
    The fillings are built row set by row set on that rule, and the last
    column is checked once every row is placed.
    """
    fillings = set()

    def extend(rows: tuple, left: tuple) -> None:
        if not left:
            if all(upper[-1] < lower[-1] for upper, lower in zip(rows, rows[1:])):
                fillings.add(rows)
            return
        first, rest = left[0], left[1:]
        for tail in combinations(rest, m - 1):
            extend(rows + ((first,) + tail,), tuple(c for c in rest if c not in tail))

    extend((), tuple(range(1, k * m + 1)))
    return fillings


def random_column_sorted_grid(rows: int, cols: int, rng: SplitMix64) -> tuple:
    """A uniform random arrangement of 1..rows*cols into columns, each column
    then sorted, yielding a grid whose columns strictly increase."""
    pool = list(range(1, rows * cols + 1))
    shuffled = []
    while pool:
        shuffled.append(pool.pop(rng.randrange(len(pool))))
    columns = [sorted(shuffled[c * rows:(c + 1) * rows]) for c in range(cols)]
    return tuple(tuple(columns[c][r] for c in range(cols)) for r in range(rows))
