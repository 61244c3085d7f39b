"""Stabilization drivers for the unlabeled and labeled games.

Every configuration with finitely many chips on the star stabilizes, and all
stabilization sequences from a fixed start agree in length and in how often
each vertex fires (confluence). Starting from k*m chips on the center, the
one start of the labeled game (``_Board.start``), those counts have a closed
form: :func:`expected_fire_count`, and :func:`expected_total_fires`, the
length of every labeled game. Games run on the packed state of
:mod:`starchip.core`, one mutable copy of ``_Board.start`` per game, fired
in place: a strategy names each fire as a slot and its chips, the driver
checks each fire by its size and by the chips that leave the slot, and
``core._outcome`` reads the final state off. Replays hold only where each label is (``core._Replay``).

Seeded random trials run on every usable CPU: :func:`fork_trials` splits
``range(trials)`` into consecutive ranges and plays all but the first in
children made with ``os.fork``. Trial i depends only on (params, seed, i),
so the output does not depend on the number of CPUs. It forks only where
``os.fork`` exists, the process runs one thread, and every process gets at
least FORK_MIN_FIRES fires of work (trials times
:func:`expected_total_fires`); otherwise every trial runs in the calling
process.
"""
from __future__ import annotations

import marshal
import os
import sys
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from math import comb
from operator import index
from typing import Callable, Iterable, Iterator, Protocol, TypeVar

from .core import (
    CENTER,
    IllegalMoveError,
    Move,
    Outcome,
    ShapeError,
    StarParams,
    Vertex,
    _Board,
    _State,
    _board,
    _calmest,
    _Replay,
    _fire,
    _fire_count,
    _fireable,
    _outcome,
    _receivers,
    degree,
    parse_move,
)
from .rng import SplitMix64, derive_seed


def expected_fire_count(params: StarParams, v: Vertex) -> int:
    """How often vertex v fires when k*m center chips stabilize.

    Level j (center: j = 0) fires (m-j)(m-j+1)/2 times for j < m and never
    otherwise, in every stabilization sequence. A vertex off the star
    raises :func:`degree`'s ValueError.
    """
    degree(params, v)
    return _fire_count(params.m, v.level)


def expected_total_fires(params: StarParams) -> int:
    """Length of every stabilization sequence from k*m chips on the center."""
    k, m = params.k, params.m
    return m * (m + 1) // 2 + k * ((m - 1) * m * (m + 1) // 6)


def stabilize_unlabeled(params: StarParams, n: int) -> tuple[dict[Vertex, int], dict[Vertex, int]]:
    """Drive n unlabeled center chips to stability; return (counts, fires):
    the chip count of each vertex that holds chips, in canonical vertex
    order, and how often each vertex fired. The number of fires is
    ``sum(fires.values())``. A negative n raises ValueError.

    Fires in center-outward sweeps, batching repeated fires of one vertex.
    By confluence the result and the counts are order-independent.
    """
    if n < 0:
        raise ValueError(f"chip count must be >= 0, got {n}")
    counts = {CENTER: n}
    fires: Counter[Vertex] = Counter()
    while ready := [(v, d) for v in sorted(counts) if counts[v] >= (d := degree(params, v))]:
        for v, d in ready:  # only its own fire takes chips from v, so v still fires
            t = counts[v] // d
            counts[v] -= t * d
            fires[v] += t
            for u in _receivers(params.k, v):
                counts[u] = counts.get(u, 0) + t
    return {v: c for v, c in sorted(counts.items()) if c}, dict(fires)


@dataclass(frozen=True, eq=True)
class SequenceLog:
    """An ordered record of fires, normally a complete stabilization
    sequence: the moves and nothing else. Its readers, the verifiers
    included, read the moves once, front to back."""

    params: StarParams
    moves: tuple[Move, ...]

    @property
    def per_vertex_fire_count(self) -> dict[Vertex, int]:
        """How often each fired vertex fires, in order of first fire."""
        return dict(Counter(mv.vertex for mv in self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)

    def to_text(self) -> str:
        """One move per line: ``C:{1,2,3}`` or ``B(i,j):{a,b}``."""
        return "\n".join(str(mv) for mv in self.moves) + ("\n" if self.moves else "")

    @classmethod
    def from_text(cls, params: StarParams, text: str) -> "SequenceLog":
        moves = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            moves.append(parse_move(line))
        return cls(params, tuple(moves))


def _unrank(pool: tuple[int, ...], d: int, r: int) -> tuple[int, ...]:
    """The r-th (from 0) of ``combinations(pool, d)``, which lists the
    d-subsets in lexicographic order of positions (Knuth, TAOCP 4A, 7.2.1.3).
    Walks the pool once: the subsets that take ``pool[i]`` next number
    C(n - i - 1, d - 1)."""
    picked: list[int] = []
    n = len(pool)
    i = 0
    while d:
        first = comb(n - i - 1, d - 1)
        if r < first:
            picked.append(pool[i])
            d -= 1
        else:
            r -= first
        i += 1
    return tuple(picked)


class Strategy(Protocol):
    """What :func:`stabilize_labeled` asks of a strategy."""

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, Iterable[int]]:
        """The next fire on the game's packed state (see :mod:`starchip.core`),
        as a slot and the set of chips it fires there, in any order: the
        driver sorts them into the tuple the log records. Chips are int
        labels; a bool is logged and played as its int.

        ``state`` is the game's one mutable state and ``fireable`` the
        driver's list of its fireable slots in canonical vertex order, never
        empty; the driver changes both after each fire. A strategy reads
        them and must not change them. A fire the rules forbid ends the
        game with :func:`replay`'s IllegalMoveError."""


class Deterministic:
    """Always plays the canonically first legal move: the first fireable
    vertex and its smallest degree-many chips."""

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, Iterable[int]]:
        s = fireable[0]
        return s, state[s][: board.deg[s]]


class RandomUniform:
    """Uniform random play: pick a fireable vertex uniformly, then a uniform
    random size-degree subset of its chips, both in one
    ``SplitMix64.choose_subset`` call."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, tuple[int, ...]]:
        return self._rng.choose_subset(fireable, state, board.deg)


class VolatilityMinimizing:
    """Restrict to fires that minimize how many vertices stay ready to fire
    (ties broken toward vertices furthest from the center), then pick
    uniformly among the surviving moves.

    The moves are never built. One draw ``r`` below their number, which is
    the sum of C(chips, degree) over the surviving vertices, selects the
    r-th of them in canonical order (vertex first, then chips in
    lexicographic order); it is unranked from that vertex's chips alone."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, tuple[int, ...]]:
        slots = _calmest(board, list(map(len, state)), fireable)
        sizes = [comb(len(state[s]), board.deg[s]) for s in slots]
        r = self._rng.randrange(sum(sizes))
        for s, size in zip(slots, sizes):
            if r < size:
                break
            r -= size
        return s, _unrank(state[s], board.deg[s], r)


_STRATEGIES = {"det": lambda seed: Deterministic(), "random": RandomUniform, "volmin": VolatilityMinimizing}
_STRATEGY_NAMES = tuple(_STRATEGIES)


def make_strategy(name: str, seed: int = 0) -> Strategy:
    if name not in _STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}; expected one of {_STRATEGY_NAMES}")
    return _STRATEGIES[name](seed)


def stabilize_labeled(params: StarParams, strategy: Strategy) -> tuple[Outcome, SequenceLog]:
    """Play one game from all chips on the center with moves chosen by
    ``strategy``; return the canonical outcome matrix and the move log.

    The game holds one mutable packed state (see :mod:`starchip.core`), a
    copy of ``_Board.start``, and fires on it in place with ``core._fire``.
    A legal fire at slot s names degree-many chips, s has routes (is below
    level m), and each chip is on s. The driver checks the first two before
    the fire; ``_fire`` takes each chip off s with ``list.remove``, which
    raises ValueError for a chip s does not hold. While every fire so far is
    legal, each slot holds distinct labels, so the removals all succeed
    exactly when the chips are distinct and all held; and level m never
    holds two chips from this start. The first fire that fails a check is
    replayed with every check by :func:`replay`, which raises
    IllegalMoveError naming its step, move, reason and state. So is, at
    once, a fire that names a chip that is not an int, such as 1.0. The
    driver logs and routes each chip as the int ``operator.index`` gives,
    so a bool is played as its int, and keeps a tuple of chips as it is.

    A fire at slot s takes chips from s alone and adds one chip to each
    receiver, so the list of fireable slots the strategy reads, kept in
    canonical vertex order, changes in two ways only: s leaves it when it
    drops below its degree, and a receiver with routes joins it when its
    new chip brings it exactly to its degree. Legal chip-firing from
    finitely many chips stops (Björner, Lovász and Shor, 1991), so the game
    needs no length bound: it runs until nothing can fire, after
    expected_total_fires fires.
    """
    board = _board(params)
    deg, routes, vertex = board.deg, board.routes, board.vertex
    state = [list(labels) for labels in board.start]
    fireable = _fireable(board, list(map(len, state)))
    moves: list[Move] = []
    while fireable:
        s, picked = strategy.pick(board, state, fireable)
        if type(picked) is not tuple:
            picked = tuple(picked)
        try:
            chips = tuple(sorted(map(index, picked)))
        except TypeError:  # a chip that is not an int
            moves.append(Move(vertex[s], picked))
            replay(params, moves)  # raises IllegalMoveError naming this fire
        moves.append(Move(vertex[s], chips))
        if len(chips) != deg[s] or not routes[s]:
            replay(params, moves)  # raises IllegalMoveError naming this fire
        try:
            _fire(board, state, s, chips)
        except ValueError:  # a chip that s does not hold, or one named twice
            replay(params, moves)  # raises IllegalMoveError naming this fire
        if len(state[s]) < deg[s]:
            fireable.remove(s)
        for u in routes[s]:
            if len(state[u]) == deg[u] and routes[u]:  # only slots with routes fire
                insort(fireable, u)
    return _outcome(board, state), SequenceLog(params, tuple(moves))


def random_games(params: StarParams, trials: range, seed: int) -> Iterator[tuple[int, Outcome, SequenceLog]]:
    """Play the random-play games of the trial indices in ``trials`` from
    all chips on the center, one at a time, yielding (trial seed, outcome,
    log) for each.

    Trial i plays ``RandomUniform(derive_seed(seed, i))``, so each game
    depends only on (params, seed, i), and ``stabilize --strategy random
    --seed <trial seed>`` plays it again.
    """
    for i in trials:
        trial_seed = derive_seed(seed, i)
        yield (trial_seed, *stabilize_labeled(params, RandomUniform(trial_seed)))


FORK_MIN_FIRES = 4_000
"""Fires of work each process must get before :func:`fork_trials` forks.
A fork, pipe and reap of a 28 MB process took about 2.3 ms (Python 3.11.7,
shared 2-vCPU host), the time of some 280 Monte Carlo fires on (3,3), and
two processes broke even with one near 500 fires each; eight times that
keeps the overhead small on a busy host."""

_Summary = TypeVar("_Summary")


def _processes(params: StarParams, trials: int) -> int:
    """How many processes :func:`fork_trials` plays ``trials`` games on: one
    per usable CPU, but one unless ``os.fork`` exists and this process runs
    one thread, and no more than gives each at least FORK_MIN_FIRES fires."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, trials, trials * expected_total_fires(params) // FORK_MIN_FIRES))


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def fork_trials(params: StarParams, trials: int, summarize: Callable[[range], _Summary]) -> list[_Summary]:
    """``summarize`` each of a few consecutive ranges that cover
    ``range(trials)``, one range per process; return the summaries in
    trial order.

    Every range but the first is summarized in a child made with
    ``os.fork``, which sends its summary back over a pipe as ``marshal``
    data, so a summary must be built of ints, strings, tuples, lists, sets
    and dicts only. The parent summarizes the first range itself, and any
    range it could not fork a child for. A child leaves with ``os._exit``
    and never flushes the stdio it inherited; one that fails exits 1, and
    the parent summarizes its range again, so the same error is raised
    here. Every child is reaped before this returns or raises. When
    ``summarize`` depends only on (params, seed, trial index), as a summary
    of :func:`random_games` does, the result does not depend on how many
    processes there were.
    """
    n = _processes(params, trials)
    ranges = [range(trials * j // n, trials * (j + 1) // n) for j in range(n)]
    reads: list[int] = []
    pids: list[int] = []
    statuses: list[int] = []
    try:
        for part in ranges[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the parent plays the rest
                os.close(r)
                os.close(w)
                break
            if pid == 0:  # the child: send its summary and leave, whatever happens
                status = 1
                try:
                    for fd in (*reads, r):
                        os.close(fd)
                    with open(w, "wb") as pipe:
                        marshal.dump(summarize(part), pipe)
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
            reads.append(r)
            os.close(w)
        first, *rest = [summarize(part) for part in (ranges[0], *ranges[1 + len(pids):])]
        payloads = [_read_all(fd) for fd in reads]
        for pid in pids:
            statuses.append(os.waitpid(pid, 0)[1])
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids[len(statuses):]:
            os.waitpid(pid, 0)
    forked = [
        marshal.loads(payload) if status == 0 else summarize(part)
        for part, payload, status in zip(ranges[1:], payloads, statuses)
    ]
    return [first, *forked, *rest]


def replay(params: StarParams, moves: Iterable[Move]) -> Outcome | dict[Vertex, tuple[int, ...]]:
    """Apply a scripted move list starting from all chips on the center,
    reading ``moves`` once, from any iterable, and keeping no copy of it.

    Returns the outcome when the script ends stable. Otherwise it returns
    the held labels: a dict that maps each vertex that holds chips, in
    canonical vertex order, to its labels in ascending order. An illegal
    move raises IllegalMoveError naming the 1-based step and the state it
    was attempted on, written as ``state C:{3,4}, B(1,1):{1}``. The replay
    holds a ``core._Replay``, the slot of each label and the chip count of
    each slot, whose fires refuse an illegal move with
    ``core._check_fire``'s text; the per-slot label lists are built once,
    at the end or at the refused move.
    """
    board = _board(params)
    slot = board.slot
    played = _Replay(board)
    for t, mv in enumerate(moves, start=1):
        try:
            played.fire(slot.get(mv.vertex), mv)
        except IllegalMoveError as e:
            held = _held(board, played.state())
            text = ", ".join(f"{v}:{{{','.join(map(str, labels))}}}" for v, labels in held.items())
            raise IllegalMoveError(mv.vertex, mv.chips, f"{e.reason}; state {text}", step=t) from None
    state = played.state()
    try:
        return _outcome(board, state)
    except ShapeError:  # from this start, every state but the stable shape is unstable
        return _held(board, state)


def _held(board: _Board, state: _State) -> dict[Vertex, tuple[int, ...]]:
    """The vertices of a packed state that hold chips, in canonical vertex
    order, with their labels."""
    return {v: tuple(labels) for v, labels in zip(board.vertex, state) if labels}
