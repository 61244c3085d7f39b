"""Stabilization drivers for the unlabeled and labeled games.

Every configuration with finitely many chips on the star stabilizes, and all
stabilization sequences from a fixed start agree in length and in how often
each vertex fires (confluence). Starting from k*m chips on the center, the
one start of the labeled game (``_Board.start``), those counts have a closed
form: :func:`expected_fire_count`, and :func:`expected_total_fires`, the
length of every labeled game. A game fires in place on one copy of
``_Board.start``, the packed state of :mod:`starchip.core`: a strategy
names each fire as a slot and its chips, and the driver checks it and hands
it to a per-fire check, if there is one. A game keeps no log: the driver
returns how many fires it made, and a check verifies or records them.
Replays hold only where each label is (``core._Replay``). Seeded random
trials run on every usable CPU (:func:`fork_trials`), and the output does
not depend on how many there are.
"""
from __future__ import annotations

import marshal
import os
import sys
from collections import Counter
from math import comb
from operator import index
from typing import Any, Callable, Iterable, Iterator, Protocol, TypeVar

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
    _check_fire,
    _Replay,
    _fire,
    _fire_count,
    _fireable,
    _outcome,
    _receivers,
    degree,
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
        """The next fire, as a slot of the board and the int labels it fires
        there, in any order; a strictly increasing tuple of ints is fired as
        given, and anything else is sorted first. ``state`` is the game's
        packed state (see :mod:`starchip.core`) and ``fireable`` its
        fireable slots in canonical vertex order, never empty; the driver
        changes both after each fire, and a strategy must not. A fire the
        rules forbid ends the game with :func:`replay`'s IllegalMoveError."""


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
        self._choose = SplitMix64(seed).choose_subset

    def pick(self, board: _Board, state: _State, fireable: list[int]) -> tuple[int, tuple[int, ...]]:
        return self._choose(fireable, state, board.deg)


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


def stabilize_labeled(
    params: StarParams, strategy: Strategy, check: Callable[[int, tuple], object] | None = None
) -> tuple[Outcome, int]:
    """Play one game from all chips on the center with moves chosen by
    ``strategy``; return the outcome and the number of fires made. The game
    keeps no log: ``check``, if given, is called with the slot and the
    chips of each fire once it is made, so a ``verify.GameCheck`` checks
    the game and a recorder keeps its moves. Slot 0 is the center and slot
    (i-1)*m + j is B(i,j).

    A legal fire names a slot with routes (below level m) and degree-many
    chips, all on it. ``_fire`` checks the slot and the count and takes
    each chip off the slot with ``list.remove``, which raises ValueError
    for a chip it does not hold or one named twice. The first fire that
    fails ends the game with the IllegalMoveError :func:`replay` raises for
    the same moves; a chip that is not an int, such as 1.0, fails at once,
    and a slot that is not an int in ``range(len(state))`` is named as
    such. A strictly increasing tuple of positive ints, which every
    built-in strategy returns, is fired as given; other chips are checked
    and routed as the sorted ints ``operator.index`` gives, so a bool plays
    as its int.

    ``_fire`` also keeps the fireable list the strategy reads. Legal
    chip-firing from finitely many chips stops (Björner, Lovász and Shor,
    1991), after expected_total_fires fires.
    """
    board = _board(params)
    state = [list(labels) for labels in board.start]
    fireable = _fireable(board, list(map(len, state)))
    pick = strategy.pick
    t = 0
    while fireable:
        t += 1
        s, chips = pick(board, state, fireable)
        if type(chips) is not tuple:
            chips = tuple(chips)
        try:
            last = 0
            for c in chips:  # a strictly increasing tuple of positive ints fires as given
                if type(c) is not int or c <= last:
                    chips = tuple(sorted(map(index, chips)))
                    break
                last = c
            if s < 0:
                raise ValueError
            _fire(board, state, s, chips, fireable)
        except (TypeError, ValueError, IndexError):  # a chip or a slot that is not one
            raise _refused(board, state, t, s, chips) from None
        if check is not None:
            check(s, chips)
    return _outcome(board, state), t


def _refused(board: _Board, state: list[list[int]], step: int, s: object, chips: tuple) -> IllegalMoveError:
    """The error that ends a game at its ``step``-th fire, ``chips`` at slot
    ``s``, which the driver refused. ``_fire`` may have taken chips off
    ``s``, and routed none, so ``s`` first gets back every label no other
    slot holds, and the error names the state as :func:`_illegal` does."""
    if not isinstance(s, int) or not 0 <= s < len(state):
        return IllegalMoveError(s, chips, f"no slot {s!r} on a board of {len(state)} slots", step=step)
    others = {c for u, labels in enumerate(state) if u != s for c in labels}
    state[s] = [c for c in range(1, board.params.n_chips + 1) if c not in others]
    try:
        _check_fire(board.params, board.vertex[s], state[s], chips)
    except IllegalMoveError as e:
        return _illegal(board, state, step, e)
    raise AssertionError(f"_check_fire accepts {chips} at slot {s}, which the game refused")


def random_games(
    params: StarParams, trials: range, seed: int, checker: Callable[[], Any] | None = None
) -> Iterator[tuple[int, Outcome, Any]]:
    """Play the random-play games of the trial indices in ``trials``, one
    at a time, yielding (trial seed, outcome, check) for each. No game
    keeps a log. With ``checker``, each game is played with the ``fire`` of
    a new ``checker()``, such as a ``verify.GameCheck``, as its per-fire
    check, and that check is yielded; without, a game makes no per-fire
    call and None is yielded.

    Trial i plays ``RandomUniform(derive_seed(seed, i))``, which
    ``stabilize --strategy random --seed <trial seed>`` plays again.
    """
    for i in trials:
        trial_seed = derive_seed(seed, i)
        checked = checker() if checker is not None else None
        outcome, _ = stabilize_labeled(params, RandomUniform(trial_seed), None if checked is None else checked.fire)
        yield trial_seed, outcome, checked


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


def fork_trials(params: StarParams, trials: int, summarize: Callable[[range], _Summary]) -> list[_Summary]:
    """``summarize`` each of a few consecutive ranges that cover
    ``range(trials)``, one range per process; return the summaries in
    trial order. A summary that depends only on (params, seed, trial
    index) makes the result independent of the number of processes.

    Every range but the first is summarized in a child made with
    ``os.fork``, where it exists and this process runs one thread, while
    each process gets FORK_MIN_FIRES fires of work. A child sends its
    summary back over a pipe as ``marshal`` data (ints, strings, tuples,
    lists, sets and dicts), leaves with ``os._exit`` without flushing the
    stdio it inherited, and exits 1 on failure, when the parent summarizes
    its range again, raising the same error. The parent summarizes the
    first range and any it could not fork for, and reaps every child
    before it returns or raises.
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
        payloads = []
        for fd in reads:
            with open(fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
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

    Returns the outcome when the script ends stable, and otherwise the
    labels of each vertex that holds chips, in canonical vertex order. An
    illegal move raises IllegalMoveError with ``core._check_fire``'s
    reason, the 1-based step and the state it was tried on, written as
    ``state C:{3,4}, B(1,1):{1}``. The moves fire on a ``core._Replay``.
    """
    board = _board(params)
    slot = board.slot
    played = _Replay(board)
    for t, mv in enumerate(moves, start=1):
        try:
            played.fire(slot.get(mv.vertex), mv.chips, mv.vertex)
        except IllegalMoveError as e:
            raise _illegal(board, played.state(), t, e) from None
    state = played.state()
    try:
        return _outcome(board, state)
    except ShapeError:  # from this start, every state but the stable shape is unstable
        return _held(board, state)


def _held(board: _Board, state: _State) -> dict[Vertex, tuple[int, ...]]:
    """The vertices of a packed state that hold chips, in canonical vertex
    order, with their labels."""
    return {v: tuple(labels) for v, labels in zip(board.vertex, state) if labels}


def _illegal(board: _Board, state: _State, step: int, error: IllegalMoveError) -> IllegalMoveError:
    """``error``, which ``core._check_fire`` raised for a fire tried on
    the packed ``state``, as the ``step``-th fire of a game or a replay: its
    reason, then the state, each vertex that holds chips written as a move,
    ``state C:{3,4}, B(1,1):{1}``."""
    held = ", ".join(str(Move(v, labels)) for v, labels in _held(board, state).items())
    return IllegalMoveError(error.vertex, error.chips, f"{error.reason}; state {held}", step=step)
