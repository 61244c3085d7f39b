"""Stabilization drivers for the unlabeled and labeled games.

Every configuration with finitely many chips on the star stabilizes, and all
stabilization sequences from a fixed start agree in length and in how often
each vertex fires (confluence). Starting from k*m chips on the center those
counts have a closed form, exposed here as :func:`expected_fire_count` and
:func:`expected_total_fires`; the drivers cross-check against it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import (
    ChipGameError,
    IllegalMoveError,
    LabeledConfig,
    Move,
    Outcome,
    StarParams,
    UnlabeledConfig,
    Vertex,
    _receivers,
    apply_move,
    canonical_outcome,
    degree,
    initial_labeled,
    initial_unlabeled,
    parse_move,
)
from .rng import SplitMix64


def expected_fire_count(params: StarParams, v: Vertex) -> int:
    """How often vertex v fires when k*m center chips stabilize.

    Level j (center: j = 0) fires (m-j)(m-j+1)/2 times for j < m and never
    otherwise, in every stabilization sequence.
    """
    j = v.level
    if j > params.m - 1:
        return 0
    d = params.m - j
    return d * (d + 1) // 2


def expected_total_fires(params: StarParams) -> int:
    """Length of every stabilization sequence from k*m chips on the center."""
    k, m = params.k, params.m
    return m * (m + 1) // 2 + k * ((m - 1) * m * (m + 1) // 6)


def stabilize_unlabeled(params: StarParams, n: int) -> tuple[UnlabeledConfig, dict[Vertex, int], int]:
    """Drive n center chips to stability; return (config, per-vertex fires, total).

    Fires in center-outward sweeps, batching repeated fires of one vertex.
    By confluence the result and the counts are order-independent.
    """
    config = initial_unlabeled(params, n)
    counts = dict(config.counts)
    fires: Counter[Vertex] = Counter()
    while True:
        ready = [v for v in sorted(counts) if counts[v] >= degree(params, v)]
        if not ready:
            break
        for v in ready:
            d = degree(params, v)
            t = counts[v] // d
            if t == 0:
                continue
            counts[v] -= t * d
            if counts[v] == 0:
                del counts[v]
            fires[v] += t
            for u in _receivers(params.k, v):
                counts[u] = counts.get(u, 0) + t
    return UnlabeledConfig(params, counts), dict(fires), sum(fires.values())


@dataclass(frozen=True, eq=True)
class SequenceLog:
    """An ordered record of fires, normally a complete stabilization sequence."""

    params: StarParams
    moves: tuple[Move, ...]

    @cached_property
    def per_vertex_fire_count(self) -> dict[Vertex, int]:
        return dict(Counter(mv.vertex for mv in self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self) -> Iterator[Move]:
        return iter(self.moves)

    def positions_of(self, v: Vertex) -> list[int]:
        """0-based indices of all fires of v, in time order."""
        return [t for t, mv in enumerate(self.moves) if mv.vertex == v]

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


class Deterministic:
    """Always plays the canonically first legal move."""

    def pick(self, config: LabeledConfig) -> Move:
        for v in config.fireable_vertices():
            d = degree(config.params, v)
            return Move(v, tuple(sorted(config.chips[v]))[:d])
        raise ChipGameError("no legal move: configuration is stable")


class RandomUniform:
    """Uniform random play: pick a fireable vertex uniformly, then a uniform
    random size-degree subset of its chips."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)

    def pick(self, config: LabeledConfig) -> Move:
        fireable = list(config.fireable_vertices())
        if not fireable:
            raise ChipGameError("no legal move: configuration is stable")
        v = fireable[self._rng.randrange(len(fireable))]
        chips = self._rng.subset(config.chips[v], degree(config.params, v))
        return Move(v, chips)


class VolatilityMinimizing:
    """Restrict to fires that minimize how many vertices stay ready to fire
    (ties broken toward vertices furthest from the center), then pick
    uniformly among the surviving moves."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)

    def pick(self, config: LabeledConfig) -> Move:
        from .enumeration import volmin_allowed_moves

        moves = volmin_allowed_moves(config)
        if not moves:
            raise ChipGameError("no legal move: configuration is stable")
        return moves[self._rng.randrange(len(moves))]


Strategy = Deterministic | RandomUniform | VolatilityMinimizing

_STRATEGY_NAMES = ("det", "random", "volmin")


def make_strategy(name: str, seed: int = 0) -> Strategy:
    if name in ("det", "deterministic"):
        return Deterministic()
    if name == "random":
        return RandomUniform(seed)
    if name == "volmin":
        return VolatilityMinimizing(seed)
    raise ValueError(f"unknown strategy {name!r}; expected one of {_STRATEGY_NAMES}")


def stabilize_labeled(config: LabeledConfig, strategy: Strategy) -> tuple[Outcome, SequenceLog]:
    """Play moves chosen by ``strategy`` until stable.

    Returns the canonical outcome matrix and the full move log. A ceiling of
    10x the closed-form sequence length guards against a selection bug
    turning into a hang.
    """
    params = config.params
    ceiling = 10 * max(1, expected_total_fires(params))
    moves: list[Move] = []
    while not config.is_stable:
        if len(moves) >= ceiling:
            raise ChipGameError(
                f"stabilization exceeded {ceiling} moves on k={params.k}, m={params.m}; "
                "strategy or rules are broken"
            )
        mv = strategy.pick(config)
        config = apply_move(config, mv)
        moves.append(mv)
    return canonical_outcome(config), SequenceLog(params, tuple(moves))


def replay(params: StarParams, moves: Iterable[Move] | Sequence[Move]) -> tuple[Outcome | LabeledConfig, SequenceLog]:
    """Apply a scripted move list starting from all chips on the center.

    Returns (outcome, log) when the script ends stable, else (config, log).
    An illegal move raises IllegalMoveError naming the 1-based step and the
    configuration it was attempted on.
    """
    config = initial_labeled(params)
    played: list[Move] = []
    for t, mv in enumerate(moves, start=1):
        try:
            config = apply_move(config, mv)
        except IllegalMoveError as e:
            raise IllegalMoveError(mv.vertex, mv.chips, f"{e.reason}; state {config!r}", step=t) from None
        played.append(mv)
    log = SequenceLog(params, tuple(played))
    if config.is_stable:
        return canonical_outcome(config), log
    return config, log
