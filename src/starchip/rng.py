"""Self-contained deterministic pseudo-random generator.

Randomized runs must be reproducible from a seed alone, independent of
platform and interpreter version, so the package carries its own generator
instead of relying on ``random``'s stream stability. The algorithm is
splitmix64 (Steele, Lea and Flood, OOPSLA 2014): state advances by a fixed
odd constant and each output is a finalizing bit mix of the state. It is not
cryptographic; it is a small, well-understood stream with good
equidistribution for simulation use.

A generator computes its next BATCH outputs at once and reads them by
index. The batch is one int of BATCH 128-bit lanes: lane i holds the state
i + 1 steps on, in its low 64 bits, and each step of the mix is one masked
operation on the whole int, which leaves the high half of every lane zero,
so no lane carries into the next (SIMD within a register: Lamport, CACM
18(8), 1975). The int is written out as bytes in the host's byte order and
read back as 64-bit words: lane i is word 2i on a little-endian host and
word 2*BATCH - 1 - 2i on a big-endian one. Every output is the same on
either, so a seed gives the same stream on any platform. The state is the
batch's base plus one step per output read; a generator holds one batch.

A draw below n takes outputs until one lies below the largest multiple of n
under 2^64 and returns it mod n. ``randrange``, ``choose_subset`` and
``_subset`` each run that loop inline; ``choose_subset`` draws an option
and then, through ``_subset``, a subset of its pool in one call, which is
all a random fire draws, and ``subset`` draws the subset alone. For n = 1
or 2 that multiple is 2^64 itself, so no output is ever rejected and each
draw takes exactly one output. When the value drawn does not matter
either, as in ``randrange(1)``, a choice among one option or a subset that
takes the whole of a pool of one or two, the draw passes over its outputs
without reading them: the stream goes on exactly as if they had been
used.

The limit 2^64 - 2^64 % n costs two 65-bit operations, and it can only
reject an output in the top n values, since 2^64 % n < n. So
``choose_subset`` and ``_subset`` accept an output below 2^64 - n first
and compute the limit only for the rest; a subset of a pool of n draws
below n, n - 1, ..., and ``_subset`` tests each of them against the one
bound 2^64 - n (a cheap bound first, as in Lemire, "Fast random integer
generation in an interval", ACM TOMACS 29(1), 2019). The stream is the
same as with the limit alone.

One output cannot cover a range n > 2^64. There each try of ``randrange``
takes w outputs, w being the number of 64-bit words n - 1 needs, joins them
into one number below 2^(64w), the first output highest, and rejects it at
the largest multiple of n under 2^(64w). No smaller range takes that path.
"""
from __future__ import annotations

import sys

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64

BATCH = 64
"""Outputs a generator computes at once. A batch of 64 took about 6 µs,
0.09 µs an output, where one output mixed alone took 0.34 µs. A random
(3,3) game reads 60 outputs, all from one batch of 64. Replaying the picks
of 2,000 such games took 17% longer with batches of 56, two a game, and
11-21% longer with batches of 96 or 128, which compute outputs no game
reads; on (10,10) games those larger batches saved 2% (medians of 10 to 12
alternating runs, Python 3.11.7, shared 2-vCPU host)."""


def _pack(lanes) -> int:
    """One int holding each of ``lanes``, values below 2^128, in its own
    lane, joined as bytes. A sum of shifted values would make one ever
    larger int per lane at import, and the freed blocks alone raised the
    peak RSS of ten seconds of seeded random games by 0.2 MB (Python
    3.11.7, Linux)."""
    return int.from_bytes(b"".join(value.to_bytes(16, "little") for value in lanes), "little")


_ONES = _pack([1] * BATCH)
_STEPS = _pack([(i + 1) * _GOLDEN for i in range(BATCH)])
_LOW = _pack([_MASK64] * BATCH)
"""The low 64 bits of every lane."""


def _lanes(byteorder: str) -> slice:
    """The 64-bit words of a batch written in ``byteorder`` that hold lanes
    0, 1, ..., BATCH - 1, in that order."""
    return slice(None, None, 2) if byteorder == "little" else slice(None, None, -2)


_READ = _lanes(sys.byteorder)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for the index-th child stream: the (index+1)-th raw output of a
    splitmix64 stream seeded with ``seed``. O(1) and collision-resistant
    enough for independent simulation trials."""
    if index < 0:
        raise ValueError("index must be >= 0")
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """Deterministic 64-bit generator; equal seeds give equal streams.

    ``_out[i]`` is the output after state ``_base + (i+1)·golden``, and
    ``_i`` the number of outputs taken since ``_base``; it may pass the end
    of the batch, and the next read then computes the batch that follows."""

    __slots__ = ("_base", "_i", "_out")

    def __init__(self, seed: int):
        # an exhausted batch ending at the seed: the first read computes one
        self._base = (seed - BATCH * _GOLDEN) & _MASK64
        self._i = BATCH
        self._out: memoryview | None = None

    @property
    def _state(self) -> int:
        """The splitmix64 state: the seed plus one step per output taken."""
        return (self._base + self._i * _GOLDEN) & _MASK64

    def _refill(self, i: int) -> memoryview:
        """Compute the batch that starts ``i`` outputs past the current base."""
        z = self._base = (self._base + i * _GOLDEN) & _MASK64
        x = (z * _ONES + _STEPS) & _LOW
        x = ((x ^ (x >> 30 & _LOW)) * 0xBF58476D1CE4E5B9) & _LOW
        x = ((x ^ (x >> 27 & _LOW)) * 0x94D049BB133111EB) & _LOW
        x ^= x >> 31 & _LOW
        out = self._out = memoryview(x.to_bytes(16 * BATCH, sys.byteorder)).cast("Q")[_READ]
        return out

    def next_u64(self) -> int:
        i = self._i
        if i >= BATCH:
            self._refill(i)
            i = 0
        self._i = i + 1
        return self._out[i]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        if n == 1:
            self._i += 1
            return 0
        if n > _TWO64:  # join w outputs per try, the first one highest
            w = ((n - 1).bit_length() + 63) // 64
            span = 1 << 64 * w
            limit = span - span % n
            while True:
                r = 0
                for _ in range(w):
                    r = r << 64 | self.next_u64()
                if r < limit:
                    return r % n
        limit = _TWO64 - _TWO64 % n
        out, i = self._out, self._i
        while True:
            if i >= BATCH:
                out, i = self._refill(i), 0
            r = out[i]
            i += 1
            if r < limit:
                self._i = i
                return r % n

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def subset(self, pool, size: int) -> tuple:
        """Uniform random size-subset of ``pool``, returned sorted.

        Drawn by sequential removal without replacement, which induces the
        uniform distribution on subsets: the same draws, in the same order,
        as ``size`` calls of ``randrange(len(left))``.
        """
        return self._subset(self._i, sorted(pool), size)

    def choose_subset(self, options, pools, sizes) -> tuple:
        """A uniform option o of ``options`` and a uniform random
        ``sizes[o]``-subset of ``pools[o]``, as ``(o, chips)`` with the
        chips sorted. Each pool must be sorted.

        The same draws, in the same order, and the same result as
        ``randrange(len(options))`` followed by ``subset(pools[o], sizes[o])``,
        without sorting the already sorted pool.
        """
        n = len(options)
        if not n:
            raise ValueError("cannot choose from an empty sequence")
        i = self._i
        if n == 1:
            i += 1
            o = options[0]
        else:
            out = self._out
            while True:
                if i >= BATCH:
                    out, i = self._refill(i), 0
                r = out[i]
                i += 1
                if r < _TWO64 - n or r < _TWO64 - _TWO64 % n:
                    break
            o = options[r % n]
        return o, self._subset(i, pools[o], sizes[o])

    def _subset(self, i: int, pool, size: int) -> tuple:
        """:meth:`subset` of the sorted ``pool``, drawn from the ``i``-th
        output of the batch on."""
        n = len(pool)
        if size > n:
            self._i = i
            raise ValueError(f"cannot draw {size} items from {n}")
        if size == n <= 2:
            self._i = i + size
            return tuple(pool)
        out = self._out
        items = list(pool)
        picked = []
        safe = _TWO64 - n  # below the limit 2^64 - 2^64 % left of every left <= n
        for left in range(n, n - size, -1):
            while True:
                if i >= BATCH:
                    out, i = self._refill(i), 0
                r = out[i]
                i += 1
                if r < safe or r < _TWO64 - _TWO64 % left:
                    break
            picked.append(items.pop(r % left))
        self._i = i
        picked.sort()
        return tuple(picked)
