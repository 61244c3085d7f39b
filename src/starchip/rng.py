"""Self-contained deterministic pseudo-random generator.

Randomized runs must be reproducible from a seed alone, independent of
platform and interpreter version, so the package carries its own generator
instead of relying on ``random``'s stream stability. The algorithm is
splitmix64 (Steele, Lea and Flood, OOPSLA 2014): state advances by a fixed
odd constant and each output is a finalizing bit mix of the state. It is not
cryptographic; it is a small, well-understood stream with good
equidistribution for simulation use.

A draw below n takes outputs until one lies below the largest multiple of n
under 2^64 and returns it mod n. ``randrange`` and ``choose_subset`` each
run that loop inline; ``choose_subset`` draws an option and then a subset
of its pool in one call, which is all a random fire draws, and ``subset``
is ``choose_subset`` among one option. For n = 1 or 2 that multiple is
2^64 itself, so no output is ever rejected and each draw advances the state
exactly once. When the value drawn does not matter either, as in
``randrange(1)``, a choice among one option or a subset that takes the
whole of a pool of one or two, the state is advanced and the mix is
skipped: the stream goes on exactly as if the outputs had been computed.

One output cannot cover a range n > 2^64. There each try of ``randrange``
takes w outputs, w being the number of 64-bit words n - 1 needs, joins them
into one number below 2^(64w), the first output highest, and rejects it at
the largest multiple of n under 2^(64w). No smaller range takes that path.
"""
from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64


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
    """Deterministic 64-bit generator; equal seeds give equal streams."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        z = self._state
        if n == 1:
            self._state = (z + _GOLDEN) & _MASK64
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
        while True:
            z = (z + _GOLDEN) & _MASK64
            r = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & _MASK64
            r ^= r >> 31
            if r < limit:
                self._state = z
                return r % n

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def subset(self, pool, size: int) -> tuple:
        """Uniform random size-subset of ``pool``, returned sorted.

        Drawn by sequential removal without replacement, which induces the
        uniform distribution on subsets: the same draws, in the same order,
        as ``size`` calls of ``randrange(len(left))``. It is
        :meth:`choose_subset` among one option, whose draw advances the
        state by one step and mixes nothing, so the state is stepped back
        first.
        """
        self._state = (self._state - _GOLDEN) & _MASK64
        return self.choose_subset((0,), (sorted(pool),), (size,))[1]

    def choose_subset(self, options, pools, sizes) -> tuple:
        """A uniform option o of ``options`` and a uniform random
        ``sizes[o]``-subset of ``pools[o]``, as ``(o, chips)`` with the
        chips sorted. Each pool must be sorted.

        The same draws, in the same order, and the same result as
        ``randrange(len(options))`` followed by ``subset(pools[o], sizes[o])``,
        without the calls or the sorting of an already sorted pool.
        """
        n = len(options)
        if not n:
            raise ValueError("cannot choose from an empty sequence")
        z = self._state
        if n == 1:
            z = (z + _GOLDEN) & _MASK64
            o = options[0]
        else:
            limit = _TWO64 - _TWO64 % n
            while True:
                z = (z + _GOLDEN) & _MASK64
                r = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & _MASK64
                r ^= r >> 31
                if r < limit:
                    break
            o = options[r % n]
        pool, size = pools[o], sizes[o]
        n = len(pool)
        if size > n:
            self._state = z
            raise ValueError(f"cannot draw {size} items from {n}")
        if size == n <= 2:
            self._state = (z + size * _GOLDEN) & _MASK64
            return o, tuple(pool)
        items = list(pool)
        picked = []
        for left in range(n, n - size, -1):
            limit = _TWO64 - _TWO64 % left
            while True:
                z = (z + _GOLDEN) & _MASK64
                r = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                r = ((r ^ (r >> 27)) * 0x94D049BB133111EB) & _MASK64
                r ^= r >> 31
                if r < limit:
                    break
            picked.append(items.pop(r % left))
        self._state = z
        picked.sort()
        return o, tuple(picked)
