import sys
from itertools import combinations
from math import comb

import pytest

from oracles import ReferenceSplitMix64, naive_play
from recorder import played
from starchip import CENTER, RandomUniform, StarParams
from starchip.rng import _GOLDEN, _MASK64, BATCH, SplitMix64, _lanes, derive_seed

# The first raw draw from this seed is 2^64 - 1, the one value every range
# that is not a power of two rejects.
REJECTING_SEED = 0x31628AF67B2131AB


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(10)] != [b.next_u64() for _ in range(10)]


def test_randrange_bounds_and_coverage():
    rng = SplitMix64(7)
    draws = [rng.randrange(5) for _ in range(2000)]
    assert set(draws) == {0, 1, 2, 3, 4}
    counts = [draws.count(i) for i in range(5)]
    assert min(counts) > 2000 / 5 * 0.7  # loose uniformity smoke check


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_choice():
    rng = SplitMix64(9)
    seq = ["a", "b", "c"]
    assert all(rng.choice(seq) in seq for _ in range(50))
    with pytest.raises(ValueError):
        rng.choice([])


def test_subset_shape_and_coverage():
    rng = SplitMix64(11)
    pool = [4, 1, 3, 2]
    seen = set()
    for _ in range(300):
        s = rng.subset(pool, 2)
        assert s == tuple(sorted(s))
        assert set(s) <= set(pool)
        seen.add(s)
    assert seen == set(combinations(sorted(pool), 2))


def test_subset_too_large():
    with pytest.raises(ValueError):
        SplitMix64(0).subset([1, 2], 3)


def test_derive_seed_deterministic_and_distinct():
    first = [derive_seed(123, i) for i in range(50)]
    again = [derive_seed(123, i) for i in range(50)]
    assert first == again
    assert len(set(first)) == 50
    assert derive_seed(123, 0) != derive_seed(124, 0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def _seeds():
    return [0, 1, REJECTING_SEED, _MASK64] + [derive_seed(2024, i) for i in range(200)]


def test_randrange_follows_the_reference_stream():
    ranges = list(range(1, 13)) + [1 << 32, 3 << 61, (1 << 63) + 1, _MASK64, 1 << 64]
    # one 64-bit output cannot cover these; C(75, 25) is the first volmin
    # draw of (25,3) and C(400, 20) that of (20,20); 2^128 - 1 takes two
    # outputs and 2^128 three, the edge of the word count (n - 1).bit_length()
    ranges += [(1 << 64) + 1, 3 << 64, comb(75, 25), comb(400, 20), (1 << 128) - 1, 1 << 128]
    for seed in _seeds():
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        for n in ranges:
            assert rng.randrange(n) == ref.randrange(n), (seed, n)
            assert rng._state == ref.state, (seed, n)


def test_subset_follows_the_reference_stream_for_every_size():
    # sizes equal to the pool's length include the forced draws of 1 and 2
    for seed in _seeds():
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        for n in range(1, 13):
            pool = [(7 * i) % 13 for i in range(n, 0, -1)]
            for size in range(n + 1):
                assert rng.subset(pool, size) == ref.subset(pool, size), (seed, n, size)
                assert rng._state == ref.state, (seed, n, size)


# Sorted pools of 0..12 labels; option lists of one, two, three and seven
# options, so the option draw is skipped, never rejects, or may reject.
POOLS = [tuple(range(5, 5 + 3 * n, 3)) for n in range(13)]
OPTION_LISTS = [[4], [0, 12], [3, 7, 11], [12, 10, 8, 6, 4, 2, 0]]


def test_choose_subset_makes_the_draws_of_randrange_then_subset():
    for seed in _seeds():
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        for options in OPTION_LISTS:
            for size in range(13):  # every size up to each pool's length
                sizes = [min(size, len(pool)) for pool in POOLS]
                o = options[ref.randrange(len(options))]
                want = (o, ref.subset(POOLS[o], sizes[o]))
                assert rng.choose_subset(options, POOLS, sizes) == want, (seed, options, size)
                assert rng._state == ref.state, (seed, options, size)


def test_choose_subset_refuses_what_randrange_and_subset_refuse():
    with pytest.raises(ValueError):
        SplitMix64(0).choose_subset([], POOLS, [0] * 13)
    rng, ref = SplitMix64(3), ReferenceSplitMix64(3)
    with pytest.raises(ValueError, match="cannot draw 3 items from 2"):
        rng.choose_subset([0, 2], [(1, 2)] * 3, [3] * 3)
    ref.randrange(2)
    assert rng._state == ref.state  # the option was drawn, as by randrange


class TestRejectionPath:
    def test_the_first_raw_draw_is_the_largest(self):
        assert SplitMix64(REJECTING_SEED).next_u64() == _MASK64

    def test_randrange_3_rejects_it_and_draws_again(self):
        rng = SplitMix64(REJECTING_SEED)
        assert rng.randrange(3) == ReferenceSplitMix64(REJECTING_SEED).randrange(3)
        assert rng._state == (REJECTING_SEED + 2 * _GOLDEN) & _MASK64

    def test_randrange_4_keeps_it(self):
        rng = SplitMix64(REJECTING_SEED)
        assert rng.randrange(4) == 3
        assert rng._state == (REJECTING_SEED + _GOLDEN) & _MASK64

    def test_subset_of_three_takes_four_draws(self):
        rng = SplitMix64(REJECTING_SEED)
        assert rng.subset([7, 5, 6], 3) == (5, 6, 7)
        assert rng._state == (REJECTING_SEED + 4 * _GOLDEN) & _MASK64

    def test_a_two_word_range_rejects_it_and_draws_again(self):
        # 2^128 mod 3*2^64 = 2^64, so a try whose first (high) word is
        # 2^64 - 1 is rejected, and the next try takes two more outputs
        rng = SplitMix64(REJECTING_SEED)
        assert rng.randrange(3 << 64) == ReferenceSplitMix64(REJECTING_SEED).randrange(3 << 64)
        assert rng._state == (REJECTING_SEED + 4 * _GOLDEN) & _MASK64

    def test_choose_subset_rejects_it_in_the_option_draw(self):
        rng = SplitMix64(REJECTING_SEED)
        ref = ReferenceSplitMix64(REJECTING_SEED)
        o = OPTION_LISTS[2][ref.randrange(3)]
        assert rng.choose_subset(OPTION_LISTS[2], POOLS, [2] * 13) == (o, ref.subset(POOLS[o], 2))
        assert rng._state == ref.state == (REJECTING_SEED + 4 * _GOLDEN) & _MASK64

    def test_choose_subset_rejects_it_in_a_chip_draw(self):
        # one option takes no mix, so the first chip draw gets the output
        seed = (REJECTING_SEED - _GOLDEN) & _MASK64
        rng = SplitMix64(seed)
        want = ReferenceSplitMix64(REJECTING_SEED).subset(POOLS[3], 3)
        assert rng.choose_subset([3], POOLS, [3] * 13) == (3, want)
        assert rng._state == (seed + 5 * _GOLDEN) & _MASK64


class _ReferenceRandomPlay:
    """Random play on the reference stream, a slot and then its chips one
    at a time, as ``naive_play`` draws them; notes which kinds of draw
    ("slot", "chip") rejected an output and drew again."""

    def __init__(self, seed):
        self.rng = ReferenceSplitMix64(seed)
        self.rejected = set()

    def draw(self, kind, n):
        before = self.rng.state
        r = self.rng.randrange(n)
        if self.rng.state != (before + _GOLDEN) & _MASK64:
            self.rejected.add(kind)
        return r

    def pick(self, board, state, fireable):
        s = fireable[self.draw("slot", len(fireable))]
        pool = list(state[s])
        return s, [pool.pop(self.draw("chip", len(pool))) for _ in range(board.deg[s])]


@pytest.mark.parametrize("k, m", [(3, 3), (2, 4), (4, 2)])
def test_games_whose_slot_or_chip_draw_rejects_match_the_naive_driver(k, m):
    # Seed REJECTING_SEED - j * golden hands the all-ones output to the
    # game's j+1-th output. Of the first 60 such seeds, keep the first whose
    # game rejects it in a slot draw and the first that rejects it in a
    # chip draw; both games must be played fire for fire as naive_play
    # plays them.
    params = StarParams(k, m)
    found = {}
    for j in range(60):
        seed = (REJECTING_SEED - j * _GOLDEN) & _MASK64
        reference = _ReferenceRandomPlay(seed)
        _, want = played(params, reference)
        for kind in reference.rejected - set(found):
            found[kind] = (seed, want)
    assert set(found) == {"slot", "chip"}
    for seed, want in found.values():
        _, log = played(params, RandomUniform(seed))
        assert log == want
        moves = [("C" if mv.vertex == CENTER else tuple(mv.vertex), mv.chips) for mv in log.moves]
        assert moves == naive_play(k, m, "random", seed)


# The batched stream: BATCH outputs are computed at once, in lanes of one
# int, and read by index.


def _taken(seed, ref):
    """How many outputs the reference stream has taken since ``seed``."""
    return ((ref.state - seed) * pow(_GOLDEN, -1, 1 << 64)) & _MASK64


def test_every_draw_follows_the_reference_stream_across_refills():
    for seed in [0, REJECTING_SEED, _MASK64] + [derive_seed(7, i) for i in range(5)]:
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        while _taken(seed, ref) <= 3 * BATCH:
            for n in (1, 2, 3, _MASK64, 3 << 64):
                assert rng.randrange(n) == ref.randrange(n), (seed, n)
                assert rng._state == ref.state, (seed, n)
            for options in OPTION_LISTS:
                o = options[ref.randrange(len(options))]
                want = (o, ref.subset(POOLS[o], min(3, len(POOLS[o]))))
                assert rng.choose_subset(options, POOLS, [min(3, len(pool)) for pool in POOLS]) == want
                assert rng._state == ref.state, (seed, options)
            for n in (1, 2, 5):
                assert rng.subset(POOLS[n], n - 1) == ref.subset(POOLS[n], n - 1), (seed, n)
                assert rng._state == ref.state, (seed, n)
            assert rng.next_u64() == ref.next_u64()
            assert rng._state == ref.state


@pytest.mark.parametrize("j", [0, BATCH - 1, BATCH], ids=["first lane", "last lane", "after a refill"])
def test_the_rejected_output_on_any_lane(j):
    # seed REJECTING_SEED - j * golden puts the all-ones output at index j,
    # which j draws of one output each reach
    seed = (REJECTING_SEED - j * _GOLDEN) & _MASK64
    ref = ReferenceSplitMix64(seed)
    assert [ref.next_u64() for _ in range(j + 1)][j] == _MASK64

    def lead(rng, ref, draws):
        for _ in range(draws):
            assert rng.randrange(2) == ref.randrange(2)
        assert rng._state == ref.state

    # an option draw among three
    rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    lead(rng, ref, j)
    o = OPTION_LISTS[2][ref.randrange(3)]
    assert rng.choose_subset(OPTION_LISTS[2], POOLS, [2] * 13) == (o, ref.subset(POOLS[o], 2))
    assert rng._state == ref.state == (seed + (j + 4) * _GOLDEN) & _MASK64
    # a chip draw, by subset and after choose_subset passes over one option
    for draw in ("subset", "choose_subset"):
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        if draw == "subset":
            lead(rng, ref, j)
            assert rng.subset(POOLS[3], 3) == ref.subset(POOLS[3], 3)
        else:
            if j == 0:
                continue
            lead(rng, ref, j - 1)
            ref.randrange(1)
            assert rng.choose_subset([3], POOLS, [3] * 13) == (3, ref.subset(POOLS[3], 3))
        assert rng._state == ref.state == (seed + (j + 4) * _GOLDEN) & _MASK64


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_lanes_are_read_back_in_either_byte_order(byteorder):
    # each lane's 64-bit value is found where _lanes says, whichever byte
    # order the batch is written in; the host's own is read as words
    values = [derive_seed(3, i) for i in range(BATCH)]
    x = sum(v << 128 * i for i, v in enumerate(values))
    data = x.to_bytes(16 * BATCH, byteorder)
    words = range(2 * BATCH)[_lanes(byteorder)]
    assert [int.from_bytes(data[8 * w : 8 * w + 8], byteorder) for w in words] == values
    if byteorder == sys.byteorder:
        assert memoryview(data).cast("Q")[_lanes(byteorder)].tolist() == values


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_long_random_game_matches_the_naive_driver(seed):
    # 1,705 fires and about 5,600 outputs, so some 88 batches
    _, log = played(StarParams(10, 10), RandomUniform(seed))
    moves = [("C" if mv.vertex == CENTER else tuple(mv.vertex), mv.chips) for mv in log.moves]
    assert moves == naive_play(10, 10, "random", seed)
