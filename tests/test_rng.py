import hashlib

import numpy as np
import pytest
from oracles import xoshiro256ss

from trajkit.rng import LANE_THRESHOLD, Rng


def test_xoshiro_known_outputs():
    # state (1,2,3,4): first output rotl(2*5,7)*9 = 11520, second 0
    r = Rng.from_state([1, 2, 3, 4])
    assert list(r.uint64(2)) == [11520, 0]


def test_seeded_streams_reproduce():
    a = Rng(42).uint64(1000)
    b = Rng(42).uint64(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(43).uint64(1000))


def test_stream_matches_serial_oracle():
    # draws on both sides of the lane threshold, values and final state
    for seed in (3, 2024, 2**64 - 5):
        for n in (LANE_THRESHOLD - 1, LANE_THRESHOLD, LANE_THRESHOLD + 1, 100_003):
            values, state = xoshiro256ss(seed, n)
            r = Rng(seed)
            assert r.uint64(n).tolist() == values, (seed, n)
            assert tuple(int(w) for w in r._state) == state, (seed, n)


@pytest.mark.parametrize(
    "a, b",
    [(1, LANE_THRESHOLD - 1), (1000, LANE_THRESHOLD), (LANE_THRESHOLD - 1, 70_001),
     (LANE_THRESHOLD, LANE_THRESHOLD + 3), (65_537, 9)],
)
def test_block_split_across_lane_threshold(a, b):
    r, whole = Rng(17), Rng(17)
    parts = np.concatenate([r.uint64(a), r.uint64(b)])
    assert np.array_equal(parts, whole.uint64(a + b))
    assert np.array_equal(r._state, whole._state)


def test_golden_stream_digest():
    digest = hashlib.sha256(Rng(2024).uint64(10**5).tobytes()).hexdigest()
    assert digest == "6b168658d72015dbc7b16f2120f2f211663c42735e5ffe0f409f74f754c1301c"


def _per_draw_shuffle(rng: Rng, items) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


class _ScriptedRng(Rng):
    """Replays a fixed list of stream values."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def uint64(self, n: int) -> np.ndarray:
        out = self.values[self.pos : self.pos + n]
        assert len(out) == n, "script ran out"
        self.pos += n
        return np.array(out, dtype=np.uint64)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 300])
def test_shuffle_matches_per_draw_fisher_yates(size):
    for seed in (1, 8):
        a, b = list(range(size)), list(range(size))
        ra, rb = Rng(seed), Rng(seed)
        ra.shuffle(a)
        _per_draw_shuffle(rb, b)
        assert a == b
        assert np.array_equal(ra._state, rb._state)


def test_shuffle_rejection_consumes_stream_like_below():
    # 2**64 - 1 is rejected for every n that is not a power of two. The
    # script rejects the first draw (n = 6), the last draw of the first
    # batch (n = 3) and the first draw of the second batch (n = 3 again).
    top = 2**64 - 1
    script = [top, 11, 40, 7, top, top, 2**63, 5, 123, 456]
    a, b = list(range(6)), list(range(6))
    sa, sb = _ScriptedRng(script), _ScriptedRng(script)
    sa.shuffle(a)
    _per_draw_shuffle(sb, b)
    assert a == b
    assert sa.pos == sb.pos == 8


def test_shuffle_accepts_what_below_accepts_at_the_bound():
    # Position n rejects x >= 2**64 - 2**64 % n, and 2**64 % n < n, so
    # every x <= 2**64 - n is accepted. Each position is scripted its
    # rejected edge values first, then one accepted edge value, taken in
    # turn; a value the two rules disagree on shifts the whole stream.
    # 274177 divides 2**64 + 1, so there the two edges meet: 2**64 - n + 1
    # is the bound itself.
    top = 2**64 - 1
    for size in (3, 7, 12, 300, 274177):
        script = []
        for n in range(size, 1, -1):
            bound = (1 << 64) - (1 << 64) % n
            edges = [x for x in (top, bound, bound - 1, top - n + 2, top - n + 1, top - n)
                     if x <= top]  # the bound of a power of two is 2**64
            script += [x for x in edges if x >= bound]
            accepted = [x for x in edges if x < bound]
            script.append(accepted[n % len(accepted)])
        a, b = list(range(size)), list(range(size))
        sa, sb = _ScriptedRng(script), _ScriptedRng(script)
        sa.shuffle(a)
        _per_draw_shuffle(sb, b)
        assert a == b
        assert sa.pos == sb.pos == len(script) > size - 1


def test_block_split_invariance():
    r = Rng(5)
    whole = Rng(5).uint64(100)
    parts = np.concatenate([r.uint64(33), r.uint64(67)])
    assert np.array_equal(whole, parts)


def test_gaussian_moments():
    z = Rng(123).gaussian(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_uniform_range():
    u = Rng(9).uniform(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_rademacher_values():
    r = Rng(9).rademacher(10_000)
    assert set(np.unique(r)) == {-1.0, 1.0}
    assert abs(r.mean()) < 0.05


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a, b = list(items), list(items)
    Rng(1).shuffle(a)
    Rng(1).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items


def test_orthogonal_matrix():
    q = Rng(3).orthogonal(6)
    np.testing.assert_allclose(q @ q.T, np.eye(6), atol=1e-12)


def test_below_bounds():
    r = Rng(4)
    draws = [r.below(7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) <= 6
    with pytest.raises(ValueError):
        r.below(0)
