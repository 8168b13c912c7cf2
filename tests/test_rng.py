import functools
import hashlib
import tracemalloc

import numpy as np
import pytest
from oracles import below, xoshiro256ss

from trajkit.rng import LANE_THRESHOLD, Rng


def rng_from_state(state) -> Rng:
    """An Rng whose xoshiro256** state is the four words ``state``."""
    rng = Rng.__new__(Rng)
    rng._state = np.array(state, dtype=np.uint64)
    return rng


def test_xoshiro_known_outputs():
    # state (1,2,3,4): first output rotl(2*5,7)*9 = 11520, second 0
    r = rng_from_state([1, 2, 3, 4])
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
        j = below(rng, i + 1)
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


# SHA-256 of the values and of the state after one draw from Rng(2024).
# 33 124 Gaussians are two serial draws of 16 562 uniforms, or one draw
# of 33 124 stream values in lanes: both must give these bits.
_DRAW_DIGESTS = {
    "gaussian": {
        1: "81f1ec68ed8be1b6544f9aaf11517111d0064d2c681f269cd90a5631487bef2b",
        7: "2def133ed51861dd863d6600951183c4b08287898d4c2397e456babff6e1bc15",
        4096: "66813d18ac23b48c3c0b7220d2e660a0c8553d5d96ae03325daa34e1e8c7e95b",
        32767: "97526b92141f3109f862a4a830735ade89e73bb59de9daaf351056fe214e4d10",
        32768: "c64d8ee3b1523d5bf2097ac02ae8185d0c571b27dd590c8dae63e8e948dfd86e",
        33124: "38a0eaa5c343700b05658cc6f5b39ac4847a0cb5289bc1f0e74057def587573d",
        65537: "b56e893df5afdc00a5c056238dc101635edf81a8ff198eeec971d76033aba3bc",
        76810: "fe65b32ee83a51fe7c7b0334d9b15bc2587c11ef622ccae4e8e8d40e7ae290d9",
        99999: "42b8b89fbc6b188cd4755b3e3991ce0cc4c97c7495b62055cd8558611dd627b2",
        2**20: "03e7cb1ae1a8d7836e9ef248fb64148cdcba2e5675283d77e73e67a9c9cb29bb",
        2**20 + 1: "c988143de4c19d314bb73b84ecf3357f3de34caed2dd7bc7643a0612076da856",
    },
    "uniform": {
        1: "b2e816a89aebb90b263f839c772af5747bc588a2f33989701a3774aae9dacdf0",
        7: "f1617d51bcf1efad43a384f1a27bc4c6b0d08e1131c4db862b947e7eb055641a",
        4096: "94ad6dd9fb1c7b00e2721e62caed81fb85f8e882370b8eebbd3eec893efe8a3f",
        32767: "53a9187cbdd6b3eb4990099cbf07039b211bfb68a3db2d502d1f649925d12047",
        32768: "5c9f6d72343b21e37706b0a6c0797ec0af8ebce25519fb42cca27e511d88eb3a",
        33124: "fa7ae59cb929c6fe678127b1e620987bdd75e9251ad6ced348efb42cbd8f56c4",
        65537: "fd2ca3cd545084a9758937ed5c4af468fc353966fb7ce6931b610cd17895ea35",
    },
    "rademacher": {
        1: "d818c508da3e7c900256132bf50a281c7b21151b27cf6ef3aaad708c2bc437fc",
        7: "0f10644debb49c0339549e81514194da8bfc2bfa47a3246b53a17524de6caa76",
        4096: "f2bce5dff31afb7c2bfdcdaf41cb6c784f1f37762c58c1f9ec04250076f5500b",
        32767: "feca552c946ebc3b6a2a06745a51a752d66d133dbb56e8340e95e690309f078b",
        32768: "824485419a35485913b0d7bc4824cace5fd4e84dd7dc52902058870d0a0d5898",
        33124: "2a0c7e85c9d1c33c175a09034702f573306196ce6b19e19cdf9b9351af6b5e41",
        65537: "bbae4b8818c22bbbb15f606648e7f7c1989aa32c60d006ef2f188c8a2f676c1e",
    },
    "uint64": {
        2**20: "83d85668e04748f280776470db4a2058cb8ded5d05b36e10ff4cfc75147c3d79",
    },
}


@pytest.mark.parametrize("name", sorted(_DRAW_DIGESTS))
def test_draw_digests(name):
    for n, digest in _DRAW_DIGESTS[name].items():
        r = Rng(2024)
        h = hashlib.sha256(getattr(r, name)(n).tobytes())
        h.update(r._state.tobytes())
        assert h.hexdigest() == digest, (name, n)


@functools.cache
def _oracle_state(n: int) -> tuple[int, int, int, int]:
    return xoshiro256ss(2024, n)[1]


# 76 810 Gaussians are 38 405 pairs: 300 lanes of 128 and a last lane of
# 5 steps, shorter than a block. 99 999 are 50 000 pairs, whose 128-step
# lanes do not divide them either.
@pytest.mark.parametrize(
    "name, n",
    [("gaussian", 76_810), ("gaussian", 99_999), ("gaussian", 2**20), ("gaussian", 2**20 + 1),
     ("uint64", 2**20)],
)
def test_lane_draw_ends_at_the_oracle_state(name, n):
    r = Rng(2024)
    getattr(r, name)(n)
    values = 2 * ((n + 1) // 2) if name == "gaussian" else n
    assert tuple(int(w) for w in r._state) == _oracle_state(values)


def test_gaussian_peak_memory():
    # z itself and the lane blocks: no second array of the draw's size
    n = 2**20
    tracemalloc.start()
    try:
        Rng(3).gaussian(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * 8, peak / (n * 8)


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
    draws = [below(r, 7) for _ in range(500)]
    assert min(draws) >= 0 and max(draws) <= 6
    with pytest.raises(ValueError):
        below(r, 0)
