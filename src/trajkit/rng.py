"""Bit-reproducible pseudo-randomness.

A SplitMix64 stage expands a 64-bit seed into the 256-bit state of a
xoshiro256** generator (Blackman & Vigna, "Scrambled linear pseudorandom
number generators", 2021); Gaussians come from Box-Muller on that stream.
The exact construction is fixed so that every sampled quantity in this
package (quadratic simulations, width experiments, training runs) is
reproducible bit-for-bit from its integer seed.

A draw of at least ``LANE_THRESHOLD`` values runs in lanes. The state
transition T of xoshiro256** is linear over GF(2), so the state i steps
ahead is T^i applied to the state, a 256 x 256 bit-matrix power
(Haramoto et al., "Efficient jump ahead for F2-linear random number
generators", 2008). A draw of n values is cut into L lanes of
M = 2^floor(log2(n - 1) / 2) consecutive values. Lane l starts at
T^(l M) applied to the state, and the lanes step together as numpy
uint64 operations, _BLOCK steps at a time into a small (_BLOCK, L)
block that the draw consumes before the next: ``uint64`` copies it into
its output. The values, and the state after the draw, are bit-identical
to the serial stream. Shorter draws run the serial loop: there,
building the powers of T once per process (about 15 ms) would cost more
than it saves.

A Gaussian draw of n values takes the next 2 ceil(n / 2) stream values,
u1 || u2, so it runs in lanes from 2^15 values on. Its u1 lanes start at
the state and its u2 lanes ceil(n / 2) steps ahead, a jump by T^(2^i)
for each set bit i of ceil(n / 2), and all of them step as one set of
lanes. Each block then holds both halves of its pairs, and Box-Muller
writes their normals straight into the output: the uniforms are never
held whole, and the draw holds one float64 array of its size.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_TWO53_INV = 2.0 ** -53
LANE_THRESHOLD = 1 << 15
_BLOCK = 16  # steps per lane block


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of SplitMix64 started at ``seed``."""
    x = seed & _MASK
    out = []
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def _fill_serial(state: np.ndarray, out: np.ndarray) -> None:
    s0, s1, s2, s3 = (int(v) for v in state)
    for i in range(out.shape[0]):
        r = (s1 * 5) & _MASK
        r = ((r << 7) | (r >> 57)) & _MASK
        out[i] = (r * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    state[0] = s0
    state[1] = s1
    state[2] = s2
    state[3] = s3


def _rotl_inplace(x: np.ndarray, k: int, tmp: np.ndarray) -> None:
    np.left_shift(x, np.uint64(k), out=tmp)
    np.right_shift(x, np.uint64(64 - k), out=x)
    np.bitwise_or(x, tmp, out=x)


def _step_lanes(s: list[np.ndarray], out: np.ndarray, r: np.ndarray, t: np.ndarray) -> None:
    """Write each lane's output to ``out`` and advance every lane one step."""
    s0, s1, s2, s3 = s
    np.multiply(s1, np.uint64(5), out=r)
    _rotl_inplace(r, 7, t)
    np.multiply(r, np.uint64(9), out=out)
    np.left_shift(s1, np.uint64(17), out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    _rotl_inplace(s3, 45, t)


def _bits(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64 states -> (k, 256) float32 rows of 0/1.

    Bit b of word w lands in column 64 w + b; one generator step maps a
    row x to x @ T mod 2.
    """
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little").astype(np.float32)


def _words(bits: np.ndarray) -> np.ndarray:
    """Inverse of _bits."""
    raw = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return raw.view("<u8").astype(np.uint64)


def _mod2(sums: np.ndarray) -> np.ndarray:
    """float32 sums of 0/1 products, mod 2, as float32 0/1. Exact: the sums
    are at most 256, which float32 and int32 hold; an integer parity costs a
    fraction of a float ``% 2``."""
    return (sums.astype(np.int32) & 1).astype(np.float32)


@functools.cache
def _packed_power(k: int) -> np.ndarray:
    """T^(2^k), bit-packed (8 KB) and read-only."""
    if k == 0:  # row c of T is the image of the state with only bit c set
        basis = list(_words(np.eye(256, dtype=np.float32)).T.copy())
        _step_lanes(basis, *(np.empty(256, np.uint64) for _ in range(3)))
        power = _bits(np.stack(basis, axis=1))
    else:
        prev = _power(k - 1)
        power = _mod2(prev @ prev)
    packed = np.packbits(power.astype(np.uint8), axis=1)
    packed.flags.writeable = False
    return packed


def _power(k: int) -> np.ndarray:
    """T^(2^k) as a float32 0/1 matrix."""
    return np.unpackbits(_packed_power(k), axis=1).astype(np.float32)


def _lane_starts(states: np.ndarray, n: int) -> tuple[int, int, np.ndarray]:
    """(m, last, starts): the next ``n`` values from each row of ``states``
    as L lanes of 2^m steps, the last lane taking ``last`` of them.
    starts[i L + l] is states[i] moved l 2^m steps."""
    m = ((n - 1).bit_length() - 1) // 2
    lanes = -(-n // (1 << m))
    rows = lanes * states.shape[0]
    starts = _bits(states)
    k = m
    while starts.shape[0] < rows:  # doubling: lanes l and l + 2^(k-m) are T^(2^k) apart
        starts = np.concatenate([starts, _mod2(starts @ _power(k))])
        k += 1
    starts = _words(starts[:rows]).reshape(lanes, -1, 4).swapaxes(0, 1)  # by state, then lane
    return m, n - ((lanes - 1) << m), starts.reshape(rows, 4)


def _jump(state: np.ndarray, k: int) -> np.ndarray:
    """The state ``k`` steps ahead of ``state``."""
    row = _bits(state[None, :])
    for i in range(k.bit_length()):
        if k >> i & 1:
            row = _mod2(row @ _power(i))
    return _words(row)[0]


def _lane_blocks(starts: np.ndarray, m: int, last: int, state: np.ndarray):
    """Step one lane from each row of ``starts`` 2^m steps, _BLOCK at a time.

    Yields (j0, block) with block[j, l] the output of lane l at its step
    j0 + j; the block is overwritten by the next one. ``state`` becomes
    that of the last lane after its first ``last`` steps.
    """
    s = list(starts.T.copy())
    block = np.empty((_BLOCK, starts.shape[0]), dtype=np.uint64)
    r, t = np.empty_like(block[0]), np.empty_like(block[0])
    for j0 in range(0, 1 << m, _BLOCK):
        for j in range(_BLOCK):
            _step_lanes(s, block[j], r, t)
            if j0 + j + 1 == last:
                state[:] = [w[-1] for w in s]
        yield j0, block


def _gaussian_lanes(state: np.ndarray, pairs: int) -> np.ndarray:
    """Box-Muller on the next 2 ``pairs`` values, run in lanes; advances
    ``state`` by 2 ``pairs`` steps.

    The u1 lanes start at ``state`` and the u2 lanes ``pairs`` steps
    further, and all of them step together, so each block gives the
    uniforms of both halves of its pairs at once.
    """
    m, last, starts = _lane_starts(np.stack([state, _jump(state, pairs)]), pairs)
    lanes = starts.shape[0] // 2
    z = np.empty(2 * (lanes << m), dtype=np.float64)
    pair = z.reshape(lanes, 1 << m, 2)  # pair i = l 2^m + j is lane l's step j
    u = np.empty((2 * lanes, _BLOCK), dtype=np.float64)  # lane-major, as z is
    u1, u2 = u[:lanes], u[lanes:]
    cos = np.empty_like(u1)
    for j0, block in _lane_blocks(starts, m, last, state):
        _to_uniform(block.T, u)
        _box_muller(u1, u2, cos, u2)  # contiguous: a strided 2-D out makes numpy buffer
        pair[:, j0 : j0 + _BLOCK, 0] = cos
        pair[:, j0 : j0 + _BLOCK, 1] = u2
    return z


def _to_uniform(bits: np.ndarray, out: np.ndarray) -> None:
    """Uniforms in (0, 1] from stream values; shifts ``bits`` in place."""
    bits >>= np.uint64(11)
    np.copyto(out, bits)
    out += 1.0
    out *= _TWO53_INV


def _box_muller(u1: np.ndarray, u2: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """even = r cos(a) and odd = r sin(a), with r = sqrt(-2 log(u1)) and
    a = 2 pi u2; overwrites u1 and u2, and ``odd`` may be ``u2``."""
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * math.pi
    np.cos(u2, out=even)
    np.sin(u2, out=odd)
    even *= u1
    odd *= u1


def _rejection_bound(n: int) -> int:
    """Values below this map to [0, n) without bias as ``x % n``."""
    return (1 << 64) - ((1 << 64) % n)


class Rng:
    """xoshiro256** stream seeded through SplitMix64."""

    def __init__(self, seed: int):
        self._state = np.array(splitmix64_stream(seed, 4), dtype=np.uint64)

    def uint64(self, n: int) -> np.ndarray:
        """The next ``n`` values of the stream. Every draw takes its values
        here except a Gaussian draw in lanes, which steps its own."""
        n = operator.index(n)
        if n >= LANE_THRESHOLD:
            m, last, starts = _lane_starts(self._state[None, :], n)
            out = np.empty(starts.shape[0] << m, dtype=np.uint64)
            grid = out.reshape(-1, 1 << m)
            for j0, block in _lane_blocks(starts, m, last, self._state):
                grid[:, j0 : j0 + _BLOCK] = block.T
            return out[:n]
        out = np.empty(n, dtype=np.uint64)
        _fill_serial(self._state, out)
        return out

    def next_uint64(self) -> int:
        return int(self.uint64(1)[0])

    def spawn(self) -> "Rng":
        """Child stream keyed off the next output of this one."""
        return Rng(self.next_uint64())

    def uniform(self, n: int) -> np.ndarray:
        """Uniforms in (0, 1]; the +1 keeps log() finite for Box-Muller."""
        bits = self.uint64(n)
        u = np.empty(n, dtype=np.float64)
        _to_uniform(bits, u)
        return u

    def gaussian(self, n: int) -> np.ndarray:
        """Standard normals by Box-Muller on u1 || u2, the next 2 * pairs
        stream values with pairs = ceil(n / 2): z[2i] = r_i cos(a_i) and
        z[2i + 1] = r_i sin(a_i), with r_i = sqrt(-2 log(u1_i)) and
        a_i = 2 pi u2_i. From LANE_THRESHOLD values on, u1 and u2 come
        from lanes in blocks and go straight into z, so a draw holds one
        float64 array of its size."""
        pairs = (n + 1) // 2
        if 2 * pairs >= LANE_THRESHOLD:
            return _gaussian_lanes(self._state, pairs)[:n]
        u = self.uniform(2 * pairs)
        z = np.empty(2 * pairs, dtype=np.float64)
        _box_muller(u[:pairs], u[pairs:], z[0::2], z[1::2])
        return z[:n]

    def rademacher(self, n: int) -> np.ndarray:
        """Uniform +/-1 from the low bit of the stream."""
        bits = self.uint64(n) & np.uint64(1)
        return bits.astype(np.float64) * 2.0 - 1.0

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates; takes the same values from the stream as
        the serial form that draws each position i's j in [0, i + 1) by
        rejection, one stream value at a time (``below`` in
        tests/oracles.py), but drawn in batches."""
        i = len(items) - 1
        while i > 0:
            # One value per remaining position; a rejected value is skipped
            # and its position is drawn again in the next batch.
            for x in self.uint64(i).tolist():
                # 2**64 % (i + 1) <= i, so every x <= _MASK - i is below the bound
                if x <= _MASK - i or x < _rejection_bound(i + 1):
                    j = x % (i + 1)
                    items[i], items[j] = items[j], items[i]
                    i -= 1

    def orthogonal(self, d: int) -> np.ndarray:
        """Random orthogonal d x d matrix via modified Gram-Schmidt."""
        a = self.gaussian(d * d).reshape(d, d)
        q = np.empty_like(a)
        for j in range(d):
            v = a[:, j].copy()
            for i in range(j):
                v -= np.dot(q[:, i], v) * q[:, i]
            nv = np.linalg.norm(v)
            if nv < 1e-12:
                raise ValueError("degenerate Gram-Schmidt column")
            q[:, j] = v / nv
        return q
