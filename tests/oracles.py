"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: plain double
loops for kernels, a bit-level half-precision decoder, per-definition
angle formulas, and two eigensolvers that share nothing with LAPACK or
with each other: shifted power iteration with deflation, and cyclic
Jacobi rotations.
"""

from __future__ import annotations

import math

import numpy as np


def naive_gram(points: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    """Double-loop Gram matrix of (optionally shifted) row vectors."""
    pts = np.asarray(points, dtype=np.float64)
    if origin is not None:
        pts = pts - np.asarray(origin, dtype=np.float64)
    n = pts.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(np.dot(pts[i], pts[j]))
    return out


def longdouble_gram(points: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix of (optionally shifted) row vectors, shifted and summed in
    long double (a 64-bit significand on x86), and returned in long double."""
    pts = np.asarray(points, dtype=np.longdouble)
    if origin is not None:
        pts = pts - np.asarray(origin, dtype=np.longdouble)
    return pts @ pts.T


def naive_cosine(points: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if origin is not None:
        pts = pts - np.asarray(origin, dtype=np.float64)
    n = pts.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            denom = float(np.linalg.norm(pts[i])) * float(np.linalg.norm(pts[j]))
            out[i, j] = float(np.dot(pts[i], pts[j])) / denom
    return np.clip(out, -1.0, 1.0)


def decode_f16(bits: int) -> float:
    """IEEE-754 binary16 from its 16-bit pattern, by field arithmetic."""
    sign = -1.0 if bits >> 15 else 1.0
    exp = (bits >> 10) & 0x1F
    frac = bits & 0x3FF
    if exp == 0x1F:
        return sign * (math.nan if frac else math.inf)
    if exp == 0:
        return sign * frac * 2.0 ** -24
    return sign * (1.0 + frac / 1024.0) * 2.0 ** (exp - 15)


def angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    c = float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def angular_oracle(theta: np.ndarray, measure: str, k: int = 1) -> list[tuple[int, float]]:
    """Each measure written out directly from its defining vectors."""
    last = theta.shape[0] - 1
    out = []
    if measure == "consecutive_updates":
        for t in range(1, last):
            out.append((t, angle_deg(theta[t + 1] - theta[t], theta[t] - theta[t - 1])))
    elif measure == "lagged_updates":
        for t in range(k, last - k + 1):
            out.append((t, angle_deg(theta[t + k] - theta[t], theta[t] - theta[t - k])))
    elif measure == "apex_at_init":
        for t in range(1, last + 1):
            out.append((t, angle_deg(theta[t] - theta[0], theta[1] - theta[0])))
    elif measure == "apex_at_origin":
        for t in range(0, last + 1):
            out.append((t, angle_deg(theta[t], theta[0])))
    elif measure == "update_vs_position":
        for t in range(0, last):
            out.append((t, angle_deg(theta[t + 1] - theta[t], theta[t])))
    elif measure == "update_vs_total_displacement":
        for t in range(0, last):
            out.append((t, angle_deg(theta[t + 1] - theta[t], theta[last] - theta[0])))
    elif measure == "progress_vs_total_displacement":
        for t in range(1, last + 1):
            out.append((t, angle_deg(theta[t] - theta[0], theta[last] - theta[0])))
    elif measure == "update_vs_displacement_from_init":
        for t in range(1, last):
            out.append((t, angle_deg(theta[t + 1] - theta[t], theta[t] - theta[0])))
    else:
        raise ValueError(measure)
    return out


def norm_oracle(theta: np.ndarray, measure: str, k: int = 1) -> list[tuple[int, float]]:
    last = theta.shape[0] - 1
    if measure == "param_norm":
        return [(t, float(np.linalg.norm(theta[t]))) for t in range(last + 1)]
    if measure == "dist_from_init":
        return [(t, float(np.linalg.norm(theta[t] - theta[0]))) for t in range(last + 1)]
    if measure == "update_norm":
        return [(t, float(np.linalg.norm(theta[t + k] - theta[t]))) for t in range(last - k + 1)]
    raise ValueError(measure)


def power_iteration_eigs(a: np.ndarray, max_iters: int = 20000) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending.

    Shifted power iteration: iterate with (A + sI)^16 (s makes the shift
    positive definite, the 16th power speeds convergence without
    changing eigenvectors), deflating by projection against previously
    found eigenvectors. Eigenvalues come from Rayleigh quotients with
    the original matrix, which squares the eigenvector error.
    """
    a = 0.5 * (np.asarray(a, dtype=np.float64) + np.asarray(a, dtype=np.float64).T)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    s = 1.0 + float(np.abs(a).sum(axis=1).max())
    m = a + s * np.eye(n)
    for _ in range(4):
        m = m @ m
        m = m / np.linalg.norm(m)

    rng = np.random.default_rng(12345)
    found = []
    eigs = []
    for _ in range(n):
        v = rng.standard_normal(n)
        for u in found:
            v -= np.dot(u, v) * u
        v /= np.linalg.norm(v)
        prev = v.copy()
        for it in range(max_iters):
            w = m @ v
            for u in found:
                w -= np.dot(u, w) * u
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
            if min(np.linalg.norm(v - prev), np.linalg.norm(v + prev)) < 1e-13:
                break
            prev = v.copy()
        eigs.append(float(v @ a @ v))
        found.append(v)
    return np.sort(np.array(eigs))[::-1]


def jacobi_eigs(m: np.ndarray, max_sweeps: int = 100, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, by cyclic Jacobi.

    Each sweep zeroes every off-diagonal pair once with a two-sided
    rotation; stops when the off-diagonal Frobenius norm (summed
    directly, not as ||A||^2 - ||diag||^2, which cancels) falls to
    ``tol`` times ||A||_F.
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    fro = np.linalg.norm(a)
    if fro == 0.0:
        return np.zeros(n)
    if not np.isfinite(fro):  # every matrix would pass the stopping test
        raise ArithmeticError("||A||_F overflows float64: scale A by a power of two")

    def off_norm() -> float:
        d = a.copy()
        np.fill_diagonal(d, 0.0)
        return float(np.linalg.norm(d))

    for _ in range(max_sweeps):
        if off_norm() <= tol * fro:
            return np.sort(np.diagonal(a))[::-1].copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + np.hypot(1.0, theta))
                else:
                    t = -1.0 / (-theta + np.hypot(1.0, theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    if off_norm() <= tol * fro:
        return np.sort(np.diagonal(a))[::-1].copy()
    raise ArithmeticError(f"Jacobi did not converge in {max_sweeps} sweeps")


def xoshiro256ss(seed: int, n: int) -> tuple[list[int], tuple[int, int, int, int]]:
    """First ``n`` xoshiro256** outputs from a SplitMix64-seeded state, and
    the state after them, in plain integers after the published reference
    code (Blackman & Vigna, "Scrambled linear pseudorandom number
    generators", 2021)."""
    mask = (1 << 64) - 1

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    x = seed & mask
    s = []
    for _ in range(4):  # splitmix64 next()
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        s.append(z ^ (z >> 31))
    out = []
    for _ in range(n):
        out.append((rotl((s[1] * 5) & mask, 7) * 9) & mask)
        t = (s[1] << 17) & mask
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out, tuple(s)
