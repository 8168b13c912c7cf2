"""Independent reference implementations used only to check the library.

These deliberately avoid the library's own code paths: plain double
loops for kernels, a bit-level half-precision decoder, per-definition
angle formulas, two eigensolvers that share nothing with LAPACK or
with each other (shifted power iteration with deflation, and cyclic
Jacobi rotations), and per-cell, per-value heatmap and CSV writers.
"""

from __future__ import annotations

import csv
import io
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


def quadratic_oracle(m, alpha: float, mu: float, eta, theta_init, steps: int):
    """Gradient descent with one-step momentum (buffer reset every 2 steps)
    on the quadratic of A = M + alpha I, given the d x d matrix M, in long
    double. Step t uses eta[min(t - 1, len(eta) - 1)]; an even step adds
    -mu eta_{t-1} A theta_{t-2} to its gradient. Returns the iterates and
    the inner products of successive updates, in long double."""
    d = len(theta_init)
    a = np.asarray(m, dtype=np.longdouble) + np.longdouble(alpha) * np.eye(d, dtype=np.longdouble)
    etas = [np.longdouble(eta[min(t, len(eta) - 1)]) for t in range(steps)]  # etas[t - 1] = eta_t
    thetas = np.empty((steps + 1, d), dtype=np.longdouble)
    thetas[0] = np.asarray(theta_init, dtype=np.longdouble)
    for t in range(1, steps + 1):
        grad = a @ thetas[t - 1]
        if t % 2 == 0 and mu > 0:
            grad = grad - np.longdouble(mu) * etas[t - 2] * (a @ thetas[t - 2])
        thetas[t] = thetas[t - 1] - etas[t - 1] * grad
    deltas = np.diff(thetas, axis=0)
    return thetas, np.einsum("ij,ij->i", deltas[:-1], deltas[1:])


def z_bounds_oracle(m, alpha: float, mu: float, eta_t: float, eta_t1: float, theta):
    """(lower, upper) bounds of <Delta_t, Delta_{t+1}> for an odd t: eta_t
    eta_{t+1} |theta_{t-1}|^2 times the extreme eigenvalues of
    Z = A ((1 - mu eta_t) I - eta_t A) A, A = M + alpha I, with Z built in
    long double from the matrix and its eigenvalues found by Jacobi rotations."""
    d = len(theta)
    eye = np.eye(d, dtype=np.longdouble)
    a = np.asarray(m, dtype=np.longdouble) + np.longdouble(alpha) * eye
    z = a @ ((1 - np.longdouble(mu) * np.longdouble(eta_t)) * eye - np.longdouble(eta_t) * a) @ a
    eigs = jacobi_eigs(np.asarray((z + z.T) / 2, dtype=np.float64))
    theta = np.asarray(theta, dtype=np.longdouble)
    scale = np.longdouble(eta_t) * np.longdouble(eta_t1) * (theta @ theta)
    return float(scale * np.longdouble(eigs[-1])), float(scale * np.longdouble(eigs[0]))


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


def below(rng, n: int) -> int:
    """An unbiased integer in [0, n) from ``rng``'s stream by rejection, one
    value at a time: the serial reference for ``Rng.shuffle``, which
    takes the same values as one ``below(rng, i + 1)`` per position."""
    if n <= 0:
        raise ValueError("n must be positive")
    bound = (1 << 64) - (1 << 64) % n
    while True:
        x = rng.next_uint64()
        if x < bound:
            return x % n


HEATMAP_STOPS = (
    (0.00, (255, 255, 255)),
    (0.25, (199, 199, 229)),
    (0.50, (140, 140, 203)),
    (0.75, (81, 81, 177)),
    (1.00, (23, 23, 151)),
)


def heatmap_rgb(value: float, v_min: float, v_max: float) -> tuple[int, int, int]:
    """One cell's colour, one stop pair at a time, in Python floats."""
    span = v_max - v_min
    f = min(max((value - v_min) / span, 0.0), 1.0)  # NaN stays NaN and takes the last stop
    for (f0, c0), (f1, c1) in zip(HEATMAP_STOPS[:-1], HEATMAP_STOPS[1:]):
        if f <= f1:
            w = (f - f0) / (f1 - f0)
            return tuple(int(round(a + w * (b - a))) for a, b in zip(c0, c1))
    return HEATMAP_STOPS[-1][1]


def xml_text(text: str) -> str:
    """Character by character: markup escaped, and whatever the XML 1.0
    ``Char`` production excludes replaced by U+FFFD."""
    out = []
    for ch in text:
        c = ord(ch)
        if ch in "&<>":
            out.append({"&": "&amp;", "<": "&lt;", ">": "&gt;"}[ch])
        elif c in (0x9, 0xA, 0xD) or 0x20 <= c <= 0xD7FF or 0xE000 <= c <= 0xFFFD or c > 0xFFFF:
            out.append(ch)
        else:
            out.append("\ufffd")
    return "".join(out)


def heatmap_svg(matrix: np.ndarray, labels: list[str], v_min: float = -1.0,
                v_max: float = 1.0) -> str:
    """The heatmap document, one f-string per cell and per label."""
    n = matrix.shape[0]
    cp, font = 12, 10
    margin = 6 * font
    size = margin + n * cp
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    parts.append('<g shape-rendering="crispEdges">')
    for i in range(n):
        for j in range(n):
            r, g, b = heatmap_rgb(float(matrix[i, j]), v_min, v_max)
            parts.append(
                f'<rect x="{margin + j * cp}" y="{margin + i * cp}" '
                f'width="{cp}" height="{cp}" fill="rgb({r},{g},{b})"/>'
            )
    parts.append("</g>")
    parts.append(f'<g font-family="monospace" font-size="{font}" fill="black">')
    for i, label in enumerate(labels):
        y = margin + i * cp + (cp + font) // 2
        parts.append(f'<text x="2" y="{y}" text-anchor="start">{xml_text(label)}</text>')
        x = margin + i * cp + cp // 2
        parts.append(
            f'<text x="{x}" y="{margin - 4}" text-anchor="end" '
            f'transform="rotate(-90 {x} {margin - 4})">{xml_text(label)}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def csv_bytes(header: list[str], rows) -> bytes:
    """A CSV document through csv.writer, each float cell formatted on its
    own to 17 significant digits."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(v), ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()
