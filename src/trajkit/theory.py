"""Numerical checks of the two theoretical results.

1. For the l2-regularized quadratic minimized by gradient descent with a
   one-step momentum (buffer reset every 2 steps), the inner product of
   successive updates is the quadratic form of
   Z = (M+aI)((1-mu*eta_t-a*eta_t)I - eta_t*M)(M+aI) at theta_{t-1}, so it
   is bounded exactly by the extreme eigenvalues of Z. The closed forms
   evaluated at lambda_1/lambda_d are reported alongside for comparison
   (they coincide with the exact extremes only for some hyperparameters).
2. Large-width alignment: with O(1/sqrt(n)) initialisation and O(1/n)
   rank-1 feature updates, cos(vec(W_T), vec(W_0)) -> 1 as width grows,
   with 1 - cos shrinking like 1/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import angles
from .errors import BoundViolation, DegenerateVector, NonFiniteIterate
from .rng import Rng


@dataclass
class QuadraticSpec:
    """M = Q diag(eigenvalues) Q^T with Q seeded by rotation_seed (0 = identity)."""

    eigenvalues: tuple[float, ...]
    alpha: float = 0.0
    mu: float = 0.0
    eta: tuple[float, ...] = (0.1,)
    theta_init: tuple[float, ...] = (1.0,)
    rotation_seed: int = 0

    def __post_init__(self):
        self.eigenvalues = tuple(float(v) for v in self.eigenvalues)
        self.eta = tuple(float(v) for v in self.eta)
        self.theta_init = tuple(float(v) for v in self.theta_init)
        if len(self.eigenvalues) < 1:
            raise ValueError("need at least one eigenvalue")
        if list(self.eigenvalues) != sorted(self.eigenvalues, reverse=True):
            raise ValueError("eigenvalues must be sorted descending")
        if len(self.theta_init) != len(self.eigenvalues):
            raise ValueError("theta_init length must match the spectrum size")
        if not self.eta or any(e <= 0 for e in self.eta):
            raise ValueError("need at least one learning rate, each positive")
        if self.alpha < 0 or self.mu < 0:
            raise ValueError("alpha and mu must be non-negative")

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def eta_at(self, t: int) -> float:
        """Learning rate for the step producing theta_t (1-based)."""
        return self.eta[min(t - 1, len(self.eta) - 1)]

    def matrix(self) -> np.ndarray:
        lam = np.diag(self.eigenvalues)
        if self.rotation_seed == 0:
            return lam
        q = Rng(self.rotation_seed).orthogonal(self.dim)
        return q @ lam @ q.T


# 1-D quadratics whose update pair can be recursed by hand.
LEMMA_1D_PLAIN = QuadraticSpec(
    eigenvalues=(2.0,), alpha=0.0, mu=0.0, eta=(0.1,), theta_init=(1.0,)
)
LEMMA_1D_MOMENTUM = QuadraticSpec(
    eigenvalues=(2.0,), alpha=0.1, mu=0.5, eta=(0.1,), theta_init=(1.0,)
)
LEMMA_STEPS = 2

# Two-mode quadratic for the obtuse/acute angle transition: the top mode
# turns oscillatory and dominant once eta passes 2/(lambda_1+lambda_2).
EOS_BASE = QuadraticSpec(
    eigenvalues=(10.0, 1.0), alpha=0.0, mu=0.0, eta=(0.01,), theta_init=(1.0, 1.0)
)
EOS_GRID = (0.01, 0.05, 0.10, 0.14, 0.17, 0.19)
EOS_STEPS = 120


@dataclass
class QuadraticTrace:
    thetas: np.ndarray  # (S+1, d)
    deltas: np.ndarray  # (S, d), deltas[t-1] = theta_t - theta_{t-1}
    inner_products: np.ndarray  # (S-1,), [t-1] = <Delta_t, Delta_{t+1}>


def simulate_quadratic(spec: QuadraticSpec, steps: int) -> QuadraticTrace:
    """Gradient descent with one-step momentum, buffer reset every 2 steps.

    Odd steps are plain descent; even steps add the momentum correction
    -mu*eta_{t-1}*(M+aI)*theta_{t-2} inside the update.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps for an update pair")
    a = spec.matrix() + spec.alpha * np.eye(spec.dim)
    thetas = np.empty((steps + 1, spec.dim))
    thetas[0] = spec.theta_init
    # overflow on divergence is expected and reported via NonFiniteIterate
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            eta_t = spec.eta_at(t)
            grad = a @ thetas[t - 1]
            if t % 2 == 0 and spec.mu > 0:
                grad = grad - spec.mu * spec.eta_at(t - 1) * (a @ thetas[t - 2])
            thetas[t] = thetas[t - 1] - eta_t * grad
            if not np.all(np.isfinite(thetas[t])):
                raise NonFiniteIterate(f"iterate diverged at step {t}")
    deltas = np.diff(thetas, axis=0)
    inner = np.einsum("ij,ij->i", deltas[:-1], deltas[1:])
    return QuadraticTrace(thetas=thetas, deltas=deltas, inner_products=inner)


@dataclass
class LemmaPairBounds:
    t: int  # pair covers updates (Delta_t, Delta_{t+1}); t is odd
    observed: float
    z_lower: float
    z_upper: float
    paper_lower: float
    paper_upper: float
    z_satisfied: bool
    paper_matches_z: bool


@dataclass
class LemmaBoundReport:
    pairs: list[LemmaPairBounds] = field(default_factory=list)

    @property
    def all_satisfied(self) -> bool:
        return all(p.z_satisfied for p in self.pairs)


def lemma_bounds(spec: QuadraticSpec, trace: QuadraticTrace) -> LemmaBoundReport:
    """Check <Delta_t, Delta_{t+1}> against the exact Z-eigenvalue bounds.

    The exact bounds hold for every quadratic form; a violation beyond
    the floating-point tolerance indicates an implementation bug and
    raises BoundViolation.
    """
    lam = np.asarray(spec.eigenvalues)
    report = LemmaBoundReport()
    steps = trace.deltas.shape[0]
    for t in range(1, steps, 2):  # momentum applies at step t+1
        eta_t = spec.eta_at(t)
        eta_t1 = spec.eta_at(t + 1)
        scale = eta_t * eta_t1 * float(np.dot(trace.thetas[t - 1], trace.thetas[t - 1]))
        g = (1.0 - spec.mu * eta_t - eta_t * spec.alpha - eta_t * lam) * (lam + spec.alpha) ** 2
        z_upper = scale * float(np.max(g))
        z_lower = scale * float(np.min(g))
        paper_upper = scale * float(g[-1])  # closed form at lambda_d
        paper_lower = scale * float(g[0])  # closed form at lambda_1
        observed = float(trace.inner_products[t - 1])
        tol = 1e-9 * (1.0 + abs(observed))
        satisfied = z_lower - tol <= observed <= z_upper + tol
        matches = math.isclose(paper_upper, z_upper, rel_tol=1e-12, abs_tol=1e-15) and (
            math.isclose(paper_lower, z_lower, rel_tol=1e-12, abs_tol=1e-15)
        )
        report.pairs.append(
            LemmaPairBounds(
                t=t,
                observed=observed,
                z_lower=z_lower,
                z_upper=z_upper,
                paper_lower=paper_lower,
                paper_upper=paper_upper,
                z_satisfied=satisfied,
                paper_matches_z=matches,
            )
        )
        if not satisfied:
            raise BoundViolation(
                f"pair at t={t}: observed {observed!r} outside "
                f"[{z_lower!r}, {z_upper!r}] (exact quadratic-form bounds)"
            )
    return report


@dataclass
class EosPoint:
    eta: float
    mean_angle_deg: float | None
    error: str | None = None


def eos_angle_sweep(
    base: QuadraticSpec, eta_grid, steps: int = EOS_STEPS
) -> list[EosPoint]:
    """Mean consecutive-update angle over the last half of steps, per eta.

    Past the oscillatory threshold the dominant mode flips sign each step
    and the mean angle turns obtuse; a diverging grid point is reported
    in place rather than aborting the sweep.
    """
    if len(eta_grid) == 0:
        raise ValueError("eta grid is empty")
    out = []
    for eta in eta_grid:
        spec = replace(base, eta=(float(eta),))
        try:
            trace = simulate_quadratic(spec, steps)
        except NonFiniteIterate as exc:
            out.append(EosPoint(eta=float(eta), mean_angle_deg=None, error=str(exc)))
            continue
        # Each update is scaled by a power of two that brings its largest
        # entry into [0.5, 1): the angles are bit-identical, and the squares
        # of a fast-diverging but still finite run no longer overflow.
        _, exponents = np.frexp(np.abs(trace.deltas).max(axis=1))
        d = np.ldexp(trace.deltas, -exponents[:, None])
        squares = np.einsum("ij,ij->i", d, d).tolist()
        inner = np.einsum("ij,ij->i", d[:-1], d[1:]).tolist()
        half = []
        for t in range(len(inner) // 2, len(inner)):
            try:
                half.append(angles.angle_degrees(inner[t], squares[t], squares[t + 1]))
            except DegenerateVector:  # a zero update has no angle: skip the step
                pass
        mean = float(np.mean(half)) if half else None
        out.append(EosPoint(eta=float(eta), mean_angle_deg=mean))
    return out


@dataclass
class WidthSpec:
    widths: tuple[int, ...] = (64, 256, 1024, 4096)
    eta_scale: float = 1.0  # eta = eta_scale / width
    steps: int = 1
    seed: int = 2024
    init_std_scale: float = 1.0  # W0 entries ~ N(0, (init_std_scale/sqrt(width))^2)

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        if any(w < 2 for w in self.widths):
            raise ValueError("widths must all be >= 2")
        if list(self.widths) != sorted(set(self.widths)):
            raise ValueError("widths must be strictly increasing")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


WIDTH_FIXTURE = WidthSpec()


@dataclass
class AlignmentCurve:
    points: list[tuple[int, float, float]]  # (width, cos, 1 - cos)
    fitted_loglog_slope: float  # NaN when fewer than two widths have 1 - cos > 0


_DOT_SLICE = 4096


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b in an order fixed by the length alone: np.dot over 4096-element
    slices, which BLAS runs on one thread, and their partials summed exactly
    by math.fsum. A single np.dot over the whole vectors sums in an order
    that depends on how many threads BLAS splits it over. NaN when the
    products overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks the result
        partials = [
            float(np.dot(a[i : i + _DOT_SLICE], b[i : i + _DOT_SLICE]))
            for i in range(0, a.size, _DOT_SLICE)
        ]
    try:
        return math.fsum(partials)
    except (OverflowError, ValueError):  # finite partials overflow, or inf - inf
        return math.nan


def width_alignment(spec: WidthSpec) -> AlignmentCurve:
    """Run the rank-1 feature-update experiment across widths.

    Per width n: W0 is n x n Gaussian with std init_std_scale/sqrt(n);
    each step applies W -= (eta_scale/n) * dh x0^T with fresh standard
    Gaussian x0 and Rademacher dh. Records cos(vec(W_T), vec(W_0)) and
    fits a log-log line to 1 - cos versus width.
    """
    master = Rng(spec.seed)
    points = []
    for n in spec.widths:
        rng = master.spawn()
        w0 = rng.gaussian(n * n).reshape(n, n) * (spec.init_std_scale / math.sqrt(n))
        w = w0.copy()
        lr = spec.eta_scale / n
        for _ in range(spec.steps):
            x0 = rng.gaussian(n)
            dh = rng.rademacher(n)
            w -= lr * np.outer(dh, x0)
        a, b = w.ravel(), w0.ravel()
        aa, bb = _dot(a, a), _dot(b, b)
        if not (math.isfinite(aa) and math.isfinite(bb)):  # then a . b is finite too
            raise NonFiniteIterate(f"width {n}: the squares of vec(W) overflow float64")
        cos = angles.cosine(_dot(a, b), aa, bb)
        points.append((n, cos, 1.0 - cos))

    xs = [math.log(n) for n, _, one_minus in points if one_minus > 0]
    ys = [math.log(one_minus) for _, _, one_minus in points if one_minus > 0]
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")
    return AlignmentCurve(points=points, fitted_loglog_slope=slope)
