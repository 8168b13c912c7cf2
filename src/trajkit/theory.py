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

The quadratic checks (simulate_quadratic, lemma_bounds, eos_angle_sweep)
run in Python floats, with every sum taken by math.fsum: they import no
numpy, except to build a rotated M. width_alignment imports numpy and
the generator when it runs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from operator import mul

from . import angles
from .errors import BoundViolation, DegenerateVector, NonFiniteIterate, require_finite


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
        require_finite(eigenvalues=self.eigenvalues, alpha=self.alpha, mu=self.mu, eta=self.eta,
                       theta_init=self.theta_init)
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

    def matrix(self) -> list[list[float]]:
        """M, as a list of its rows."""
        if self.rotation_seed == 0:
            return [[lam if i == j else 0.0 for j in range(self.dim)]
                    for i, lam in enumerate(self.eigenvalues)]
        import numpy as np

        from .rng import Rng

        q = Rng(self.rotation_seed).orthogonal(self.dim)
        return (q @ np.diag(self.eigenvalues) @ q.T).tolist()


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
    """float64 memoryviews over array('d') buffers, read as trace.thetas[t, j]
    or through .tolist(); np.asarray turns each into an ndarray of the same
    shape without a copy."""

    thetas: memoryview  # (S+1, d)
    deltas: memoryview  # (S, d), deltas[t-1] = theta_t - theta_{t-1}
    inner_products: memoryview  # (S-1,), [t-1] = <Delta_t, Delta_{t+1}>


def _zeros(size: int) -> array:
    """``size`` float64 zeros, allocated at once, so that a trace the
    process cannot map fails before the first step."""
    try:
        return array("d", [0.0]) * size
    except OverflowError:  # more values than an index can count: a bad parameter
        raise ValueError(f"a trace of {size} float64 values exceeds the address space") from None
    except MemoryError:
        raise MemoryError(f"cannot allocate a trace of {size} float64 values") from None


def _shaped(buf: array, *shape: int) -> memoryview:
    return memoryview(buf).cast("B").cast("d", shape)


def _fsum(partials) -> float:
    """The correctly rounded sum of float64 partials; NaN when they
    overflow float64 or hold inf and -inf. It adds every row and dot
    product and the eos mean of the quadratic checks, and width_alignment's
    np.dot partials over 4096-element slices: BLAS runs a dot of one slice
    on one thread, so that sum is fixed by the length alone, where a single
    np.dot over whole vectors sums in an order that depends on how many
    threads BLAS splits it over."""
    try:
        return math.fsum(partials)
    except (OverflowError, ValueError):  # finite partials overflow, or inf - inf
        return math.nan


def _dot(a, b) -> float:
    return _fsum(map(mul, a, b))


def simulate_quadratic(spec: QuadraticSpec, steps: int) -> QuadraticTrace:
    """Gradient descent with one-step momentum, buffer reset every 2 steps.

    Odd steps are plain descent; even steps add the momentum correction
    -mu*eta_{t-1}*(M+aI)*theta_{t-2} inside the update. Each entry of a
    product (M+aI)*theta is the fsum of its row's products.
    """
    if steps < 2:
        raise ValueError("need at least 2 steps for an update pair")
    d = spec.dim
    a = [[m + spec.alpha if i == j else m for j, m in enumerate(row)]
         for i, row in enumerate(spec.matrix())]
    thetas, deltas, inner = _zeros((steps + 1) * d), _zeros(steps * d), _zeros(steps - 1)
    theta = spec.theta_init
    thetas[:d] = array("d", theta)
    grad = delta = None
    for t in range(1, steps + 1):
        eta_t = spec.eta_at(t)
        grad, last_grad = [_dot(row, theta) for row in a], grad  # (M+aI) theta_{t-1}, _{t-2}
        move = grad
        if t % 2 == 0 and spec.mu > 0:
            c = spec.mu * spec.eta_at(t - 1)
            move = [g - c * h for g, h in zip(grad, last_grad)]
        # an overflow makes an entry inf or, through _fsum, NaN
        new = [x - eta_t * m for x, m in zip(theta, move)]
        if not all(map(math.isfinite, new)):
            raise NonFiniteIterate(f"iterate diverged at step {t}")
        delta, last_delta = [y - x for x, y in zip(theta, new)], delta
        thetas[t * d:(t + 1) * d] = array("d", new)
        deltas[(t - 1) * d:t * d] = array("d", delta)
        if t >= 2:
            inner[t - 2] = _dot(last_delta, delta)
        theta = new
    return QuadraticTrace(thetas=_shaped(thetas, steps + 1, d), deltas=_shaped(deltas, steps, d),
                          inner_products=_shaped(inner, steps - 1))


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
    raises BoundViolation. A pair whose update product or bounds overflow
    float64 raises NonFiniteIterate, as a diverging iterate does.
    """
    report = LemmaBoundReport()
    thetas = trace.thetas.tolist()
    inner = trace.inner_products.tolist()
    for t in range(1, len(thetas) - 1, 2):  # momentum applies at step t+1
        eta_t = spec.eta_at(t)
        eta_t1 = spec.eta_at(t + 1)
        theta = thetas[t - 1]
        scale = eta_t * eta_t1 * _dot(theta, theta)
        g = [(1.0 - spec.mu * eta_t - eta_t * spec.alpha - eta_t * lam)
             * ((lam + spec.alpha) * (lam + spec.alpha)) for lam in spec.eigenvalues]
        z_upper = scale * max(g)
        z_lower = scale * min(g)
        paper_upper = scale * g[-1]  # closed form at lambda_d
        paper_lower = scale * g[0]  # closed form at lambda_1
        observed = inner[t - 1]
        # max and min pass over a NaN in g; with every g finite, the four
        # bounds are finite only if scale is
        if not all(map(math.isfinite, (*g, z_upper, z_lower, paper_upper, paper_lower, observed))):
            raise NonFiniteIterate(f"pair at t={t}: its update product or bounds overflow float64")
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
    in place rather than aborting the sweep. Every grid point's spec is
    built, and so checked, before the first simulation runs.
    """
    if len(eta_grid) == 0:
        raise ValueError("eta grid is empty")
    specs = [replace(base, eta=(float(eta),)) for eta in eta_grid]
    out = []
    for spec in specs:
        eta = spec.eta[0]
        try:
            trace = simulate_quadratic(spec, steps)
        except NonFiniteIterate as exc:
            out.append(EosPoint(eta=eta, mean_angle_deg=None, error=str(exc)))
            continue
        # Each update is scaled by a power of two that brings its largest
        # entry into [0.5, 1): the angles are bit-identical, and the squares
        # of a fast-diverging but still finite run no longer overflow.
        d = []
        for delta in trace.deltas.tolist():
            exponent = math.frexp(max(map(abs, delta)))[1]
            d.append([math.ldexp(x, -exponent) for x in delta])
        squares = [_dot(u, u) for u in d]
        inner = [_dot(u, v) for u, v in zip(d, d[1:])]
        half = []
        for t in range(len(inner) // 2, len(inner)):
            try:
                half.append(angles.angle_degrees(inner[t], squares[t], squares[t + 1]))
            except DegenerateVector:  # a zero update has no angle: skip the step
                pass
        mean = _fsum(half) / len(half) if half else None
        out.append(EosPoint(eta=eta, mean_angle_deg=mean))
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
        require_finite(eta_scale=self.eta_scale, init_std_scale=self.init_std_scale)
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
    fitted_loglog_slope: float | None  # None when fewer than two widths have 1 - cos > 0


_DOT_SLICE = 4096


def width_alignment(spec: WidthSpec) -> AlignmentCurve:
    """Run the rank-1 feature-update experiment across widths.

    Per width n: W0 is n x n Gaussian with std init_std_scale/sqrt(n);
    each step applies W -= (eta_scale/n) * dh x0^T with fresh standard
    Gaussian x0 and Rademacher dh. Records cos(vec(W_T), vec(W_0)) and
    fits a log-log line to 1 - cos versus width.

    W0 is drawn first, then (x0, dh) of every step in step order, and W0
    is held once, in the buffer its Gaussians were drawn into. W_T is
    never held whole: each 4096-value slice of vec(W_T) is W0's slice
    minus the steps' updates of it, in step order, and gives its three
    dot partials before the next slice is built. A width peaks at one
    n x n float64 array (n^2 8 bytes), W0, which the Gaussian draw fills
    block by block.
    """
    import numpy as np

    from .rng import Rng

    master = Rng(spec.seed)
    points = []
    for n in spec.widths:
        rng = master.spawn()
        b = rng.gaussian(n * n)  # vec(W0)
        b *= spec.init_std_scale / math.sqrt(n)
        updates = [(rng.gaussian(n), rng.rademacher(n)) for _ in range(spec.steps)]
        lr = spec.eta_scale / n
        partials = []
        # an entry of W_T that overflows makes the squares overflow, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, b.size, _DOT_SLICE):
                hi = min(lo + _DOT_SLICE, b.size)
                rows = slice(lo // n, (hi - 1) // n + 1)  # the rows of W the slice covers
                cols = slice(lo % n, lo % n + hi - lo)  # the slice within their vec
                b_slice = b[lo:hi]
                a = b_slice.copy()  # vec(W_T)[lo:hi]
                for x0, dh in updates:
                    step = np.outer(dh[rows], x0).ravel()[cols]
                    step *= lr
                    a -= step
                partials.append((np.dot(a, a), np.dot(b_slice, b_slice), np.dot(a, b_slice)))
        aa, bb, ab = (_fsum(column) for column in zip(*partials))
        if not (math.isfinite(aa) and math.isfinite(bb)):  # then a . b is finite too
            raise NonFiniteIterate(f"width {n}: the squares of vec(W) overflow float64")
        cos = angles.cosine(ab, aa, bb)
        points.append((n, cos, 1.0 - cos))

    xs = [math.log(n) for n, _, one_minus in points if one_minus > 0]
    ys = [math.log(one_minus) for _, _, one_minus in points if one_minus > 0]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else None
    return AlignmentCurve(points=points, fitted_loglog_slope=slope)
