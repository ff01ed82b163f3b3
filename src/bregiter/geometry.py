"""Bregman geometries over finite-dimensional vector domains.

A geometry bundles a strictly convex potential phi with its gradient map,
the inverse (mirror) map, and the induced divergence

    D(s, s') = phi(s) - phi(s') - <grad phi(s'), s - s'>.

Three kinds are provided: squared Euclidean (phi = ||s||^2 / 2), a general
quadratic form (phi = s'As / 2 with A symmetric positive definite), and
negative entropy restricted to the rho-interior of the probability simplex.
Strong-convexity and smoothness constants are declared at construction and
certified by sampling (see ``certify_constants``), not derived symbolically.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike


class DomainError(ValueError):
    """A point violated a geometry's domain; the message names the constraint."""


def _as_points(s, dim: int, name: str = "point", batch: bool = True, finite: bool = False) -> np.ndarray:
    """s as a float array of shape (dim,), or (B, dim) when batch; finite rejects nan and inf entries."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 and not (batch and s.ndim == 2):
        want = "a 1-d vector or a (B, dim) batch" if batch else "a 1-d vector"
        raise DomainError(f"{name} must be {want}, got shape {s.shape}")
    if s.shape[-1] != dim:
        raise DomainError(f"{name} has dimension {s.shape[-1]}, geometry expects {dim}")
    if finite and not np.isfinite(s).all():
        raise DomainError(f"{name} contains non-finite entries")
    return s


def _spd_eigenvalues(a: np.ndarray, n: int) -> np.ndarray:
    """Ascending eigenvalues of a, which must be a finite symmetric positive definite (n, n) matrix."""
    if a.shape != (n, n):
        raise ValueError(f"A must have shape ({n}, {n}), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("A contains non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise ValueError("A must be symmetric")
    eig = np.linalg.eigvalsh(a)
    if eig[0] <= 0:
        raise ValueError(f"A must be positive definite (min eigenvalue {eig[0]:g})")
    return eig


def _scalar(v):
    """A reduction over the last axis: a python float for one point, the array for a batch."""
    return float(v) if v.ndim == 0 else v


class Geometry:
    """Base class; concrete geometries implement the four maps below.

    check_point, divergence, grad, mirror and sample_point take one point
    of shape (dim,) or a batch of shape (B, dim), with one body for both:
    reductions over the coordinates use np.vecdot and stacked np.matmul,
    which give each row the same bits as the 1-d call (einsum, tensordot, a
    2-d @ and sum-of-products do not: BLAS dot kernels fuse multiply-adds).

    The public maps check their points; _divergence, _grad and _project are
    the same maps without the checks, for points that were already checked
    (the engine checks s0 and s_star once and then runs unchecked).
    """

    kind = "base"

    def __init__(self, dim: int, mu: float, L: float):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not mu > 0:
            raise ValueError(f"mu must be > 0, got {mu}")
        if L < mu:
            raise ValueError(f"L must be >= mu, got L={L}, mu={mu}")
        self.dim = dim
        self.mu = float(mu)
        self.L = float(L)
        self.zero = np.zeros(dim)  # read-only; perturbations return it for every eta they do not draw
        self.zero.setflags(write=False)

    def check_point(self, s, name: str = "point") -> np.ndarray:
        """Validate a point or a (B, dim) batch and return it as a float array.

        A batch is checked in one pass; the error names its first offending
        row as name[i] and says what that row breaks, as for a single point.
        """
        s = _as_points(s, self.dim, name)
        fault = self._fault(s.reshape(-1, self.dim))
        if fault is not None:
            i, what = fault
            raise DomainError(f"{name if s.ndim == 1 else f'{name}[{i}]'} {what}")
        return s

    def _fault(self, rows: np.ndarray) -> tuple[int, str] | None:
        """First row of the (B, dim) array rows outside the domain and what it breaks."""
        if np.isfinite(rows).all():
            return None
        return int(np.argmin(np.isfinite(rows).all(axis=1))), "contains non-finite entries"

    def divergence(self, s, s_ref):
        """D(s, s_ref) of checked points: a float, or one value per row of a batch."""
        return self._divergence(self.check_point(s), self.check_point(s_ref, "s_ref"))

    def _divergence(self, s: np.ndarray, s_ref: np.ndarray):
        raise NotImplementedError

    def grad(self, s) -> np.ndarray:
        return self._grad(self.check_point(s))

    def _grad(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mirror(self, dual) -> np.ndarray:
        raise NotImplementedError

    def sample_point(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """One point of shape (dim,), or size points of shape (size, dim) drawn in sequence."""
        raise NotImplementedError

    def project(self, s) -> np.ndarray:
        """Repair floating-point drift; raise DomainError if s is truly outside.

        A point with no drift to repair may come back as the checked input itself.
        """
        return self._project(self.check_point(s))

    def _project(self, s: np.ndarray) -> np.ndarray:
        """project for a finite point of the right shape, or row by row for a (B, dim) batch of them.

        Each row of a batch gets the bits of its own call.  Here the
        identity, returning s itself: a geometry that does not override it
        (squared-euclidean, quadratic) has no drift to repair, and the
        engine's steps skip the call (engine._blocks).
        """
        return s

    def __repr__(self):  # pragma: no cover - debug aid
        return f"{type(self).__name__}(dim={self.dim}, mu={self.mu}, L={self.L})"


class SquaredEuclidean(Geometry):
    """phi(s) = ||s||^2 / 2 on all of R^dim; mu = L = 1."""

    kind = "squared-euclidean"

    def __init__(self, dim: int):
        super().__init__(dim, 1.0, 1.0)

    def _divergence(self, s, s_ref):
        d = s if s_ref is self.zero else s - s_ref  # x - 0.0 has the bits of x
        return _scalar(0.5 * np.vecdot(d, d))

    def _grad(self, s) -> np.ndarray:
        return s.copy()

    def mirror(self, dual) -> np.ndarray:
        return _as_points(dual, self.dim, "dual", finite=True).copy()

    def sample_point(self, rng, size=None) -> np.ndarray:
        return rng.standard_normal(self.dim if size is None else (size, self.dim))


class Quadratic(Geometry):
    """phi(s) = s'As / 2 for user-supplied symmetric positive definite A.

    mu and L are the extreme eigenvalues of A, computed once at construction.
    Singular or asymmetric A is rejected up front.
    """

    kind = "quadratic"

    def __init__(self, dim: int, a: ArrayLike):
        a = np.asarray(a, dtype=float)
        eig = _spd_eigenvalues(a, dim)
        super().__init__(dim, eig[0], eig[-1])
        self.a = a.copy()
        self.a.setflags(write=False)

    def _divergence(self, s, s_ref):
        d = s if s_ref is self.zero else s - s_ref  # x - 0.0 has the bits of x
        return _scalar(0.5 * np.vecdot(np.matmul(d[..., None, :], self.a)[..., 0, :], d))

    def _grad(self, s) -> np.ndarray:
        return np.matmul(self.a, s[..., None])[..., 0]

    def mirror(self, dual) -> np.ndarray:
        return np.linalg.solve(self.a, _as_points(dual, self.dim, "dual", finite=True)[..., None])[..., 0]

    def sample_point(self, rng, size=None) -> np.ndarray:
        return rng.standard_normal(self.dim if size is None else (size, self.dim))


class NegativeEntropy(Geometry):
    """phi(p) = sum p_i log p_i on the rho-interior of the simplex.

    Domain: entries >= rho, coordinates summing to 1 within 1e-12.  On that
    set phi is 1-strongly convex (Pinsker) and (1/rho)-smooth, so mu = 1 and
    L = 1/rho.  The mirror map normalizes onto the simplex, which fixes the
    additive gauge freedom of the dual coordinates.
    """

    kind = "negative-entropy"

    SUM_TOL = 1e-12

    def __init__(self, dim: int, rho: float = 1e-6):
        rho = float(rho)
        if not 0 < rho:
            raise ValueError(f"rho must be > 0, got {rho}")
        if rho * dim >= 1:
            raise ValueError(f"rho-interior is empty: rho*dim = {rho * dim:g} >= 1")
        super().__init__(dim, 1.0, 1.0 / rho)
        self.rho = rho

    def _fault(self, rows):
        floor = self.rho * (1 - 1e-9)
        # the floor fails rows with nan or -inf, and then the sum rows with +inf
        if rows.min(initial=np.inf) >= floor and (np.abs(rows.sum(axis=1) - 1.0) <= self.SUM_TOL).all():
            return None
        # a row is checked for finiteness, then the floor, then the sum
        finite = np.isfinite(rows).all(axis=1)
        with np.errstate(invalid="ignore"):  # +inf and -inf in one row sum to nan
            low = rows.min(axis=1) < floor
            sums = rows.sum(axis=1)
            bad = ~finite | low | (np.abs(sums - 1.0) > self.SUM_TOL)
        i = int(np.argmax(bad))
        if not finite[i]:
            return i, "contains non-finite entries"
        if low[i]:
            return i, f"leaves the rho-interior: min entry {rows[i].min():g} < rho = {self.rho:g}"
        return i, f"must sum to 1 within {self.SUM_TOL:g}, got {float(sums[i])!r}"

    def _divergence(self, s, s_ref):
        return _scalar((s * (np.log(s) - np.log(s_ref))).sum(axis=-1))

    def _grad(self, s) -> np.ndarray:
        return 1.0 + np.log(s)

    def mirror(self, dual) -> np.ndarray:
        dual = _as_points(dual, self.dim, "dual", finite=True)
        w = np.exp(dual - dual.max(axis=-1, keepdims=True))
        return w / w.sum(axis=-1, keepdims=True)

    def sample_point(self, rng, size=None) -> np.ndarray:
        # Dirichlet draw squeezed to keep a 2*rho margin off the boundary.
        p = rng.dirichlet(np.ones(self.dim), size=size)
        return p * (1.0 - 2.0 * self.rho * self.dim) + 2.0 * self.rho

    def project(self, s) -> np.ndarray:
        # drift is checked against the looser repair tolerances, not the domain's
        return self._project(_as_points(s, self.dim, batch=False, finite=True))

    def _project(self, s) -> np.ndarray:
        """s / sum(s), or hold_at_rho(s) where an entry is below rho; DomainError past repair.

        A lone row whose entries are all at least rho and whose sum is
        exactly 1.0 comes back as s itself, as from the identity repairs:
        x / 1.0 is x in IEEE arithmetic, so the bits hold.  The engine calls
        this once per step of a run on this geometry.
        """
        if s.ndim > 1:  # row by row: the scalar checks of one point keep a lone step fast
            return np.stack([self._project(row) for row in s])
        low, total = min(s.tolist()), float(np.add.reduce(s))
        if not (low >= self.rho * (1 - 1e-6) and abs(total - 1.0) <= 1e-9):  # fails every non-finite s
            raise DomainError(f"simplex drift exceeds repairable tolerance: min entry {low:g}, sum {total!r}")
        if low < self.rho:
            return hold_at_rho(s, self.rho)
        return s if total == 1.0 else s / total


def hold_at_rho(w: np.ndarray, rho: float) -> np.ndarray:
    """w / w.sum() over the last axis, brought into the rho-interior of the simplex.

    The k entries of a row below rho are held at rho and the rest rescaled to
    fill 1 - k rho, again while a rescaled entry drops below rho; rho * dim < 1
    keeps one entry free, so this takes fewer than dim passes.  A row that
    holds nothing has the bits of w / w.sum(): ExpGradientStep._apply divides
    a lone row so itself, in place, where min(w.tolist()) >= rho.  w is
    never written to.
    """
    held = w < rho
    if not np.count_nonzero(held):
        return w / np.add.reduce(w, axis=-1, keepdims=True)
    while True:
        free = np.where(held, 0.0, w).sum(axis=-1, keepdims=True)
        out = np.where(held, rho, w / free * (1.0 - rho * held.sum(axis=-1, keepdims=True)))
        if not np.count_nonzero(out < rho):
            return out  # a row that holds nothing has the bits of w / w.sum(), times exactly 1.0
        held |= out < rho


def three_point_residual(g: Geometry, u, v, w):
    """Relative residual of the three-point identity at (u, v, w), or per row of three batches.

    D(u, w) = D(v, w) + <grad(v) - grad(w), u - v> + D(u, v) holds exactly in
    real arithmetic for any Bregman divergence; the returned value is
    |lhs - rhs| / max(1, |lhs|) and measures floating-point defect only.
    """
    u = g.check_point(u, "u")
    v = g.check_point(v, "v")
    w = g.check_point(w, "w")
    lhs = g._divergence(u, w)
    rhs = g._divergence(v, w) + np.vecdot(g._grad(v) - g._grad(w), u - v) + g._divergence(u, v)
    return _scalar(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))


def certify_constants(g: Geometry, n_pairs: int = 1000, seed: int = 0) -> dict:
    """Sampled certificates for the declared (mu, L) and the map contracts.

    Returns worst-case margins over n_pairs random pairs: nonnegativity of the
    divergence, mu-strong convexity and L-smoothness against ||s - s'||^2 / 2,
    relative mirror-inversion error, and the three-point residual.  Margins are
    signed so that negative values are violations; a nan is never the worst.
    """
    rng = np.random.default_rng(seed)
    points = g.sample_point(rng, 3 * n_pairs)
    s, r, t = points[0::3], points[1::3], points[2::3]  # each pair drew its s, r and t in turn
    d = s - r
    sq = 0.5 * np.vecdot(d, d)
    div = g.divergence(s, r)
    back = g.mirror(g.grad(s))
    mirror_rel = np.abs(back - s).max(axis=-1) / np.maximum(1.0, np.abs(s).max(axis=-1))
    low, high = np.fmin.reduce, np.fmax.reduce  # these skip nans
    return {
        "divergence_min": float(low(div, initial=np.inf)),
        "strong_convexity_margin": float(low(div - g.mu * sq, initial=np.inf)),
        "smoothness_margin": float(low(g.L * sq - div, initial=np.inf)),
        "mirror_inversion_rel": float(high(mirror_rel, initial=0.0)),
        "three_point_residual": float(high(three_point_residual(g, s, r, t), initial=0.0)),
    }
