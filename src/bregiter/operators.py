"""Update operators driving the averaged iteration.

Every operator maps a state to a state via ``apply(s, t)``; only Bellman
reads the iteration index, to cycle its context sequence y_t by t.
``apply`` also takes a (B, dim) batch of states, with an int array t of one
step per row where the step matters (Bellman); each row gets the bits of
the 1-d call.  ``apply`` coerces its input to a float array and calls the
kind's ``_apply``, the same map on a float array, which the engine, the
contraction estimate and the descent audit call directly.  Fixed points
come from closed forms where one exists (affine kinds, gradient step,
small Bellman problems by policy enumeration) and from plain iteration of
``apply`` otherwise.  Step constants are read-only 0-d arrays.  Contraction
factors are always measured by pair sampling in a given geometry, never
assumed from declared parameters, because the divergence in which the engine
runs need not be the norm in which an operator is naturally contractive.
"""

from __future__ import annotations

import copy
import itertools
import math

import numpy as np
from numpy.typing import ArrayLike

from .geometry import DomainError, Geometry, NegativeEntropy, SquaredEuclidean, _spd_eigenvalues, hold_at_rho


class FixedPointError(RuntimeError):
    """Iterative fixed-point search failed to converge."""


#: apply calls after which the iterative fixed-point fallback gives up
FIXED_POINT_MAX_ITER = 10**6
#: divergence step at or below which the iterative fixed-point fallback stops
FIXED_POINT_TOL = 1e-14


def _constant(x) -> np.ndarray:
    """x as a read-only float64 array: a 0-d step constant (the engine's 0-d operands), or (B, 1) stacked rows."""
    out = np.array(x, dtype=float)
    out.setflags(write=False)
    return out


class Operator:
    """Base class; a kind implements _apply, and fixed_point where it has a closed form.

    apply(s, t) takes an array-like point of shape (dim,) or a (B, dim)
    batch and coerces it to a float array once; _apply(s, t) is the same map
    on a float array, unchecked, for callers that hold one (the engine, the
    contraction estimate, the descent audit).  _apply never writes into s:
    it computes in place only on arrays it made itself.  A lone (dim,) row
    may take another numpy form than a batch does, with the bits of the
    batch's row (tests/test_batch.py pins each kind): the matrix kinds take
    the matrix-vector A.dot(s), which skips np.matmul's gufunc dispatch and
    reaches the same BLAS dgemv.
    """

    kind = "base"

    #: params that may differ between the rows of one batched pass of the engine.  A kind that has
    #: any has a classmethod stack(ops), for ops of the kind that differ at most in these params: one
    #: operator whose apply maps row r of a (len(ops), dim) batch with the bits of ops[r].apply
    stackable: tuple[str, ...] = ()

    def __init__(self, dim: int):
        self.dim = int(dim)

    def apply(self, s: ArrayLike, t=0) -> np.ndarray:
        return self._apply(np.asarray(s, dtype=float), t)

    def _apply(self, s: np.ndarray, t=0) -> np.ndarray:
        raise NotImplementedError

    def fixed_point(self, geometry: Geometry | None = None) -> np.ndarray:
        """Iterative fallback from 0: repeat apply until the divergence step is <= FIXED_POINT_TOL."""
        g = geometry if geometry is not None else SquaredEuclidean(self.dim)
        s = np.zeros(self.dim)
        residual = math.inf
        for _ in range(FIXED_POINT_MAX_ITER):
            nxt = self._apply(s, 0)
            residual = g.divergence(nxt, s)
            s = nxt
            if residual <= FIXED_POINT_TOL:
                return s
        raise FixedPointError(
            f"{self.kind} fixed point did not converge in {FIXED_POINT_MAX_ITER} iterations "
            f"(last divergence step {residual:g})"
        )


class AffineColinear(Operator):
    """T(s) = gamma * s + (1 - gamma) * target; fixed point is target itself."""

    kind = "affine-colinear"
    stackable = ("gamma", "target")

    def __init__(self, gamma: float, target: ArrayLike):
        target = np.asarray(target, dtype=float)
        if target.ndim != 1:
            raise ValueError("target must be a 1-d vector")
        if not 0 <= gamma < 1:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        super().__init__(target.size)
        self.gamma = float(gamma)
        self._gamma = _constant(self.gamma)
        self.target = target
        self._pull = (1.0 - self.gamma) * target

    def _apply(self, s, t=0):
        return self._gamma * s + self._pull

    @classmethod
    def stack(cls, ops):
        """gamma and _gamma of shape (B, 1), target and _pull of shape (B, dim): apply steps row by row."""
        out = copy.copy(ops[0])
        out.gamma = out._gamma = _constant([[op.gamma] for op in ops])
        out.target = np.stack([op.target for op in ops])
        out._pull = np.stack([op._pull for op in ops])
        return out

    def fixed_point(self, geometry=None):
        return self.target.copy()


class AffineRotation(Operator):
    """T(s) = gamma * R(theta) (s - target) + target in the plane.

    A lone row takes rot.dot(d), a batch the stacked np.matmul; both give each row the same bits.
    """

    kind = "affine-rotation"

    def __init__(self, gamma: float, theta: float, target: ArrayLike):
        target = np.asarray(target, dtype=float)
        if target.shape != (2,):
            raise ValueError("affine-rotation is planar: target must have dimension 2")
        if not 0 <= gamma < 1:
            raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
        super().__init__(2)
        self.gamma = float(gamma)
        self._gamma = _constant(self.gamma)
        self.theta = float(theta)
        c, sn = math.cos(self.theta), math.sin(self.theta)
        self.rot = np.array([[c, -sn], [sn, c]])
        self.target = target

    def _apply(self, s, t=0):
        d = s - self.target
        out = self.rot.dot(d) if s.ndim == 1 else np.matmul(self.rot, d[..., None])[..., 0]
        out *= self._gamma
        out += self.target
        return out

    def fixed_point(self, geometry=None):
        return self.target.copy()


class GradientStep(Operator):
    """T(s) = s - step * (A s - b) for symmetric positive definite A.

    The fixed point solves A s = b regardless of the step size; whether
    iterating T alone converges depends on step < 2 / lambda_max(A).
    A lone row takes a.dot(s), a batch the stacked np.matmul; both give
    each row the same bits.
    """

    kind = "gradient-step"

    def __init__(self, a: ArrayLike, b: ArrayLike, step: float):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if b.ndim != 1:
            raise ValueError("b must be a 1-d vector")
        _spd_eigenvalues(a, b.size)
        if not step > 0:
            raise ValueError(f"step must be > 0, got {step}")
        super().__init__(b.size)
        self.a = a
        self.b = b
        self.step = float(step)
        self._step = _constant(self.step)

    def _apply(self, s, t=0):
        out = self.a.dot(s) if s.ndim == 1 else np.matmul(self.a, s[..., None])[..., 0]
        out -= self.b
        out *= self._step
        return np.subtract(s, out, out=out)

    def fixed_point(self, geometry=None):
        return np.linalg.solve(self.a, self.b)


class ExpGradientStep(Operator):
    """Multiplicative update toward a target distribution q on the simplex.

    T(p) is proportional to p * exp(-step * grad KL(p || q)) renormalized,
    then brought back to the rho-interior: the k entries below rho are held
    at rho and the rest rescaled to fill 1 - k rho.  At p = q the exponent is
    constant across entries and dies in the normalization, so q is exactly
    the fixed point.  A lone row that holds nothing skips its second
    normalization where the sum is exactly 1.0: x / 1.0 is x in IEEE
    arithmetic, so the bits hold.
    """

    kind = "exp-gradient-step"

    def __init__(self, q: ArrayLike, step: float, rho: float = 1e-6):
        q = np.asarray(q, dtype=float)
        if q.ndim != 1:
            raise ValueError("q must be a 1-d vector")
        if not step > 0:
            raise ValueError(f"step must be > 0, got {step}")
        rho = float(rho)
        # construction reuses the domain checks of the matching geometry
        geom = NegativeEntropy(q.size, rho)
        geom.check_point(q, "q")
        super().__init__(q.size)
        self.q = q
        self._log_q = np.log(q)
        self.step = float(step)
        self._one, self._neg_step = _constant(1.0), _constant(-self.step)
        self.rho = rho

    def _apply(self, p, t=0):
        w = np.log(p)  # p * exp(-step * (log p - log q + 1)), in place
        w -= self._log_q
        w += self._one
        w *= self._neg_step
        np.exp(w, out=w)
        w *= p
        if p.ndim > 1:
            w /= np.add.reduce(w, axis=-1, keepdims=True)
            return hold_at_rho(w, self.rho)
        w /= np.add.reduce(w, out=np.empty(()))  # the sum as a 0-d operand
        if min(w.tolist()) >= self.rho:  # hold_at_rho's branch for a row that holds nothing
            if (total := np.add.reduce(w)) != 1.0:
                w /= total
            return w
        return hold_at_rho(w, self.rho)

    def fixed_point(self, geometry=None):
        return self.q.copy()


class Bellman(Operator):
    """Optimality backup of a finite MDP with dense tables.

    transitions has shape (S, A, S) with each (s, a) row a distribution;
    rewards has shape (S, A); discount lies in [0, 1).  An attached context
    sequence context_y, cycled by t, perturbs rewards additively (off by
    default); each entry must broadcast to the rewards' shape.  Fixed points use
    policy enumeration when there are at most 8 deterministic policies and
    plain backup iteration otherwise; both give the fixed point of apply(., 0),
    whose rewards carry context_y[0].  A lone row takes the (S A, S) matrix's
    dot(v), a batch the stacked np.matmul; both give each row the same bits.
    """

    kind = "bellman"

    ENUMERATION_LIMIT = 8

    def __init__(self, transitions: ArrayLike, rewards: ArrayLike, discount: float, context_y=None):
        p = np.asarray(transitions, dtype=float)
        r = np.asarray(rewards, dtype=float)
        if r.ndim != 2:
            raise ValueError("rewards must have shape (n_states, n_actions)")
        n_states, n_actions = r.shape
        if p.shape != (n_states, n_actions, n_states):
            raise ValueError(
                f"transitions must have shape ({n_states}, {n_actions}, {n_states}), got {p.shape}"
            )
        if np.any(p < 0):
            raise ValueError("transition probabilities must be nonnegative")
        row_sums = p.sum(axis=2)
        if float(np.abs(row_sums - 1.0).max()) > 1e-9:
            raise ValueError("each transitions[s, a] must sum to 1 within 1e-9")
        if not 0 <= discount < 1:
            raise ValueError(f"discount must lie in [0, 1), got {discount}")
        super().__init__(n_states)
        if context_y is not None:
            if not len(context_y):
                raise ValueError("context_y must be a non-empty sequence when given")
            try:
                context_y = np.stack([np.broadcast_to(np.asarray(y, dtype=float), r.shape) for y in context_y])
            except ValueError:
                raise ValueError(f"context_y entries must broadcast to the rewards shape {r.shape}") from None
        self.context_y = context_y
        self.transitions = p
        self._rows = p.reshape(-1, n_states)  # the (S A, S) matrix that apply multiplies
        self.rewards = r
        self.discount = float(discount)
        self._discount = _constant(self.discount)
        self.n_states = n_states
        self.n_actions = n_actions
        self._q_shape = r.shape  # the (S, A) table of a lone row's action values

    def _apply(self, v, t=0):
        r = self.rewards
        if self.context_y is not None:  # an int array t picks one entry per row
            r = r + self.context_y[t % len(self.context_y)]
        if v.ndim == 1:
            q, shape = self._rows.dot(v), self._q_shape
        else:
            q, shape = np.matmul(self._rows, v[..., None]), v.shape[:-1] + self._q_shape
        q *= self._discount
        q = q.reshape(shape)
        q += r
        return np.maximum.reduce(q, axis=-1)

    def fixed_point(self, geometry=None):
        if self.n_actions ** self.n_states > self.ENUMERATION_LIMIT:
            return super().fixed_point(geometry)
        eye = np.eye(self.n_states)
        r = self.rewards if self.context_y is None else self.rewards + self.context_y[0]
        best = np.full(self.n_states, -np.inf)
        for policy in itertools.product(range(self.n_actions), repeat=self.n_states):
            idx = np.arange(self.n_states)
            p_pi = self.transitions[idx, policy, :]
            r_pi = r[idx, policy]
            v_pi = np.linalg.solve(eye - self.discount * p_pi, r_pi)
            best = np.maximum(best, v_pi)
        return best


def estimate_contraction(op: Operator, g: Geometry, n_pairs: int = 256,
                         rng_seed: int = 0, skip_tol: float = 1e-14) -> float:
    """Empirical divergence contraction factor over sampled pairs.

    Returns max D(T s, T s') / D(s, s') over n_pairs pairs drawn from the
    geometry's sampler; pairs closer than skip_tol are skipped as degenerate.
    Deterministic for a fixed seed.  All 2 n_pairs points are drawn in one
    call (row 2k is s and row 2k+1 is s' of pair k) and mapped in one batch;
    an image outside the domain is reported for the first pair in draw order,
    T(s) before T(s'), as "point" or "s_ref" like the divergence arguments.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    pts = g.sample_point(np.random.default_rng(rng_seed), 2 * n_pairs)
    base = g._divergence(pts[0::2], pts[1::2])  # the sampler's points lie in the domain
    kept = np.flatnonzero(~(base < skip_tol))  # a nan base is not degenerate
    if kept.size == 0:
        raise ValueError("all sampled pairs were degenerate; cannot estimate contraction")
    images = op._apply(pts[(2 * kept[:, None] + [0, 1]).ravel()], 0)  # kept pairs, still interleaved
    fault = g._fault(images)
    if fault is not None:
        i, what = fault
        raise DomainError(f"{'s_ref' if i % 2 else 'point'} {what}")
    ratio = g._divergence(images[0::2], images[1::2]) / base[kept]  # _fault checked the images
    ratio = ratio[~np.isnan(ratio)]  # a nan ratio is never the worst
    return max(0.0, float(ratio.max())) if ratio.size else 0.0


def unrolled_depth(op: Operator, g: Geometry, e0: float, eps: float,
                   gamma_hat: float | None = None) -> int:
    """Feedforward depth guaranteeing divergence <= eps from a start at e0.

    Composing T depth times shrinks the divergence by at least gamma_hat each
    layer, so depth = ceil(ln(e0/eps) / ln(1/gamma_hat)); zero if eps >= e0.
    Without gamma_hat, estimate_contraction measures it with its defaults.
    Raises if the measured factor is not a contraction.
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if e0 < 0:
        raise ValueError(f"e0 must be >= 0, got {e0}")
    if eps >= e0:
        return 0
    gh = gamma_hat if gamma_hat is not None else estimate_contraction(op, g)
    if gh >= 1:
        raise ValueError(
            f"measured contraction factor {gh:g} >= 1: not a divergence contraction, "
            "no unrolled depth guarantees eps"
        )
    return math.ceil(math.log(e0 / eps) / math.log(1.0 / gh))
