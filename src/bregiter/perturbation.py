"""Bounded perturbations injected after each averaging step.

The admissible size of a perturbation at state s_t is a divergence budget
b = delta0 + kappa * e_t.  Random mode draws a uniform direction and uses a
uniformly drawn fraction of the budget; adversarial mode spends the whole
budget pushing straight away from the fixed point.  Magnitudes are scaled so
the emitted divergence D(eta, 0) hits its target exactly, which on squared
Euclidean geometry reduces to ||eta|| = u * sqrt(2 b / mu).

Draw order.  A random-mode step whose budget is not <= 0 draws its
direction, rng.standard_normal(dim) per try, redrawn while the norm is at
most 1e-12 (_unit_direction), then rng.random() for its budget fraction u.
A step whose budget is <= 0 draws nothing, and an adversarial step draws a
direction only where s_t is s_star.  Random draws read no state, so
PerturbationModel.draws makes those of n steps in one call, in this order:
sample makes one step's through it, and the engine a block's before it
steps the block.  Perturbations are only defined where 0 and s + eta stay
in the domain, so negative-entropy geometry is rejected.
The scalars that scale an eta reach numpy as 0-d arrays, with the bits of
floats (the engine's 0-d operands); the budget's comparisons keep floats.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import DomainError, Geometry

MODES = ("zero", "random", "adversarial")
INJECTIONS = ("unscaled", "scaled")


@dataclass(frozen=True)
class PerturbationModel:
    mode: str = "zero"
    delta0: float = 0.0
    kappa: float = 0.0
    injection: str = "unscaled"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.injection not in INJECTIONS:
            raise ValueError(f"injection must be one of {INJECTIONS}, got {self.injection!r}")
        if self.delta0 < 0:
            raise ValueError(f"delta0 must be >= 0, got {self.delta0}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")

    @property
    def is_zero(self) -> bool:
        return self.mode == "zero" or (self.delta0 == 0 and self.kappa == 0)

    def budget(self, e_t: float) -> float:
        return self.delta0 + self.kappa * e_t

    def sample(self, g: Geometry, s_t: np.ndarray, s_star: np.ndarray,
               e_t: float, alpha_t: float, rng: np.random.Generator) -> np.ndarray:
        """Draw eta for one step; deterministic given the rng state.

        Its draws follow the module's draw order; random mode makes them
        through draws, as the engine does for a block.  Adversarial mode
        consumes no randomness unless the state sits exactly on the fixed
        point with budget left to spend (then it draws a random direction),
        and raises DomainError when ||s_t - s_star|| overflows.  Every eta it
        does not draw is g.zero, which is read-only.
        """
        zero = g.zero
        if self.mode == "zero":
            return zero
        if g.kind == "negative-entropy":
            raise DomainError(
                "perturbations are not defined on negative-entropy geometry; "
                "use squared-euclidean or quadratic"
            )
        b = self.budget(e_t)
        if b <= 0:
            return zero

        if self.mode == "adversarial":
            return self.adversarial(g, s_star, rng)(s_t, e_t, alpha_t)
        (d,), (u,) = self.draws(g.dim, 1, rng)
        return self.eta_along(d, g._divergence(d, zero), u * u * b, alpha_t, zero, np.empty(()))

    def adversarial(self, g: Geometry, s_star: np.ndarray,
                    rng: np.random.Generator) -> Callable[[np.ndarray, float, float], np.ndarray]:
        """eta(s_t, e_t, alpha_t) of adversarial mode against s_star: the rule of sample, bound once.

        eta spends the whole budget b along (s_t - s_star) / ||s_t - s_star||,
        or along a direction drawn from rng (_unit_direction) where s_t is
        s_star, and is g.zero where b <= 0.  It raises DomainError when
        ||s_t - s_star|| overflows.  The budget's params, the injection, g.zero,
        g._divergence and eta's 0-d register are bound here, once per run.
        """
        delta0, kappa, scaled = self.delta0, self.kappa, self.injection == "scaled"
        zero, divergence, dim = g.zero, g._divergence, g.dim
        scale = np.empty(())

        def eta(s_t: np.ndarray, e_t: float, alpha_t: float) -> np.ndarray:
            b = delta0 + kappa * e_t
            if b <= 0:
                return zero
            d = s_t - s_star
            norm = math.sqrt(d.dot(d))  # np.linalg.norm's formula for a 1-d float vector
            if norm == math.inf:
                raise DomainError("||s_t - s_star|| overflows; the adversarial direction is undefined")
            if norm == 0.0:
                d = _unit_direction(dim, rng)
            else:
                scale[()] = norm
                d /= scale
            scale[()] = math.sqrt(b / divergence(d, zero))  # eta_along with target b
            d *= scale
            if scaled:
                d *= alpha_t
            return d

        return eta

    def draws(self, dim: int, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """The unit directions, shape (n, dim), and budget fractions u of n random-mode steps.

        One tight loop makes the draws in the module's draw order; one
        batched pass then normalises them, with the bits of _unit_direction's
        d / sqrt(d.dot(d)).  If a norm is at most 1e-12, the generator is
        rewound and the n steps are redrawn one by one through _unit_direction.
        """
        state = rng.bit_generator.state
        d = np.empty((n, dim))
        u = np.empty(n)
        normal, uniform = rng.standard_normal, rng.random
        for i in range(n):
            normal(out=d[i])
            u[i] = uniform()
        norm = np.sqrt(np.vecdot(d, d))
        if (norm <= 1e-12).any():
            rng.bit_generator.state = state
            for i in range(n):
                d[i] = _unit_direction(dim, rng)
                u[i] = uniform()
            return d, u
        return d / norm[:, None], u

    def eta_along(self, direction: np.ndarray, base: float, target: float, alpha_t: float,
                  zero: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """eta along direction with D(eta, 0) = target, where base = D(direction, 0).

        zero when target <= 0; scaled injection multiplies it by alpha_t.  scale is the caller's 0-d register.
        """
        if target <= 0:
            return zero
        scale[()] = math.sqrt(target / base)
        eta = direction * scale
        if self.injection == "scaled":
            eta *= alpha_t
        return eta


def _unit_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        d = rng.standard_normal(dim)
        n = math.sqrt(d.dot(d))
        if n > 1e-12:
            return d / n
