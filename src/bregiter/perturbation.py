"""Bounded perturbations injected after each averaging step.

The admissible size of a perturbation at state s_t is a divergence budget
b = delta0 + kappa * e_t.  Random mode draws a uniform direction and uses a
uniformly drawn fraction of the budget; adversarial mode spends the whole
budget pushing straight away from the fixed point.  Magnitudes are scaled so
the emitted divergence D(eta, 0) hits its target exactly, which on squared
Euclidean geometry reduces to ||eta|| = u * sqrt(2 b / mu).  Perturbations
are only defined where 0 and s + eta stay in the domain, so negative-entropy
geometry is rejected.
"""

from __future__ import annotations

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

        Draw order is fixed (direction, then budget fraction) so traces are
        reproducible.  Adversarial mode consumes no randomness unless the
        state sits exactly on the fixed point with budget left to spend, and
        raises DomainError when ||s_t - s_star|| overflows.
        """
        zero = np.zeros(g.dim)
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

        if self.mode == "random":
            direction = _unit_direction(g.dim, rng)
            u = rng.uniform()
            target = u * u * b
        else:  # adversarial
            d = s_t - s_star
            norm = float(np.linalg.norm(d))
            if norm == np.inf:
                raise DomainError("||s_t - s_star|| overflows; the adversarial direction is undefined")
            if norm == 0.0:
                direction = _unit_direction(g.dim, rng)
            else:
                direction = d / norm
            target = b

        if target <= 0:
            return zero
        base = g._divergence(direction, zero)
        eta = direction * np.sqrt(target / base)
        if self.injection == "scaled":
            eta = eta * alpha_t
        return eta


def _unit_direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        d = rng.standard_normal(dim)
        n = float(np.linalg.norm(d))
        if n > 1e-12:
            return d / n
