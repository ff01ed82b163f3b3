"""Averaged iteration engine.

One step of the loop is

    s_{t+1} = (1 - alpha_t) s_t + alpha_t T(s_t, t) + eta_t

with alpha_t drawn from a step schedule and eta_t from a perturbation model.
Runs record a divergence ledger e_t = D(s_t, s_star) together with the
rescaled series a_t = e_t (t+1)^2, the step sizes, update displacements and
perturbation sizes; optionally the full states.  Everything is deterministic
given the config seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .geometry import DomainError
from .operators import FixedPointError, estimate_contraction

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig

log = logging.getLogger(__name__)

#: Sentinel returned by iterations_to_epsilon when the cap is hit first.
CENSORED = -1

#: Absolute cap on first-passage times; a later passage is CENSORED.
PASSAGE_CAP = 10**7

SCHEDULE_KINDS = ("accelerated", "constant", "polynomial")

#: rows of s_t and T(s_t) that run buffers between block passes for e_t and ||T(s_t) - s_t||^2
BLOCK = 1024


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule alpha_t; every kind keeps alpha in (0, 1].

    accelerated: alpha_t = 2 / (t + 2)
    constant:    alpha_t = c with c in (0, 1]
    polynomial:  alpha_t = c / (t + 1)^p with c in (0, 1], p >= 0
    """

    kind: str
    c: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if self.kind in ("constant", "polynomial"):
            if not 0 < self.c <= 1:
                raise ValueError(f"schedule c must lie in (0, 1], got {self.c}")
        if self.kind == "polynomial" and self.p < 0:
            raise ValueError(f"schedule p must be >= 0, got {self.p}")

    def alpha(self, t: int) -> float:
        if self.kind == "accelerated":
            return 2.0 / (t + 2)
        if self.kind == "constant":
            return self.c
        return self.c / (t + 1) ** self.p


class EngineError(RuntimeError):
    """Run failure at a specific iteration; carries the offending state."""

    def __init__(self, message: str, t: int, state: np.ndarray):
        super().__init__(message)
        self.t = t
        self.state = np.asarray(state, dtype=float)


@dataclass
class Trace:
    """Recorded run of length iterations + 1 (row 0 is the start state).

    Rows 0..T-1 describe steps actually taken; the final row records the
    terminal state's diagnostics (its alpha is schedule.alpha(T), its
    displacement is measured but unused, its eta_div is 0).  final_state, the
    state at t = T, is where first passages past T continue; no artifact has it.
    """

    t: np.ndarray
    e: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    delta_norm_sq: np.ndarray
    eta_div: np.ndarray
    states: np.ndarray | None = None
    etas: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    final_state: np.ndarray | None = None

    def __len__(self) -> int:
        return self.t.size

    @property
    def iterations(self) -> int:
        return self.t.size - 1

    @property
    def loop(self) -> Loop:
        return Loop(*(getattr(self, name) for name in Loop._fields))


def _start(cfg: RunConfig, contraction: bool = False) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Fixed point, projected s0 and gamma_hat (None unless contraction).

    Every failure here is an EngineError at t = -1 carrying s0.
    """
    g, op = cfg.geometry, cfg.operator
    s0 = np.asarray(cfg.s0, dtype=float)
    try:
        s_star = op.fixed_point(geometry=g, tol=cfg.tolerances["fixed_point"])
        g.check_point(s_star, "fixed point")
        s = g.project(g.check_point(s0, "s0"))
        gamma_hat = estimate_contraction(
            op, g, n_pairs=cfg.contraction_pairs, rng_seed=cfg.seed + 1,
            skip_tol=cfg.tolerances["degenerate_pair"],
        ) if contraction else None
    except DomainError as exc:
        raise EngineError(
            f"operator is incompatible with the geometry's domain: {exc}", -1, s0
        ) from exc
    except FixedPointError as exc:
        raise EngineError(f"fixed point not found: {exc}", -1, s0) from exc
    return s_star, s, gamma_hat


def _step(g, s: np.ndarray, ts: np.ndarray, al: float, t: int, eta: np.ndarray | None = None) -> np.ndarray:
    """s_{t+1} from s_t, T(s_t) and alpha_t (plus eta_t on noisy runs), settled on the domain.

    The one step of run and _passages.  It runs unchecked but for one
    finiteness check and the geometry's drift repair: s_t, s_star and every
    state before them were checked or settled already.
    """
    s_next = (1.0 - al) * s + al * ts
    if eta is not None:
        s_next = s_next + eta
    if not np.isfinite(s_next).all():
        raise EngineError(f"non-finite state at iteration {t}", t, s_next)
    try:
        return g._project(s_next)
    except DomainError as exc:
        raise EngineError(f"domain escape at iteration {t}: {exc}", t, s_next) from exc


class Loop(NamedTuple):
    """Arrays the averaged loop records; RunConfig.loop_key fixes every bit of them."""

    e: np.ndarray
    alpha: np.ndarray
    delta_norm_sq: np.ndarray
    eta_div: np.ndarray
    states: np.ndarray | None
    etas: np.ndarray | None
    final_state: np.ndarray


def run(cfg: RunConfig, loop: Loop | None = None) -> Trace:
    """Execute the averaged iteration described by cfg and return its trace.

    Start-up (fixed point, s0, the seeded contraction estimate, warnings and
    meta) runs for every call.  loop, the Loop of an earlier run whose config
    has the same loop_key, stands in for the loop itself.
    """
    pm = cfg.perturbation
    s_star, s, gamma_hat = _start(cfg, contraction=True)
    warnings: list[str] = []
    if gamma_hat + pm.kappa >= 1:
        warnings.append(
            f"gamma_hat + kappa = {gamma_hat:.6g} + {pm.kappa:.6g} >= 1: "
            "the contraction hypothesis fails for this instance and the "
            "accelerated bounds are vacuous"
        )
        log.warning(warnings[-1])
    if loop is None:
        loop = _loop(cfg, s_star, s)
    rows = np.arange(cfg.iterations + 1)
    return Trace(
        t=rows, a=loop.e * (rows + 1.0) ** 2, **loop._asdict(),
        meta={
            "config_digest": cfg.digest,
            "seed": cfg.seed,
            "gamma_hat": gamma_hat,
            "s_star": s_star.tolist(),
            "warnings": warnings,
        },
    )


def _loop(cfg: RunConfig, s_star: np.ndarray, s: np.ndarray) -> Loop:
    """The loop of run from the projected s0 s.

    It records s_t and T(s_t) in (BLOCK, dim) buffers and fills e_t and
    ||T(s_t) - s_t||^2 one block at a time; the batched maps give each row
    the bits of a per-step call.
    """
    g, op, sched, pm = cfg.geometry, cfg.operator, cfg.schedule, cfg.perturbation
    T = cfg.iterations
    rng = np.random.default_rng(cfg.seed)
    noisy = not pm.is_zero

    e = np.empty(T + 1)
    alpha = np.empty(T + 1)
    delta_sq = np.empty(T + 1)
    eta_div = np.zeros(T + 1)
    states = np.empty((T + 1, g.dim)) if cfg.retain_states else None
    etas = np.zeros((T, g.dim)) if cfg.retain_states else None
    zero = np.zeros(g.dim)
    block_s = np.empty((min(BLOCK, T + 1), g.dim))
    block_ts = np.empty_like(block_s)

    for t in range(T + 1):  # row T records the final state; no step follows it
        alpha[t] = al = sched.alpha(t)
        ts = op.apply(s, t)
        i = t % BLOCK
        block_s[i] = s
        block_ts[i] = ts
        if i == BLOCK - 1 or t == T:
            done = slice(t - i, t + 1)
            e[done] = g._divergence(block_s[:i + 1], s_star)
            d = block_ts[:i + 1] - block_s[:i + 1]
            delta_sq[done] = np.vecdot(d, d)
            if states is not None:
                states[done] = block_s[:i + 1]
        if t == T:
            break

        eta = None
        if noisy:
            try:
                eta = pm.sample(g, s, s_star, g._divergence(s, s_star), al, rng)
            except DomainError as exc:
                raise EngineError(f"perturbation failed at iteration {t}: {exc}", t, s) from exc
            if eta.any():
                eta_div[t] = g._divergence(eta, zero)
            if etas is not None:
                etas[t] = eta
        s = _step(g, s, ts, al, t, eta)
    return Loop(e, alpha, delta_sq, eta_div, states, etas, s)


def _passages(cfg: RunConfig, s_star: np.ndarray, e, s: np.ndarray,
              eps_list: list[float], cap: int = PASSAGE_CAP) -> list[int]:
    """First t <= cap with D(s_t, s_star) <= eps for each eps; CENSORED if none.

    e holds the divergences already recorded for t = 0..k and s is the state
    at t = k.  Targets that e does not meet are served together by one pass
    of the clean averaged loop continued from (k, s).
    """
    if not all(eps > 0 for eps in eps_list):
        raise ValueError(f"eps must be > 0, got {eps_list}")
    if not cfg.perturbation.is_zero:
        raise ValueError("first passages require a noise-free config")
    g, op, sched = cfg.geometry, cfg.operator, cfg.schedule
    e = np.asarray(e)[:cap + 1]
    found = {}
    for eps in eps_list:
        met = np.flatnonzero(e <= eps)
        if met.size:
            found[eps] = int(met[0])
    todo = sorted(set(eps_list) - set(found), reverse=True)  # largest target is met first
    t = e.size - 1
    while todo and t < cap:
        s = _step(g, s, op.apply(s, t), sched.alpha(t), t)
        t += 1
        d = g._divergence(s, s_star)
        if not math.isfinite(d):
            raise EngineError(f"non-finite divergence at iteration {t}", t, s)
        if t % 100_000 == 0:
            log.debug("first passage: t=%d e=%.3e (next target %.3e)", t, d, todo[0])
        while todo and d <= todo[0]:
            found[todo.pop(0)] = t
    return [found.get(eps, CENSORED) for eps in eps_list]


def iterations_to_epsilon(cfg: RunConfig, eps: float, cap: int = PASSAGE_CAP) -> int:
    """Smallest t with D(s_t, s_star) <= eps, run incrementally without a trace.

    Requires a noise-free config (feedback time is a property of the clean
    iteration).  Returns CENSORED (-1) if the cap is reached first; callers
    must treat that as a censored observation, not a convergence time.
    """
    s_star, s, _ = _start(cfg)
    return _passages(cfg, s_star, [cfg.geometry.divergence(s, s_star)], s, [eps], cap)[0]
