"""Averaged iteration engine.

One step of the loop is

    s_{t+1} = (1 - alpha_t) s_t + alpha_t T(s_t, t) + eta_t

with alpha_t drawn from a step schedule and eta_t from a perturbation model.
Runs record a divergence ledger e_t = D(s_t, s_star) together with the
rescaled series a_t = e_t (t+1)^2, the step sizes, update displacements and
perturbation sizes; optionally the full states.  Everything is deterministic
given the config seed.

One driver, _blocks, takes every step of a run and of a first passage.  A
step computes only what the next step reads: alpha_t, T(s_t), eta_t, the
new state, and e_t where the budget delta0 + kappa e_t reads it (kappa > 0).
Every other per-row value (e_t, ||T(s_t) - s_t||^2, D(eta_t, 0) and the
first-passage divergences) is filled once per block by a batched map, with
the bits of a per-step call.  Random-mode draws read no state, so a block
makes them before its steps, in the perturbation module's draw order, with
their unit directions and D(direction, 0) batched; a random step keeps its
budget and the scaling of its eta.  A fault is reported at its earliest
row, with the message, t and state of a per-step loop.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

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

#: rows per block of a run
BLOCK = 1024

#: rows of the first blocks of a first passage, the last size repeating.  A passage runs on to
#: the end of the block that meets its last target; past 256 rows, a block saves too little per
#: row to pay for that
PASSAGE_BLOCKS = (16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Schedule:
    """Step-size schedule alpha_t; every kind keeps alpha in [0, 1].

    accelerated: alpha_t = 2 / (t + 2)
    constant:    alpha_t = c with c in (0, 1]
    polynomial:  alpha_t = c / (t + 1)^p with c in (0, 1], p >= 0; where
                 (t + 1)^p is past the largest float, the float c (t + 1)^-p,
                 which may underflow to 0
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
        try:
            return self.c / (t + 1) ** self.p
        except OverflowError:
            return self.c * (t + 1.0) ** -self.p


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
    displacement is measured but unused, its eta_div is 0).  s_star,
    gamma_hat and warnings are the run's start-up facts: the fixed point the
    ledger e_t is measured against, the seeded contraction estimate and the
    warnings it raised; summary.json records them.  final_state, the state at
    t = T, is where first passages past T continue; no artifact has it.
    """

    t: np.ndarray
    e: np.ndarray
    a: np.ndarray
    alpha: np.ndarray
    delta_norm_sq: np.ndarray
    eta_div: np.ndarray
    states: np.ndarray | None = None
    etas: np.ndarray | None = None
    s_star: np.ndarray | None = None
    gamma_hat: float | None = None
    warnings: list[str] = field(default_factory=list)
    final_state: np.ndarray | None = None

    def __len__(self) -> int:
        return self.t.size

    @property
    def iterations(self) -> int:
        return self.t.size - 1


def _start(cfg: RunConfig, contraction: bool = False) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Fixed point, projected s0 and gamma_hat (None unless contraction).

    Every failure here is an EngineError at t = -1 carrying s0, and so is a
    finite s0 whose D(s0, s_star) is not finite.
    """
    g, op = cfg.geometry, cfg.operator
    s0 = np.asarray(cfg.s0, dtype=float)
    try:
        s_star = op.fixed_point(geometry=g)
        g.check_point(s_star, "fixed point")
        s = g._project(g.check_point(s0, "s0"))
        gamma_hat = estimate_contraction(op, g, rng_seed=cfg.seed + 1) if contraction else None
    except DomainError as exc:
        raise EngineError(
            f"operator is incompatible with the geometry's domain: {exc}", -1, s0
        ) from exc
    except FixedPointError as exc:
        raise EngineError(f"fixed point not found: {exc}", -1, s0) from exc
    except ValueError as exc:  # every sampled contraction pair degenerate
        raise EngineError(f"start-up failed: {exc}", -1, s0) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        e0 = g._divergence(s, s_star)
    if not math.isfinite(e0):
        raise EngineError(f"start-up failed: D(s0, s_star) = {e0} is not finite", -1, s0)
    return s_star, s, gamma_hat


def _finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), without the cost of a reduction."""
    return np.isfinite(x).tobytes() == b"\x01" * x.size


def run(cfg: RunConfig, like: Trace | None = None) -> Trace:
    """Execute the averaged iteration described by cfg and return its trace.

    Start-up (fixed point, s0, the seeded contraction estimate and its
    warnings) runs for every call and fills the Trace's s_star, gamma_hat and
    warnings.  like, the Trace of an earlier run whose config has the same
    loop_key, stands in for the loop: the result shares its arrays.
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
    return replace(like if like is not None else _loop(cfg, s_star, s),
                   s_star=s_star, gamma_hat=gamma_hat, warnings=warnings)


def _buffers(rows: int, dim: int) -> tuple[np.ndarray, ...]:
    """Block buffers of _blocks: s_t, T(s_t), alpha_t, eta_t and the budget's e_t."""
    return np.empty((rows, dim)), np.empty((rows, dim)), np.empty(rows), np.empty((rows, dim)), np.empty(rows)


def _blocks(cfg: RunConfig, s_star: np.ndarray, t: int, s: np.ndarray, rng: np.random.Generator | None,
            buf: tuple[np.ndarray, ...], sizes: Iterable[int], last: int,
            e_step: bool) -> Iterator[tuple[int, int, EngineError | None]]:
    """The averaged iteration from s = s_t, one block of rows per size, through row last.

    The one per-step loop of the engine.  Row i of a block of the buffers buf
    (see _buffers) holds s_u, T(s_u) and alpha_u for u = t0 + i; on noisy
    runs it also holds eta_u, and e_u where e_step says the budget reads it.
    Each step computes only what the next step reads; whoever consumes the
    block fills every other per-row value by one batched map per block.  A
    step runs unchecked but for one finiteness check and the geometry's
    drift repair: s_t, s_star and every state before them were checked or
    settled already.  Row last takes no step.

    In random mode, PerturbationModel.draws makes the draws of every step
    of a block before the first; a step whose budget is positive takes the
    next of them, and a step whose budget is <= 0 none, as sample would.  A
    block that leaves draws unused rewinds rng and redraws the used ones, so
    the next block starts where a per-step loop would.  Adversarial steps
    call sample.

    Yields (t0, m, fault) per block: its first row t0, its row count m, and
    None, or the EngineError of the step of row t0 + m - 1, the last row of
    the last block.
    """
    g, op, sched, pm = cfg.geometry, cfg.operator, cfg.schedule, cfg.perturbation
    noisy = not pm.is_zero
    random = noisy and pm.mode == "random"
    b_s, b_ts, b_alpha, b_eta, b_e = buf
    e_t = 0.0  # the budget's e_t unless e_step: delta0 + kappa * 0.0 is delta0 at kappa = 0
    for n in sizes:
        t0, end = t, min(t + n, last + 1)
        if random:  # the draws of every step of the block, and the state-free part of its etas
            n_draw = min(end, last) - t0
            state = rng.bit_generator.state
            directions, u = pm.draws(g.dim, n_draw, rng)
            bases = g._divergence(directions, g.zero).tolist()
            u = u.tolist()
            j = 0  # drawn rows consumed
        try:
            for t in range(t0, end):
                i = t - t0
                b_alpha[i] = al = sched.alpha(t)
                ts = op.apply(s, t)
                b_s[i] = s
                b_ts[i] = ts
                if e_step:
                    b_e[i] = e_t = g._divergence(s, s_star)
                if t == last:
                    break
                s_next = (1.0 - al) * s + al * ts
                if noisy:
                    if not random:
                        try:
                            eta = pm.sample(g, s, s_star, e_t, al, rng)
                        except DomainError as exc:
                            raise EngineError(f"perturbation failed at iteration {t}: {exc}", t, s) from exc
                    elif (b := pm.budget(e_t)) <= 0:  # sample's random branch, on the block's draws
                        eta = g.zero
                    else:
                        eta = pm.eta_along(directions[j], bases[j], u[j] * u[j] * b, al, g.zero)
                        j += 1
                    b_eta[i] = eta
                    s_next = s_next + eta
                if not _finite(s_next):
                    raise EngineError(f"non-finite state at iteration {t}", t, s_next)
                try:
                    s = g._project(s_next)
                except DomainError as exc:
                    raise EngineError(f"domain escape at iteration {t}: {exc}", t, s_next) from exc
        except EngineError as fault:
            yield t0, fault.t - t0 + 1, fault
            return
        if random and j < n_draw:  # rows whose budget was <= 0 drew nothing
            rng.bit_generator.state = state
            pm.draws(g.dim, j, rng)
        yield t0, end - t0, None
        if end > last:
            return
        t = end


def _loop(cfg: RunConfig, s_star: np.ndarray, s: np.ndarray) -> Trace:
    """The loop of run from the projected s0 s, without its start-up facts.

    _blocks steps it BLOCK rows at a time.  Per block, the batched maps give
    each row the bits of a per-step call for ||T(s_t) - s_t||^2, D(eta_t, 0)
    and e_t, but for the e_t of a noisy run with kappa > 0, which each step
    computes for its budget.  A noisy run with kappa = 0 reads e_t only through
    0 * e_t, which is nan where e_t is not finite: the first such row of a
    block is where its step fails, unless a step failed before it.
    """
    g, pm = cfg.geometry, cfg.perturbation
    T = cfg.iterations
    noisy = not pm.is_zero
    e_step = noisy and pm.kappa != 0

    e = np.empty(T + 1)
    alpha = np.empty(T + 1)
    delta_sq = np.empty(T + 1)
    eta_div = np.zeros(T + 1)
    states = np.empty((T + 1, g.dim)) if cfg.retain_states else None
    etas = np.zeros((T, g.dim)) if cfg.retain_states else None
    buf = b_s, b_ts, b_alpha, b_eta, b_e = _buffers(min(BLOCK, T + 1), g.dim)

    rng = np.random.default_rng(cfg.seed)
    for t0, m, fault in _blocks(cfg, s_star, 0, s, rng, buf, itertools.repeat(BLOCK), T, e_step):
        done = slice(t0, t0 + m)
        stepped = slice(t0, min(t0 + m, T))  # row T takes no step
        n_step = stepped.stop - t0
        e[done] = b_e[:m] if e_step else g._divergence(b_s[:m], s_star)
        if noisy and not e_step:
            bad = np.flatnonzero(~np.isfinite(e[stepped]))
            if bad.size:  # the step at that row runs on the budget nan
                u = t0 + int(bad[0])
                replay = _buffers(1, g.dim)
                fault = next(_blocks(cfg, s_star, u, b_s[bad[0]].copy(), rng, replay, [1], u + 1, True))[2]
        if fault is not None:
            raise fault
        alpha[done] = b_alpha[:m]
        d = b_ts[:m] - b_s[:m]
        delta_sq[done] = np.vecdot(d, d)
        if states is not None:
            states[done] = b_s[:m]
        if noisy:
            eta_div[stepped] = g._divergence(b_eta[:n_step], g.zero)  # 0.0 on the rows whose eta is g.zero
            if etas is not None:
                etas[stepped] = b_eta[:n_step]
    rows = np.arange(T + 1)
    return Trace(t=rows, e=e, a=e * (rows + 1.0) ** 2, alpha=alpha, delta_norm_sq=delta_sq,
                 eta_div=eta_div, states=states, etas=etas, final_state=b_s[m - 1].copy())


def _passages(cfg: RunConfig, s_star: np.ndarray, e, s: np.ndarray,
              eps_list: list[float], cap: int = PASSAGE_CAP) -> list[int]:
    """First t <= cap with D(s_t, s_star) <= eps for each eps; CENSORED if none.

    e holds the divergences already recorded for t = 0..k and s is the state
    at t = k.  Targets that e does not meet are served together by one pass
    of the clean averaged loop continued from (k, s), in blocks of
    PASSAGE_BLOCKS rows, with one batched divergence per block.  The rows of
    a block are settled in order, as a per-step loop would: a non-finite
    divergence fails the pass at its row, and the failed step of a block's
    last row fails it only if a target is still open.
    """
    if not all(eps > 0 for eps in eps_list):
        raise ValueError(f"eps must be > 0, got {eps_list}")
    if not cfg.perturbation.is_zero:
        raise ValueError("first passages require a noise-free config")
    g = cfg.geometry
    e = np.asarray(e)[:cap + 1]
    found = {}
    for eps in eps_list:
        met = np.flatnonzero(e <= eps)
        if met.size:
            found[eps] = int(met[0])
    todo = sorted(set(eps_list) - set(found), reverse=True)  # largest target is met first
    k = e.size - 1
    if todo and k < cap:
        buf = _buffers(min(PASSAGE_BLOCKS[-1], cap - k + 1), g.dim)
        b_s = buf[0]
        sizes = itertools.chain(PASSAGE_BLOCKS, itertools.repeat(PASSAGE_BLOCKS[-1]))
        for t0, m, fault in _blocks(cfg, s_star, k, s, None, buf, sizes, cap, False):
            lo = 1 if t0 == k else 0  # row k is s itself, whose divergence e holds
            d = g._divergence(b_s[lo:m], s_star)
            finite = np.isfinite(d)
            n_ok = d.size if finite.all() else int(np.argmin(finite))
            while todo:
                met = np.flatnonzero(d[:n_ok] <= todo[0])
                if not met.size:
                    break
                found[todo.pop(0)] = t0 + lo + int(met[0])
            if not todo:
                break
            if n_ok < d.size:
                u = t0 + lo + n_ok
                raise EngineError(f"non-finite divergence at iteration {u}", u, b_s[lo + n_ok].copy())
            if fault is not None:
                raise fault
            if d.size and (t0 + m) // 100_000 > t0 // 100_000:
                log.debug("first passage: t=%d e=%.3e (next target %.3e)", t0 + m - 1, d[-1], todo[0])
    return [found.get(eps, CENSORED) for eps in eps_list]


def iterations_to_epsilon(cfg: RunConfig, eps: float, cap: int = PASSAGE_CAP) -> int:
    """Smallest t with D(s_t, s_star) <= eps, run incrementally without a trace.

    Requires a noise-free config (feedback time is a property of the clean
    iteration).  Returns CENSORED (-1) if the cap is reached first; callers
    must treat that as a censored observation, not a convergence time.
    """
    s_star, s, _ = _start(cfg)
    return _passages(cfg, s_star, [cfg.geometry.divergence(s, s_star)], s, [eps], cap)[0]
