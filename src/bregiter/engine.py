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
The recorded rows (e_t, ||T(s_t) - s_t||^2, D(eta_t, 0)) and the
first-passage divergences are filled once per block by a batched map, with
the bits of a per-step call.  Random-mode draws read no state, so a block
makes them before its steps, in the perturbation module's draw order, with
their unit directions and D(direction, 0) batched; a random step keeps its
budget and the scaling of its eta.  A fault is reported at its earliest
row, with the message, t and state of a per-step loop.

A sweep job steps its loops in the passes of passes, one call of loops
each: the loops whose configs differ only in the seed and in the params
that their operator kind stacks (Operator.stackable) step together as the
rows of one (B, dim) state.  The work that reads no draw runs once per step
for every row; row r reads its own row of the stacked operator and of
s_star, draws its perturbations from its own generator, and gets the bits of
its lone loop, or fails alone while the other rows step on.  In random mode
the etas of all rows are one array expression per step.  A pass holds at
most PASS_BYTES of traces, so a caller that drops each pass's traces before
it steps the next holds about that much at once.  A lone run (B = 1) steps a
(dim,) state, whose random etas come from python floats: at B = 1 the array
expression costs more than twice as much per step.
"""

from __future__ import annotations

import functools
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
    from .geometry import Geometry

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

#: bytes of traces and retained states that one pass of loops holds at most: it caps the rows of a pass
PASS_BYTES = 32 * 2**20

#: numpy's floating-point mode of the run stages and the audit: overflow is data, judged by finiteness checks
QUIET = np.errstate(over="ignore", divide="ignore", invalid="ignore")


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


@QUIET
def _start(cfg: RunConfig, contraction: bool = False) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Fixed point, projected s0 and gamma_hat (None unless contraction).

    Every failure here is an EngineError at t = -1 carrying s0, and so is a
    D(s0, s_star) or a gamma_hat that is not finite.
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
    for name, x in (("D(s0, s_star)", g._divergence(s, s_star)), ("gamma_hat", gamma_hat)):
        if x is not None and not math.isfinite(x):
            raise EngineError(f"start-up failed: {name} = {x} is not finite", -1, s0)
    return s_star, s, gamma_hat


def _finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), without the cost of a reduction."""
    return np.isfinite(x).tobytes() == b"\x01" * x.size


def _divergence_fault(d: np.ndarray, t0: int, states: np.ndarray) -> EngineError | None:
    """The fault of the first d[i] = D(states[i], s_star) that is not finite, at row t0 + i, before its step.

    d may hold one divergence per row of a batch, d[i, r] = D(states[i, r], s_star); the fault is
    then that of the first row r of the first step i with one that is not finite.
    """
    if not _finite(d):
        i, *r = map(int, np.unravel_index(int(np.argmin(np.isfinite(d))), d.shape))
        return EngineError(f"non-finite divergence at iteration {t0 + i}", t0 + i, states[(i, *r)].copy())


def run(cfg: RunConfig) -> Trace:
    """Execute the averaged iteration described by cfg and return its trace.

    Start-up (fixed point, s0, the seeded contraction estimate and its
    warnings) runs first and fills the Trace's s_star, gamma_hat and warnings.
    """
    s_star, s, facts = _started(cfg)
    return replace(_loop(cfg, s_star, s, [cfg.seed])[0], **facts)


def with_start(cfg: RunConfig, loop: Trace) -> Trace:
    """The Trace of run(cfg), from loop, the Trace that loops gave for cfg's loop_key.

    Only cfg's start-up runs; the result shares loop's arrays.
    """
    return replace(loop, **_started(cfg)[2])


def _started(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, dict]:
    """s_star, the projected s0, and the start-up facts of a Trace of cfg, whose warnings are logged."""
    s_star, s, gamma_hat = _start(cfg, contraction=True)
    warnings: list[str] = []
    if gamma_hat + cfg.perturbation.kappa >= 1:
        warnings.append(
            f"gamma_hat + kappa = {gamma_hat:.6g} + {cfg.perturbation.kappa:.6g} >= 1: "
            "the contraction hypothesis fails for this instance and the "
            "accelerated bounds are vacuous"
        )
        log.warning(warnings[-1])
    return s_star, s, {"s_star": s_star, "gamma_hat": gamma_hat, "warnings": warnings}


def passes(cfgs: Iterable[RunConfig]) -> list[list[RunConfig]]:
    """The passes that loops steps the loops of cfgs in: one config per distinct loop_key.

    The keys of one batch_key form passes in order of first appearance, each
    holding at most PASS_BYTES of traces and retained states (one row at
    least).
    """
    batches: dict[str, dict[str, RunConfig]] = {}
    for cfg in cfgs:
        batches.setdefault(cfg.batch_key, {}).setdefault(cfg.loop_key, cfg)
    out = []
    for batch in batches.values():
        rows = list(batch.values())
        cfg = rows[0]
        size = max(1, PASS_BYTES // (8 * (cfg.iterations + 1) * (4 + 2 * cfg.geometry.dim * cfg.retain_states)))
        out += [rows[lo:lo + size] for lo in range(0, len(rows), size)]
    return out


def loops(cfgs: list[RunConfig]) -> dict[str, Trace]:
    """The loop of each config of cfgs, one pass of passes, by loop_key, without its start-up facts.

    The configs step as the rows of one pass of _loop: row r starts from its
    own fixed point where the rows stack their operator params, and the rows
    of any other batch share one start-up.  Each Trace has the bits of the
    loop of run on a config of its key; with_start adds the start-up facts.
    A config whose loop fails, at start-up or at a step, is left out, and the
    other rows step on: a lone run tells where it fails.
    """
    stacked = cfgs[0].operator.stackable
    starts = [_start_or_none(cfg) for cfg in cfgs] if stacked else [_start_or_none(cfgs[0])] * len(cfgs)
    rows = [(cfg, start) for cfg, start in zip(cfgs, starts) if start is not None]
    if not rows:
        return {}
    cfg, (s_star, s, _) = rows[0]
    if len(rows) > 1 and stacked:
        s_star = np.stack([start[0] for _, start in rows])
        cfg = replace(cfg, operator=type(cfg.operator).stack([c.operator for c, _ in rows]))
    try:
        traces = _loop(cfg, s_star, s, [c.seed for c, _ in rows])
    except EngineError:  # the fault of a lone row
        return {}
    return {c.loop_key: trace for (c, _), trace in zip(rows, traces) if trace is not None}


def _start_or_none(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, float | None] | None:
    """_start(cfg), or None where it fails."""
    try:
        return _start(cfg)
    except EngineError:
        return None


def _buffers(rows: int, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Block buffers of _blocks for a state of the given shape: s_t, T(s_t), alpha_t and eta_t."""
    return np.empty((rows, *shape)), np.empty((rows, *shape)), np.empty(rows), np.empty((rows, *shape))


class _Noise:
    """The perturbations of the rows of _blocks: a generator per row, the draws of a block and their rewind.

    In random mode, draw makes the draws of every step of a block before the
    first, through PerturbationModel.draws on each row's generator; a step
    whose budget is positive takes the row's next draw, and a step whose
    budget is <= 0 none, as sample would.  settle, after a block that left a
    row's draws unused, rewinds its generator and redraws the used ones, so
    the next block starts where a per-step loop would.  Adversarial steps
    call sample, row by row.

    A lone row (s_star of shape (dim,)) has eta(t, s_t, e_t, alpha_t), which
    returns eta_t from python floats.  The B rows of a batch (s_star of shape
    (B, dim)) have eta(t, s_t, e_t, alpha_t, out), which writes the (B, dim)
    etas of a step into out; in random mode that is one array expression over
    the rows, each at its own draw index j[r], with the bits of the lone eta.
    """

    __slots__ = ("pm", "g", "zero", "s_star", "rngs", "random", "lone", "eta", "states", "n",
                 "directions", "bases", "u", "j", "first")

    def __init__(self, cfg: RunConfig, s_star: np.ndarray, seeds: list[int]):
        self.pm, self.g, self.zero = cfg.perturbation, cfg.geometry, cfg.geometry.zero
        self.s_star = s_star
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.random = self.pm.mode == "random"
        self.lone = s_star.ndim == 1
        if self.lone:
            self.eta = self._drawn_eta if self.random else functools.partial(self._sample, s_star=s_star,
                                                                              rng=self.rngs[0])
        else:
            self.eta = self._drawn_etas if self.random else self._sampled_etas

    def draw(self, n: int):
        """The draws of the next n steps of each row, and the state-free part of their etas (random mode)."""
        if not self.random:
            return
        self.states = [rng.bit_generator.state for rng in self.rngs]
        self.n = n
        drawn = [self.pm.draws(self.g.dim, n, rng) for rng in self.rngs]
        if self.lone:
            (self.directions, u), = drawn
            self.bases = self.g._divergence(self.directions, self.zero).tolist()
            self.u, self.j = u.tolist(), 0
        else:  # row r's draws are rows r n .. r n + n - 1
            self.directions = np.concatenate([d for d, _ in drawn])
            self.bases = self.g._divergence(self.directions, self.zero)
            u = np.concatenate([u for _, u in drawn])
            self.u = u * u
            self.first = np.arange(len(drawn)) * n
            self.j = np.zeros(len(drawn), dtype=np.intp)

    def _drawn_eta(self, t: int, s: np.ndarray, e_t: float, al: float) -> np.ndarray:
        if (b := self.pm.budget(e_t)) <= 0:  # sample's random branch, on the block's draws
            return self.zero
        j = self.j
        self.j = j + 1
        u = self.u[j]
        return self.pm.eta_along(self.directions[j], self.bases[j], u * u * b, al, self.zero)

    def _drawn_etas(self, t: int, s: np.ndarray, e_t: np.ndarray, al: float, out: np.ndarray):
        b = self.pm.budget(e_t)
        at = self.first + self.j
        target = self.u.take(at) * b  # eta_along's target u * u * b, row by row
        np.multiply(self.directions.take(at, axis=0), np.sqrt(target / self.bases.take(at))[:, None], out=out)
        if self.pm.injection == "scaled":
            out *= al
        if (zero := target <= 0).any():  # also every row whose budget is <= 0
            out[zero] = 0.0
        self.j += ~(b <= 0)

    def _sample(self, t: int, s: np.ndarray, e_t: float, al: float, s_star: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
        try:
            return self.pm.sample(self.g, s, s_star, e_t, al, rng)
        except DomainError as exc:
            raise EngineError(f"perturbation failed at iteration {t}: {exc}", t, s) from exc

    def _sampled_etas(self, t: int, s: np.ndarray, e_t: np.ndarray, al: float, out: np.ndarray):
        for r, rng in enumerate(self.rngs):
            try:
                out[r] = self._sample(t, s[r], e_t[r], al, self.s_star[r], rng)
            except EngineError:  # the row's step fails (_blocks)
                out[r] = np.nan

    def settle(self):
        if self.random:
            for rng, state, j in zip(self.rngs, self.states, [self.j] if self.lone else self.j.tolist()):
                if j < self.n:  # steps whose budget was <= 0 drew nothing
                    rng.bit_generator.state = state
                    self.pm.draws(self.g.dim, j, rng)


def _blocks(cfg: RunConfig, s_star: np.ndarray, t: int, s: np.ndarray, noise: _Noise | None,
            buf: tuple[np.ndarray, ...], sizes: Iterable[int], last: int,
            dead: np.ndarray | None = None) -> Iterator[tuple[int, int, EngineError | None]]:
    """The averaged iteration from s = s_t, one block of rows per size, through row last.

    The one per-step loop of the engine.  s is one state of shape (dim,), or
    a batch of shape (B, dim) whose rows step together, row r against
    s_star[r] and row r of the operator: alpha_t, T, the average, the
    finiteness check and the geometry's drift repair run once per step for
    every row, each with the bits of its lone call.  noise holds the
    perturbations of the rows (_Noise), and is None on a noise-free run.
    Row i of a block of the buffers buf (see _buffers) holds s_u, T(s_u),
    alpha_u and, on noisy runs, eta_u for u = t0 + i.  Each step computes only
    what the next step reads; whoever consumes the block fills every other
    per-row value by one batched map per block.  A step runs unchecked but
    for one finiteness check and the drift repair: s_t, s_star and every
    state before them were checked or settled already.  Row last takes no
    step.  On a batch, a row whose step fails is marked in dead, the (B,)
    flags of the failed rows, and steps on from its row of s_star (_revive);
    every other row keeps its bits.

    Yields (t0, m, fault) per block: its first row t0, its row count m, and
    None, or the EngineError of the step of row t0 + m - 1, the last row of
    the last block (never on a batch).
    """
    g, op, sched, pm = cfg.geometry, cfg.operator, cfg.schedule, cfg.perturbation
    lone = s.ndim == 1
    e_step = noise is not None and pm.kappa != 0
    b_s, b_ts, b_alpha, b_eta = buf
    eta = noise.eta if noise is not None else None
    e_t = 0.0 if lone else np.zeros(len(s))  # the budget's e_t unless e_step: delta0 + kappa * 0.0 is delta0
    for n in sizes:
        t0, end = t, min(t + n, last + 1)
        if noise is not None:
            noise.draw(min(end, last) - t0)
        try:
            for t in range(t0, end):
                i = t - t0
                b_alpha[i] = al = sched.alpha(t)
                ts = op.apply(s, t)
                b_s[i] = s
                b_ts[i] = ts
                if e_step:
                    e_t = g._divergence(s, s_star)
                if t == last:
                    break
                s_next = (1.0 - al) * s + al * ts
                if eta is not None:
                    if lone:
                        b_eta[i] = eta_t = eta(t, s, e_t, al)
                    else:
                        eta(t, s, e_t, al, eta_t := b_eta[i])
                    s_next = s_next + eta_t
                try:
                    if not _finite(s_next):
                        raise EngineError(f"non-finite state at iteration {t}", t, s_next)
                    try:
                        s = g._project(s_next)
                    except DomainError as exc:
                        raise EngineError(f"domain escape at iteration {t}: {exc}", t, s_next) from exc
                except EngineError:
                    if lone:
                        raise
                    s = _revive(g, s_next, s_star, dead)
        except EngineError as fault:
            yield t0, fault.t - t0 + 1, fault
            return
        if noise is not None:
            noise.settle()
        yield t0, end - t0, None
        if end > last:
            return
        t = end


def _revive(g: Geometry, s: np.ndarray, s_star: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """The projected batch s, whose rows that fail a lone step's checks are marked in dead and put back to s_star."""
    bad = ~np.isfinite(s).all(axis=1)
    for r in np.flatnonzero(~bad):
        try:
            g._project(s[r])
        except DomainError:
            bad[r] = True
    dead |= bad
    s[bad] = s_star[bad]
    return g._project(s)


@QUIET
def _loop(cfg: RunConfig, s_star: np.ndarray, s: np.ndarray, seeds: list[int]) -> list[Trace]:
    """The loops of run from the projected s0 s, one row per seed, without their start-up facts; None for a failed row.

    One seed steps a state of shape (dim,) against s_star of shape (dim,).
    More seeds step one (B, dim) state in one pass of _blocks, row r with
    seeds[r]'s generator, against s_star of shape (B, dim) or one s_star for
    every row, and row r of a stacked operator (Operator.stack).  The
    geometry's drift repair runs row by row (Geometry._project).  _blocks
    steps BLOCK rows at a time.  Per block, the batched maps over its
    (m, B, dim) rows give each row the bits of a per-step call for e_t,
    ||T(s_t) - s_t||^2 and D(eta_t, 0).  A lone loop fails at its first
    row whose e_t is not finite, before any failed step of its block.  A row
    of a batch fails alone, at a failed step (_blocks) or at an e_t that is
    not finite, and gets None; its lone loop tells where.  a_t and
    ||T(s_t) - s_t||^2 may read inf.  Each row's Trace is contiguous.
    """
    g, pm = cfg.geometry, cfg.perturbation
    T, B = cfg.iterations, len(seeds)

    e = np.empty((B, T + 1))
    alpha = np.empty(T + 1)
    delta_sq = np.empty((B, T + 1))
    eta_div = np.zeros((B, T + 1))
    states = np.empty((B, T + 1, g.dim)) if cfg.retain_states else None
    etas = np.zeros((B, T, g.dim)) if cfg.retain_states else None
    buf = b_s, b_ts, b_alpha, b_eta = _buffers(min(BLOCK, T + 1), (B, g.dim))
    if B > 1:
        s = np.tile(s, (B, 1))
        s_star = np.broadcast_to(s_star, s.shape)
    else:  # one seed steps the (dim,) state of a lone run
        buf = b_s[:, 0], b_ts[:, 0], b_alpha, b_eta[:, 0]
    noise = None if pm.is_zero else _Noise(cfg, s_star, seeds)
    dead = None if B == 1 else np.zeros(B, dtype=bool)

    for t0, m, fault in _blocks(cfg, s_star, 0, s, noise, buf, itertools.repeat(BLOCK), T, dead):
        done = slice(t0, t0 + m)
        stepped = slice(t0, min(t0 + m, T))  # row T takes no step
        n_step = stepped.stop - t0
        d = g._divergence(b_s[:m], s_star)
        if dead is not None:
            dead |= ~np.isfinite(d).all(axis=0)
        elif fault := _divergence_fault(d, t0, b_s) or fault:
            raise fault
        e[:, done] = d.T
        alpha[done] = b_alpha[:m]
        diff = b_ts[:m] - b_s[:m]
        delta_sq[:, done] = np.vecdot(diff, diff).T
        if states is not None:
            states[:, done] = b_s[:m].swapaxes(0, 1)
        if noise is not None:
            eta_div[:, stepped] = g._divergence(b_eta[:n_step], g.zero).T  # 0.0 where eta is g.zero
            if etas is not None:
                etas[:, stepped] = b_eta[:n_step].swapaxes(0, 1)
    rows = np.arange(T + 1)
    a = e * (rows + 1.0) ** 2
    return [None if dead is not None and dead[r] else
            Trace(t=rows, e=e[r], a=a[r], alpha=alpha, delta_norm_sq=delta_sq[r], eta_div=eta_div[r],
                  states=None if states is None else states[r], etas=None if etas is None else etas[r],
                  final_state=b_s[m - 1, r].copy()) for r in range(B)]


@QUIET
def _passages(cfg: RunConfig, s_star: np.ndarray, e, s: np.ndarray,
              eps_list: list[float], cap: int = PASSAGE_CAP) -> list[int]:
    """First t <= cap with D(s_t, s_star) <= eps for each eps; CENSORED if none.

    e holds the divergences already recorded for t = 0..k and s is the state
    at t = k.  Targets that e does not meet are served together by one pass
    of the clean averaged loop continued from (k, s), in blocks of
    PASSAGE_BLOCKS rows, with one batched divergence per block.  The rows of
    a block are settled in order, as a per-step loop would: a non-finite
    divergence fails the pass at its row (_divergence_fault), and the failed
    step of a block's last row fails it, each only if a target is still open.
    """
    if not all(eps > 0 for eps in eps_list):
        raise ValueError(f"eps must be > 0, got {eps_list}")
    if not cfg.perturbation.is_zero:
        raise ValueError("first passages require a noise-free config")
    g = cfg.geometry
    e = np.asarray(e)[:cap + 1]
    found = {eps: int(np.argmax(e <= eps)) for eps in eps_list if (e <= eps).any()}
    todo = sorted(set(eps_list) - set(found), reverse=True)  # largest target is met first
    k = e.size - 1
    if todo and k < cap:
        buf = b_s, *_ = _buffers(min(PASSAGE_BLOCKS[-1], cap - k + 1), (g.dim,))
        sizes = itertools.chain(PASSAGE_BLOCKS, itertools.repeat(PASSAGE_BLOCKS[-1]))
        for t0, m, fault in _blocks(cfg, s_star, k, s, None, buf, sizes, cap):
            d = g._divergence(b_s[:m], s_star)  # row k again, which meets no open target
            bad = _divergence_fault(d, t0, b_s)
            n_ok = m if bad is None else bad.t - t0
            while todo:
                met = np.flatnonzero(d[:n_ok] <= todo[0])
                if not met.size:
                    break
                found[todo.pop(0)] = t0 + int(met[0])
            if not todo:
                break
            if bad or fault:
                raise bad or fault
            if (t0 + m) // 100_000 > t0 // 100_000:
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
