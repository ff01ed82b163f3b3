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
budget and the scaling of its eta.  The step sizes of a block are made
once per block (Schedule.alphas), and so is the one fault rule of every
row, lone or in a batch (_fault): its first divergence that is not finite,
unless a step of the row failed before it, with the message, t and state of
the EngineError of its per-step loop.

A sweep job is a pass of passes, or a part of one, stepped by one call of
loops: the loops whose configs differ only in the seed and in the params
that their operator kind stacks (Operator.stackable) step together as the
rows of one (B, dim) state.  The work that reads no draw runs once per step
for every row; row r reads its own row of the stacked operator and of
s_star, draws its perturbations from its own generator, and gets the bits,
or the fault, of its lone loop.  In random mode the etas of all rows are one
array expression per step.  A pass holds at most PASS_BYTES of traces, so a
worker, which drops each job's traces before it steps the next, holds about
that much at once.  A lone run (B = 1) steps a (dim,) state, whose random
etas come from python floats: at B = 1 the array expression costs more than
twice as much per step.

0-d operands.  numpy 2 takes a python float or np.float64 operand through
its NEP 50 scalar path, 150-200 ns more per ufunc call on a small array than
a 0-d array, which it converts to the same float64.  So the scalars of a step
are 0-d arrays, with the same bits: read-only operator constants, and
registers of one _blocks call or one run's eta for alpha_t, 1 - alpha_t and
eta's scale factors.  Comparisons keep floats, as one on a 0-d array is a
ufunc, and so do the sums they compare with 1.0 (ExpGradientStep's second,
NegativeEntropy._project's), where a 0-d array costs more than it saves.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .geometry import DomainError, Geometry
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

    def alphas(self, t0: int, t1: int) -> list[float]:
        """[alpha(t) for t in range(t0, t1)], with the same bits.

        An IEEE division of exact integers has the same bits in numpy as in
        python, so accelerated steps divide once per call.
        """
        if self.kind == "accelerated":
            return (2.0 / np.arange(t0 + 2, t1 + 2, dtype=float)).tolist()
        if self.kind == "constant":
            return [self.c] * (t1 - t0)
        return [self.alpha(t) for t in range(t0, t1)]


class EngineError(RuntimeError):
    """Run failure at a specific iteration; carries the offending state."""

    def __init__(self, message: str, t: int, state: np.ndarray):
        super().__init__(message)
        self.t = t
        self.state = np.asarray(state, dtype=float)

    def __reduce__(self):
        return type(self), (str(self), self.t, self.state)


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


def _fault(d: np.ndarray, states: np.ndarray, t0: int, step: EngineError | None) -> EngineError | None:
    """The fault of a row from its block of rows t0.., whose states are states and d[i] = D(states[i], s_star).

    It is that of the row's first d[i] that is not finite: of the step that made states[i] where that is not
    finite (its divergence never is), else a non-finite divergence at iteration t0 + i.  step, the row's first
    failed step (_blocks), wins if it came before row t0 + i.  Each is the EngineError of its per-step loop.
    """
    if not _finite(d):
        i = int(np.argmin(np.isfinite(d)))
        if step is None or step.t >= t0 + i:
            t, state = t0 + i, states[i].copy()
            if _finite(state):
                return EngineError(f"non-finite divergence at iteration {t}", t, state)
            return _step_fault(t - 1, state, None)  # the step that made the state
    return step


def _step_fault(t: int, state: np.ndarray, exc: DomainError | None, eta: bool = False) -> EngineError:
    """The fault of step t: its eta raised exc at state = s_t, or state = s_{t+1} failed its repair or is not finite."""
    if eta:
        return EngineError(f"perturbation failed at iteration {t}: {exc}", t, state)
    if _finite(state):
        return EngineError(f"domain escape at iteration {t}: {exc}", t, state)
    return EngineError(f"non-finite state at iteration {t}", t, state)


def run(cfg: RunConfig) -> Trace:
    """Execute the averaged iteration described by cfg and return its trace.

    Start-up (fixed point, s0, the seeded contraction estimate and its
    warnings) runs first and fills the Trace's s_star, gamma_hat and warnings.
    A failed start-up or loop raises its EngineError.
    """
    s_star, s, facts = _started(cfg)
    trace, = _loop(cfg, s_star, s, [cfg.seed])
    if isinstance(trace, EngineError):
        raise trace
    return replace(trace, **facts)


def with_start(cfg: RunConfig, loop: Trace | EngineError) -> Trace:
    """The Trace of run(cfg), from loop, what loops gave for cfg's loop_key.

    cfg's own start-up runs first, and fails as that of run(cfg) does; then
    a failed loop raises its EngineError, and the result of another shares
    loop's arrays.
    """
    facts = _started(cfg)[2]
    if isinstance(loop, EngineError):
        raise loop.with_traceback(None)  # each point of the key raises it afresh
    return replace(loop, **facts)


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
    """The passes of loops that step cfgs: every config, those of a loop_key adjacent.

    The loop keys of one batch_key, in order of first appearance, form passes
    of whole keys, each holding at most PASS_BYTES of traces and retained
    states (one key at least); a key's configs keep their order.
    """
    batches: dict[str, dict[str, list[RunConfig]]] = {}
    for cfg in cfgs:
        batches.setdefault(cfg.batch_key, {}).setdefault(cfg.loop_key, []).append(cfg)
    out = []
    for batch in batches.values():
        keys = list(batch.values())
        size = max(1, PASS_BYTES // _trace_bytes(keys[0][0]))
        out += [[c for key in keys[lo:lo + size] for c in key] for lo in range(0, len(keys), size)]
    return out


def _trace_bytes(cfg: RunConfig) -> int:
    """Bytes of the trace and retained states of one loop of cfg: T + 1 rows of e, a, ||T(s) - s||^2 and eta_div."""
    return 8 * (cfg.iterations + 1) * (4 + 2 * cfg.geometry.dim * cfg.retain_states)


def loops(cfgs: list[RunConfig]) -> dict[str, Trace | EngineError]:
    """The loop of each loop_key of cfgs, a pass of passes, without its start-up facts, or its fault.

    The first config of each key (adjacent, as in a pass) is a row of one
    pass of _loop: row r starts from its own fixed point where the rows stack
    their operator params, and the rows of any other batch share one
    start-up.  Every key gets the Trace of the loop of run on a config of
    it, with the same bits, or, where that loop fails at start-up or at a
    step, the EngineError it raises; the other rows step on.  with_start adds
    a config's start-up facts, or raises the fault.
    """
    cfgs = [next(group) for _, group in itertools.groupby(cfgs, key=lambda cfg: cfg.loop_key)]
    stacked = cfgs[0].operator.stackable
    starts = [_start_or_fault(cfg) for cfg in cfgs] if stacked else [_start_or_fault(cfgs[0])] * len(cfgs)
    rows = [(cfg, start) for cfg, start in zip(cfgs, starts) if not isinstance(start, EngineError)]
    traces = iter(())
    if rows:
        cfg, (s_star, s, _) = rows[0]
        if len(rows) > 1 and stacked:
            s_star = np.stack([start[0] for _, start in rows])
            cfg = replace(cfg, operator=type(cfg.operator).stack([c.operator for c, _ in rows]))
        traces = iter(_loop(cfg, s_star, s, [c.seed for c, _ in rows]))
    return {cfg.loop_key: start if isinstance(start, EngineError) else next(traces)
            for cfg, start in zip(cfgs, starts)}


def _start_or_fault(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, float | None] | EngineError:
    """_start(cfg), or the EngineError it raises."""
    try:
        return _start(cfg)
    except EngineError as exc:
        return exc


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
    the next block starts where a per-step loop would.  In adversarial mode
    each row has the eta of PerturbationModel.adversarial, bound once per
    run against its s_star and generator: the rule that sample applies.

    A lone row (s_star of shape (dim,)) has eta(s_t, e_t, alpha_t), which
    returns eta_t from python floats and 0-d arrays and raises DomainError where the
    adversarial direction overflows.  The B rows of a batch (s_star of shape
    (B, dim)) have eta(s_t, e_t, alpha_t, out, t), which writes the (B, dim)
    etas of step t into out; a row whose eta fails gets nan, and its fault
    goes into faults, the rows' first failed steps (_blocks).  In random mode
    that is one array expression over the rows, each at its own draw index
    j[r], with the bits of the lone eta.
    """

    __slots__ = ("pm", "g", "zero", "rngs", "random", "lone", "eta", "rules", "faults", "states", "n",
                 "directions", "bases", "u", "j", "first", "scale")

    def __init__(self, cfg: RunConfig, s_star: np.ndarray, seeds: list[int], faults: list):
        self.pm, self.g, self.zero = cfg.perturbation, cfg.geometry, cfg.geometry.zero
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.random = self.pm.mode == "random"
        self.lone = s_star.ndim == 1
        self.faults = faults
        self.scale = np.empty(())  # eta_along's 0-d register
        if self.random:
            self.eta = self._drawn_eta if self.lone else self._drawn_etas
            return
        rows = [s_star] if self.lone else s_star
        self.rules = [self.pm.adversarial(self.g, row, rng) for row, rng in zip(rows, self.rngs)]
        self.eta = self.rules[0] if self.lone else self._adversarial_etas

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

    def _drawn_eta(self, s: np.ndarray, e_t: float, al: np.ndarray) -> np.ndarray:
        if (b := self.pm.budget(e_t)) <= 0:  # sample's random branch, on the block's draws
            return self.zero
        j = self.j
        self.j = j + 1
        u = self.u[j]
        return self.pm.eta_along(self.directions[j], self.bases[j], u * u * b, al, self.zero, self.scale)

    def _drawn_etas(self, s: np.ndarray, e_t: np.ndarray, al: np.ndarray, out: np.ndarray, t: int):
        b = self.pm.budget(e_t)
        at = self.first + self.j
        target = self.u.take(at) * b  # eta_along's target u * u * b, row by row
        np.multiply(self.directions.take(at, axis=0), np.sqrt(target / self.bases.take(at))[:, None], out=out)
        if self.pm.injection == "scaled":
            out *= al
        if np.count_nonzero(zero := target <= 0):  # also every row whose budget is <= 0
            out[zero] = 0.0
        self.j += ~(b <= 0)

    def _adversarial_etas(self, s: np.ndarray, e_t: np.ndarray, al: np.ndarray, out: np.ndarray, t: int):
        for r, eta in enumerate(self.rules):
            try:
                out[r] = eta(s[r], e_t[r], al)
            except DomainError as exc:
                out[r] = np.nan
                self.faults[r] = self.faults[r] or _step_fault(t, s[r].copy(), exc, eta=True)

    def settle(self):
        if self.random:
            for rng, state, j in zip(self.rngs, self.states, [self.j] if self.lone else self.j.tolist()):
                if j < self.n:  # steps whose budget was <= 0 drew nothing
                    rng.bit_generator.state = state
                    self.pm.draws(self.g.dim, j, rng)


def _blocks(cfg: RunConfig, s_star: np.ndarray, t: int, s: np.ndarray, noise: _Noise | None,
            buf: tuple[np.ndarray, ...], sizes: Iterable[int], last: int, faults: list) -> Iterator[tuple[int, int]]:
    """The averaged iteration from s = s_t, one block of rows per size, through row last.

    The one per-step loop of the engine.  s is one state of shape (dim,), or
    a batch of shape (B, dim) whose rows step together, row r against
    s_star[r] and row r of the operator: T (the operator's unchecked
    _apply), the average and the geometry's drift repair run once per step
    for every row, each with the bits of its lone call.  The step sizes of a
    block are made once, before its first step (Schedule.alphas).  noise
    holds the perturbations of the rows (_Noise), and is None on a
    noise-free run.  Row i of a block of the buffers buf (see _buffers)
    holds s_u, T(s_u), alpha_u and, on noisy runs, eta_u for u = t0 + i.
    Each step computes only what the next step reads; whoever consumes the
    block fills every other per-row value by one batched map per block.  A
    step runs unchecked but for the drift repair: s_t, s_star and every
    state before them were checked or settled already.  Row last takes no
    step.  A geometry that keeps the identity repair (Geometry._project:
    squared-euclidean, quadratic) is not called for it, and its step takes
    the average itself, with the bits of the call.

    faults holds each row's first failed step, or None (_step_fault): an eta
    that fails (DomainError), or a drift repair that fails, as
    NegativeEntropy's does on every non-finite state.  A lone step that fails
    ends the loop at its row, as does a lone block that carries on a
    non-finite state.  A batch row whose eta fails steps on with a nan eta
    (_Noise), and one whose repair fails from its row of s_star (_revive).
    Whoever consumes a block gives each row its fault by the rule of _fault,
    which also catches the non-finite states that the identity passes on.

    Yields (t0, m) per block: its first row t0 and its row count m.
    """
    g, op, sched, pm = cfg.geometry, cfg.operator, cfg.schedule, cfg.perturbation
    lone = s.ndim == 1
    e_step = noise is not None and pm.kappa != 0
    b_s, b_ts, b_alpha, b_eta = buf
    eta = noise.eta if noise is not None else None
    apply, project = op._apply, g._project
    repair = type(g)._project is not Geometry._project
    e_t = 0.0 if lone else np.zeros(len(s))  # the budget's e_t unless e_step: delta0 + kappa * 0.0 is delta0
    w_s, w_ts = np.empty(()), np.empty(())  # the 0-d registers of the average's weights 1 - alpha_t and alpha_t
    for n in sizes:
        t0, end = t, min(t + n, last + 1)
        if noise is not None:
            noise.draw(min(end, last) - t0)
        alphas = sched.alphas(t0, end)
        b_alpha[:end - t0] = alphas
        for t, al in zip(range(t0, end), alphas):
            i = t - t0
            ts = apply(s, t)
            b_s[i] = s
            b_ts[i] = ts
            if e_step:
                e_t = g._divergence(s, s_star)
            if t == last:
                break
            w_s[()], w_ts[()] = 1.0 - al, al
            s_next = w_s * s + w_ts * ts
            if eta is not None:
                if lone:
                    try:
                        b_eta[i] = eta_t = eta(s, e_t, w_ts)
                    except DomainError as exc:
                        faults[0] = _step_fault(t, s, exc, eta=True)
                        break
                else:
                    eta(s, e_t, w_ts, eta_t := b_eta[i], t)
                s_next = s_next + eta_t
            if not repair:
                s = s_next
            elif lone:
                try:
                    s = project(s_next)
                except DomainError as exc:
                    faults[0] = _step_fault(t, s_next, exc)
                    break
            else:
                try:
                    s = project(s_next)
                except DomainError:
                    s = _revive(g, s_next, s_star, t, faults)
        if lone and (faults[0] or end <= last and not _finite(s)):  # no step is taken from a non-finite state
            faults[0] = faults[0] or _step_fault(t, s, None)
            yield t0, t - t0 + 1
            return
        if noise is not None:
            noise.settle()
        yield t0, end - t0
        if end > last:
            return
        t = end


def _revive(g: Geometry, s: np.ndarray, s_star: np.ndarray, t: int, faults: list) -> np.ndarray:
    """The projected batch s = s_{t+1}: a row whose repair fails records its fault and steps on from s_star's row."""
    rows = []
    for r, row in enumerate(s):
        try:
            rows.append(g._project(row))
        except DomainError as exc:
            faults[r] = faults[r] or _step_fault(t, row.copy(), exc)
            rows.append(g._project(s_star[r]))
    return np.stack(rows)


@QUIET
def _loop(cfg: RunConfig, s_star: np.ndarray, s: np.ndarray, seeds: list[int]) -> list[Trace | EngineError]:
    """The loops of run from the projected s0 s, one row per seed, without their start-up facts, or their faults.

    One seed steps a state of shape (dim,) against s_star of shape (dim,).
    More seeds step one (B, dim) state in one pass of _blocks, row r with
    seeds[r]'s generator, against s_star of shape (B, dim) or one s_star for
    every row, and row r of a stacked operator (Operator.stack).  The
    geometry's drift repair runs row by row (Geometry._project).  _blocks
    steps BLOCK rows at a time.  Per block, the batched maps over its
    (m, B, dim) rows give each row the bits of a per-step call for e_t,
    ||T(s_t) - s_t||^2 and D(eta_t, 0).  At the end of each block, a row
    whose divergence is not finite or whose step failed gets its fault
    (_fault), the EngineError that its lone loop raises, in place of its
    Trace, and the other rows step on; the pass stops once every row has
    failed.  a_t and ||T(s_t) - s_t||^2 may read inf.  Each row's Trace is
    contiguous.  Where the arrays of the traces cannot be allocated, every
    row gets the EngineError at t = -1, carrying s0, that names one row's
    bytes (_trace_bytes), whatever the number of rows.  A block that crosses
    a multiple of 100000 rows logs a DEBUG progress line (bregiter -v), as
    _passages does.
    """
    g, pm = cfg.geometry, cfg.perturbation
    T, B = cfg.iterations, len(seeds)
    try:
        rows = np.arange(T + 1)
        e, a, delta_sq, eta_div = np.empty((B, T + 1)), np.empty((B, T + 1)), np.empty((B, T + 1)), np.zeros((B, T + 1))
        alpha = np.empty(T + 1)
        states = np.empty((B, T + 1, g.dim)) if cfg.retain_states else None
        etas = np.zeros((B, T, g.dim)) if cfg.retain_states else None
    except (MemoryError, ValueError):  # numpy's ValueError: a size past what an array may have
        msg = f"cannot hold the trace of {T + 1} rows ({_trace_bytes(cfg)} bytes)"
        return [EngineError(msg, -1, np.asarray(cfg.s0, dtype=float)) for _ in seeds]
    buf = b_s, b_ts, b_alpha, b_eta = _buffers(min(BLOCK, T + 1), (B, g.dim))
    if B > 1:
        s = np.tile(s, (B, 1))
        s_star = np.broadcast_to(s_star, s.shape)
    else:  # one seed steps the (dim,) state of a lone run
        buf = b_s[:, 0], b_ts[:, 0], b_alpha, b_eta[:, 0]
    steps: list[EngineError | None] = [None] * B  # each row's first failed step
    faults: list[EngineError | None] = [None] * B
    noise = None if pm.is_zero else _Noise(cfg, s_star, seeds, steps)

    for t0, m in _blocks(cfg, s_star, 0, s, noise, buf, itertools.repeat(BLOCK), T, steps):
        done = slice(t0, t0 + m)
        stepped = slice(t0, min(t0 + m, T))  # row T takes no step
        n_step = stepped.stop - t0
        d = g._divergence(b_s[:m], s_star)
        if not _finite(d) or any(steps):
            faults = [fault or _fault(d[:, r], b_s[:m, r], t0, steps[r]) for r, fault in enumerate(faults)]
            if all(faults):
                break
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
        if (t0 + m) // 100_000 > t0 // 100_000:
            log.debug("loop: t=%d of %d, B = %d", t0 + m - 1, T, B)
    np.multiply(e, (rows + 1.0) ** 2, out=a)
    return [fault or Trace(t=rows, e=e[r], a=a[r], alpha=alpha, delta_norm_sq=delta_sq[r], eta_div=eta_div[r],
                           states=None if states is None else states[r], etas=None if etas is None else etas[r],
                           final_state=b_s[m - 1, r].copy()) for r, fault in enumerate(faults)]


@QUIET
def _passages(cfg: RunConfig, s_star: np.ndarray, e, s: np.ndarray,
              eps_list: list[float], cap: int = PASSAGE_CAP) -> list[int]:
    """First t <= cap with D(s_t, s_star) <= eps for each eps; CENSORED if none.

    e holds the divergences already recorded for t = 0..k and s is the state
    at t = k.  Targets that e does not meet are served together by one pass
    of the clean averaged loop continued from (k, s), in blocks of
    PASSAGE_BLOCKS rows, with one batched divergence per block.  The rows of
    a block are settled in order, as a per-step loop would: the fault of the
    pass (_fault) fails it at its row, only if a target is still open.
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
        steps = [None]
        for t0, m in _blocks(cfg, s_star, k, s, None, buf, sizes, cap, steps):
            d = g._divergence(b_s[:m], s_star)  # row k again, which meets no open target
            fault = _fault(d, b_s, t0, steps[0])
            n_ok = m if fault is None else fault.t - t0 + 1  # a non-finite divergence meets no target
            while todo:
                met = np.flatnonzero(d[:n_ok] <= todo[0])
                if not met.size:
                    break
                found[todo.pop(0)] = t0 + int(met[0])
            if not todo:
                break
            if fault:
                raise fault
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
    return _passages(cfg, s_star, [cfg.geometry._divergence(s, s_star)], s, [eps], cap)[0]  # _start checked both
