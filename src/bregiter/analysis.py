"""Numerical audits of the convergence argument along recorded runs.

Each audit replays one inequality of the accelerated descent analysis with
measured constants and reports the worst violation over a trace.  Nothing
here assumes an inequality holds: a violation is a finding about the
argument, not an error in the run.  The checks cover, in order, the descent
inequality for the averaged half-step, the cross-term bound coupling the
perturbation to the distance, the contraction recursion that a positive
rate beta must satisfy, the induction step that would turn that recursion
into a 1/(t+1)^2 bound, and the forward-iterated envelope it implies.
The per-step checks evaluate all steps in one array pass over the batched
geometry and operator maps, with the bits of a step-by-step replay; the
worst step is the first one on ties, and a nan is never the worst.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import engine as _engine
from .geometry import Geometry, three_point_residual
from .operators import Operator, unrolled_depth

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig
    from .engine import Trace


DELTA_RATIO_FLOOR = 1e-14  # e_t at or below this is left out of the empirical M
POWER_LAW_R2 = 0.99  # a rate fit with r2 at least this is reported as a power law
MIN_FIT_POINTS = 10  # fewest usable rows a rate fit accepts
THREE_POINT_TRIPLES, THREE_POINT_SEED = 100, 0  # seeded random triples of the three-point spot check
THREE_POINT_TOL = 1e-9  # largest three-point residual that passes
ENVELOPE_TOL = 1e-12  # largest excess of e_t over the iterated recursion envelope that passes
AUDIT_TOL = 1e-10  # largest descent or cross-term violation that passes
INDUCTION_TOL = 1e-12  # slack of each cell of the induction-step grid
DOT_CHUNK = 10_000  # longest np.dot of fit_rate: OpenBLAS threads a longer ddot, whose bits vary with the threads
ENVELOPE_BLOCK = 1024  # gronwall_envelope steps per block of coefficients: whole-T lists of floats raise peak RSS


def json_number(x: float) -> float | None:
    """x as a JSON number, or None (null) where x is not finite: JSON has no NaN or Infinity."""
    return float(x) if math.isfinite(x) else None


class StatesRequiredError(ValueError):
    """The audit needs retained states (and perturbations) in the trace."""


@dataclass(frozen=True)
class BoundConstants:
    """Measured constants feeding the audited inequalities.

    c_sc, K and C0 derive from mu and L: c_sc = mu, K = sqrt(2/mu) and
    C0 = 2 L^2 K^2 / c_sc.  M is the empirical worst ratio
    ||T(s_t) - s_t||^2 / e_t and beta an admissible contraction rate; both
    default to NaN until measured, and either may be inf.
    """

    gamma_hat: float
    kappa: float
    delta0: float
    mu: float
    L: float
    M: float = float("nan")
    beta: float = float("nan")

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if self.L < self.mu:
            raise ValueError(f"L must be >= mu, got L={self.L}, mu={self.mu}")

    @property
    def c_sc(self) -> float:
        return self.mu

    @property
    def K(self) -> float:
        return math.sqrt(2.0 / self.mu)

    @property
    def C0(self) -> float:
        try:
            return 2.0 * self.L**2 * self.K**2 / self.c_sc
        except OverflowError:  # a float power past the largest float raises, where a product is inf
            return math.inf

    def theta(self, alpha_t):
        """Per-step contraction factor 1 - alpha_t (1 - gamma_hat); elementwise on arrays."""
        return 1.0 - alpha_t * (1.0 - self.gamma_hat)

    def noise_term(self, t):
        """Additive noise contribution 2 (1 + C0) delta0 / (t + 2) of the recursion; elementwise on arrays."""
        return 2.0 * (1.0 + self.C0) * self.delta0 / (t + 2)

    def to_json_dict(self) -> dict:
        d = {**asdict(self), "c_sc": self.c_sc, "K": self.K, "C0": self.C0}
        return {name: json_number(x) for name, x in d.items()}  # M and beta are NaN until measured


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one inequality check over a trace; its fields are plain Python values."""

    name: str
    worst_violation: float
    worst_t: int
    tol: float
    passed: bool
    vacuous: bool = False
    note: str = ""


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log e_t against log(t+1) over a window."""

    slope: float
    r2: float
    t_lo: int
    t_hi: int
    n_points: int
    truncated: bool
    power_law: bool


@dataclass(frozen=True)
class InductionAudit:
    """Truth table of the claimed induction-step inequality on a (beta, t) grid.

    The inequality (t+2)(t+2-2 beta)/(t+1)^2 <= 1 - 2 beta/(t+2) is evaluated
    verbatim; holds[i, j] records whether it is true at (beta_grid[i],
    t_grid[j]).  This is a claim audit, not a gate: the table is reported as
    found.
    """

    beta_grid: np.ndarray
    t_grid: np.ndarray
    holds: np.ndarray

    @property
    def n_violations(self) -> int:
        return int((~self.holds).sum())

    @property
    def n_total(self) -> int:
        return int(self.holds.size)

    def to_json_dict(self) -> dict:
        return {
            "beta_grid": [float(b) for b in self.beta_grid],
            "t_min": int(self.t_grid.min()),
            "t_max": int(self.t_grid.max()),
            "n_violations": self.n_violations,
            "n_total": self.n_total,
            "violations_per_beta": [int(n) for n in (~self.holds).sum(axis=1)],
        }


@dataclass
class AuditReport:
    """All checks for one run plus the fitted constants."""

    checks: list[CheckRecord]
    constants: BoundConstants
    beta_max: float
    induction: InductionAudit
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        constants = self.constants.to_json_dict()
        return {
            "checks": [{**asdict(c), "worst_violation": json_number(c.worst_violation)} for c in self.checks],
            "constants": constants,
            "fitted": {"beta_max": constants["beta"], "M": constants["M"]},
            "induction": self.induction.to_json_dict(),
            "meta": self.meta,
        }


def measure_constants(trace: Trace, cfg: RunConfig) -> BoundConstants:
    """Assemble BoundConstants for a recorded run of cfg."""
    return BoundConstants(
        gamma_hat=trace.gamma_hat,
        kappa=cfg.perturbation.kappa,
        delta0=cfg.perturbation.delta0,
        mu=cfg.geometry.mu,
        L=cfg.geometry.L,
        M=empirical_delta_ratio(trace),
    )


def empirical_delta_ratio(trace: Trace) -> float:
    """Empirical M: worst ratio ||T(s_t) - s_t||^2 / e_t over steps with e_t > DELTA_RATIO_FLOOR.

    A nan ratio is never the worst; nan when no step has a ratio.
    """
    e = trace.e[:-1]
    rows = np.flatnonzero(e > DELTA_RATIO_FLOOR)
    worst, row = _worst(trace.delta_norm_sq[rows] / e[rows], rows)
    return float(worst) if row >= 0 else float("nan")


def fit_rate(trace: Trace, window: tuple[int, int] | None = None) -> RateFit:
    """Fit log e_t = slope * log(t+1) + b over the window [t_lo, t_hi].

    A default window of [T/10, T] is used when none is given.  Rows with
    e_t <= 0 or a non-finite e_t cannot enter the log fit; the first such
    row truncates the window (reported via ``truncated``).  Fewer than
    MIN_FIT_POINTS usable rows is an error, not a silent fit.  The fit is a
    power law when its r2 is at least POWER_LAW_R2.
    """
    e = np.asarray(trace.e if hasattr(trace, "e") else trace, dtype=float)
    T = e.size - 1
    if window is None:
        t_lo, t_hi = max(1, T // 10), T
    else:
        t_lo, t_hi = int(window[0]), int(window[1])
    if not 0 <= t_lo < t_hi <= T:
        raise ValueError(f"window must satisfy 0 <= t_lo < t_hi <= {T}, got [{t_lo}, {t_hi}]")

    truncated = False
    seg = e[t_lo : t_hi + 1]
    bad = np.flatnonzero(~((seg > 0) & (seg < np.inf)))  # also nan
    if bad.size:
        t_hi = t_lo + int(bad[0]) - 1
        truncated = True
    n = t_hi - t_lo + 1
    if n < MIN_FIT_POINTS:
        raise ValueError(
            f"rate window [{t_lo}, {t_hi}] has {max(n, 0)} usable points, need {MIN_FIT_POINTS}"
        )
    tt = np.arange(t_lo, t_hi + 1, dtype=float)
    x = np.log(tt + 1.0)
    y = np.log(e[t_lo : t_hi + 1])
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = _sum_sq(y - (slope * x + intercept))
    ss_tot = _sum_sq(y - y.mean())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope), r2=float(r2), t_lo=t_lo, t_hi=t_hi, n_points=n,
        truncated=truncated, power_law=bool(r2 >= POWER_LAW_R2),
    )


def _sum_sq(v: np.ndarray) -> float:
    """v . v as the in-order sum of np.dot over chunks of at most DOT_CHUNK entries.

    Up to DOT_CHUNK entries this is the one np.dot; past it, the bits do not
    depend on the number of BLAS threads.
    """
    return float(sum(np.dot(v[i:i + DOT_CHUNK], v[i:i + DOT_CHUNK]) for i in range(0, v.size, DOT_CHUNK)))


def _require_states(trace: Trace, what: str):
    if trace.states is None:
        raise StatesRequiredError(
            f"{what} audit needs retained states; rerun with retain_states enabled"
        )


def _worst(v: np.ndarray, rows: np.ndarray) -> tuple[float, int]:
    """Largest entry of v (a numpy scalar) and its row, the first on ties.

    nan never wins; (-inf, -1) when no entry exceeds -inf, as for an empty v.
    """
    v = np.where(np.isnan(v), -np.inf, v)
    i = int(np.argmax(v)) if v.size else 0
    if not v.size or v[i] == -np.inf:
        return -math.inf, -1
    return v[i], int(rows[i])


def _check(name: str, excess: np.ndarray, rows: np.ndarray, tol: float, note: str = "") -> CheckRecord:
    """CheckRecord of the largest entry of excess by _worst, at its row, clamped at 0 and passed against tol."""
    worst, worst_t = _worst(excess, rows)
    violation = max(float(worst), 0.0)
    return CheckRecord(name=name, worst_violation=violation, worst_t=worst_t, tol=tol,
                       passed=violation <= tol, note=note)


def audit_descent(trace: Trace, g: Geometry, op: Operator, bc: BoundConstants) -> CheckRecord:
    """Check the half-step descent bound at every recorded step.

    With x_t = s_t + alpha_t (T(s_t) - s_t), the claim is
    D(x_t, s_star) <= theta_t e_t + (L/2) alpha_t^2 ||Delta_t||^2.
    Violations are max(lhs - rhs, 0); the worst one is reported.
    """
    _require_states(trace, "descent")
    t = np.arange(trace.iterations)
    s = trace.states[t]
    al = trace.alpha[t]
    ts = op._apply(s, t)
    delta = ts - s
    x = (1.0 - al)[:, None] * s + al[:, None] * ts
    lhs = g._divergence(x, trace.s_star)
    rhs = bc.theta(al) * trace.e[t] + 0.5 * bc.L * al * al * np.vecdot(delta, delta)
    return _check("descent", lhs - rhs, t, AUDIT_TOL)


def audit_cross_term(trace: Trace, g: Geometry, bc: BoundConstants) -> CheckRecord:
    """Check the perturbation cross-term bound at every noisy step.

    The coupling R_t = |<grad(x_t) - grad(s_star), eta_t>| is claimed to obey
    R_t <= D(x_t, s_star)/2 + C0 D(eta_t, 0).  Steps with eta_t = 0 satisfy
    it trivially and are skipped; a fully noise-free trace yields a vacuous
    pass, flagged as such.
    """
    _require_states(trace, "cross-term")
    if trace.etas is None:
        raise StatesRequiredError(
            "cross-term audit needs retained perturbations; rerun with retain_states enabled"
        )
    grad_star = g._grad(trace.s_star)
    t = np.flatnonzero(trace.etas[:trace.iterations].any(axis=1))
    n_noisy = t.size
    if n_noisy == 0:
        return CheckRecord(
            name="cross-term", worst_violation=0.0, worst_t=-1, tol=AUDIT_TOL, passed=True,
            vacuous=True, note="no nonzero perturbations in trace",
        )
    eta = trace.etas[t]
    x = trace.states[t + 1] - eta
    lhs = np.abs(np.vecdot(g._grad(x) - grad_star, eta))
    rhs = 0.5 * g._divergence(x, trace.s_star) + bc.C0 * g._divergence(eta, np.zeros(g.dim))
    return _check("cross-term", lhs - rhs, t, AUDIT_TOL, note=f"{n_noisy} noisy steps")


def audit_recursion(trace: Trace, bc: BoundConstants) -> tuple[float, CheckRecord]:
    """Largest beta >= 0 with e_{t+1} <= (1 - 2 beta/(t+2)) e_t + noise_t for all t.

    Each step with e_t > 0 bounds beta from above in closed form, so the
    answer is the minimum of those per-step bounds (clamped at 0).  Steps
    with e_t = 0 contribute a beta-independent feasibility condition; if one
    fails, no beta works and 0 is reported with passed=False.  A step with a
    nan e_t is neither and bounds nothing; a nan bound is never the smallest.
    """
    t = np.arange(trace.iterations)
    e, e_next = trace.e[t], trace.e[t + 1]
    n_t = bc.noise_term(t)
    pos = np.flatnonzero(e > 0)
    b = (e[pos] - e_next[pos] + n_t[pos]) * (pos + 2) / (2.0 * e[pos])
    best, binding_t = _worst(-b, pos)  # the first smallest bound
    best = -best  # stays a numpy scalar: the note prints its repr, and audit.json digests pin it
    infeasible = np.flatnonzero((e <= 0) & (e_next > n_t))
    if infeasible.size:
        infeasible_t = int(infeasible[-1])  # the last such step is reported
        rec = CheckRecord(
            name="recursion", worst_violation=float(trace.e[infeasible_t + 1]), worst_t=infeasible_t,
            tol=0.0, passed=False,
            note="a zero-divergence step grows faster than the noise term; no beta >= 0 works",
        )
        return 0.0, rec
    beta_max = max(0.0, best) if binding_t >= 0 else math.inf
    rec = CheckRecord(
        name="recursion", worst_violation=0.0, worst_t=binding_t, tol=0.0,
        passed=bool(beta_max > 0),
        note=f"beta_max = {beta_max!r}, binding at t = {binding_t}",
    )
    return beta_max, rec


def audit_induction_step(beta_grid=None, t_grid=None) -> InductionAudit:
    """Evaluate the claimed induction-step inequality on a grid, verbatim.

    Checks (t+2)(t+2-2 beta)/(t+1)^2 <= 1 - 2 beta/(t+2) + INDUCTION_TOL cell by cell.
    Defaults: beta in {0.1, ..., 0.9}, t in {0, ..., 100}.
    """
    beta_grid = np.linspace(0.1, 0.9, 9) if beta_grid is None else np.asarray(beta_grid, dtype=float)
    t_grid = np.arange(0, 101) if t_grid is None else np.asarray(t_grid, dtype=int)
    beta, tt = beta_grid[:, None], t_grid.astype(float)
    holds = (tt + 2) * (tt + 2 - 2 * beta) / (tt + 1) ** 2 <= 1.0 - 2.0 * beta / (tt + 2) + INDUCTION_TOL
    return InductionAudit(beta_grid=beta_grid, t_grid=t_grid, holds=holds)


def gronwall_envelope(e0: float, bc: BoundConstants, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Theoretical envelopes for e_t implied by the recursion with rate beta.

    Returns (iterated, closed_form), both of length T+1: the recursion
    e_{t+1} = (1 - 2 beta/(t+2)) e_t + noise_t iterated forward exactly from
    e0, and the closed-form bound a0/(t+1)^2 + (2 (1+C0) delta0 / beta)/(t+1)
    with a0 = e0.  Requires beta > 0.
    """
    if not bc.beta > 0:  # also catches NaN
        raise ValueError(f"gronwall envelope needs beta > 0, got {bc.beta!r}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    beta, x = float(bc.beta), float(e0)
    k = 2.0 * (1.0 + float(bc.C0)) * float(bc.delta0)  # noise_term(t) = k / (t + 2)
    # x_{t+1} = (1 - 2 beta / (t + 2)) x_t + k / (t + 2): the coefficients are the same IEEE operations
    # in numpy (2 beta / (t + 2) groups left, t + 2 converts exactly), and only the recursion steps in floats
    env = [x]
    for lo in range(2, T + 2, ENVELOPE_BLOCK):
        tt2 = np.arange(lo, min(lo + ENVELOPE_BLOCK, T + 2), dtype=float)
        for a_t, c_t in zip((1.0 - (2.0 * beta) / tt2).tolist(), (k / tt2).tolist()):
            x = a_t * x + c_t
            env.append(x)
    env = np.array(env)
    tt = np.arange(T + 1, dtype=float)
    closed = e0 / (tt + 1) ** 2 + (2.0 * (1.0 + bc.C0) * bc.delta0 / bc.beta) / (tt + 1)
    return env, closed


@dataclass(frozen=True)
class FeedComparison:
    """Feedback iterations versus feedforward depth to the same accuracy."""

    t_feedback: int
    d_feedforward: int
    gamma_hat: float
    e0: float

    @property
    def censored(self) -> bool:
        return self.t_feedback == _engine.CENSORED


def compare_feedback_feedforward(cfg: RunConfig, eps: float,
                                 cap: int = _engine.PASSAGE_CAP) -> FeedComparison:
    """Iterations of the averaged loop vs unrolled operator depth to reach eps.

    Both start from cfg.s0.  The feedback count runs the loop incrementally;
    the feedforward depth composes the raw operator using the measured
    contraction factor.  With eps >= e0 both are 0.
    """
    g, op = cfg.geometry, cfg.operator
    s_star, s0, gamma_hat = _engine._start(cfg, contraction=True)
    e0 = g._divergence(s0, s_star)  # _start checked both
    t_fb = _engine._passages(cfg, s_star, [e0], s0, [eps], cap)[0]
    depth = 0 if eps >= e0 else unrolled_depth(op, g, e0, eps, gamma_hat=gamma_hat)
    return FeedComparison(t_feedback=t_fb, d_feedforward=depth, gamma_hat=gamma_hat, e0=e0)


@_engine.QUIET
def build_audit_report(trace: Trace, cfg: RunConfig) -> AuditReport:
    """Run every audit that the trace supports and bundle the findings.

    State-dependent checks (three-point spot check, descent, cross-term)
    require retained states; traces without them get a report limited to the
    recursion, induction and envelope checks.  Arithmetic that overflows on
    finite states runs on without a warning, and its nan rows are never the
    worst.
    """
    g, op = cfg.geometry, cfg.operator
    bc = measure_constants(trace, cfg)
    checks: list[CheckRecord] = []

    if trace.states is not None:
        checks.append(_audit_three_point(trace, g))
        checks.append(audit_descent(trace, g, op, bc))
        checks.append(audit_cross_term(trace, g, bc))

    beta_max, rec = audit_recursion(trace, bc)
    checks.append(rec)
    induction = audit_induction_step()

    bc = replace(bc, beta=float(beta_max))  # inf when no step bounds it
    if 0 < bc.beta < math.inf:
        env, _ = gronwall_envelope(float(trace.e[0]), bc, trace.iterations)
        checks.append(_check("envelope-domination", trace.e - env, np.arange(len(trace)), ENVELOPE_TOL,
                             note=f"iterated recursion envelope with beta = {beta_max!r}"))

    return AuditReport(
        checks=checks, constants=bc, beta_max=beta_max, induction=induction,
        meta={
            "config_digest": cfg.digest,
            "iterations": trace.iterations,
            "warnings": list(trace.warnings),
        },
    )


def _audit_three_point(trace: Trace, g: Geometry) -> CheckRecord:
    """Spot-check the three-point identity on THREE_POINT_TRIPLES seeded triples of recorded states.

    The worst residual is reported at the first state of its triple, and as
    (0.0, -1) when no residual is above 0.
    """
    rng = np.random.default_rng(THREE_POINT_SEED)
    i, j, k = rng.integers(0, trace.states.shape[0], size=(THREE_POINT_TRIPLES, 3)).T
    worst, worst_t = _worst(three_point_residual(g, trace.states[i], trace.states[j], trace.states[k]), i)
    worst, worst_t = (float(worst), worst_t) if worst > 0 else (0.0, -1)
    return CheckRecord(
        name="three-point-identity", worst_violation=worst, worst_t=worst_t, tol=THREE_POINT_TOL,
        passed=worst <= THREE_POINT_TOL,
    )
