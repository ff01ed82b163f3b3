"""Independent oracles for the test suite.

Nothing here imports the package under test.  Up to the last section,
everything is computed with the standard library only, no numpy: linear
systems are solved by Cramer's rule over exact fractions, products are
accumulated by plain loops.  The point is that a bug in the package cannot
hide inside its own oracle.

The last section is different: it holds step-by-step reference loops for the
audits, the geometry certificates and the contraction estimate, which the
package evaluates as array passes.  They use numpy and call the geometry,
operator and constants passed in one row at a time, so they pin the batched
passes to the exact bits, tie breaks and error order of a plain replay.
After them come the row-by-row trace.csv writer and reader and the
run-directory loader that the harness used before it formatted and parsed
the trace in blocks.
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# divergences


def kl_sum(p, q):
    """KL divergence by direct summation."""
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))


def half_sq_dist(p, q):
    return 0.5 * sum((pi - qi) ** 2 for pi, qi in zip(p, q))


# frozen: kl_sum([0.5, 0.5], [0.25, 0.75]) == 0.5*ln 2 + 0.5*ln(2/3) == 0.5*ln(4/3)
KL_EXAMPLE = 0.5 * math.log(4.0 / 3.0)  # 0.14384103622589042


# ---------------------------------------------------------------------------
# accelerated error ledger for a colinear contraction
#
# With alpha_t = 2/(t+2) and T(s) = gamma*s + (1-gamma)*s_star, the distance
# to s_star contracts by 1 - alpha_t*(1-gamma) each step.  For gamma = 1/2
# that factor is (t+1)/(t+2), the product telescopes, and the divergence
# (half squared distance) obeys e_t = e_0/(t+1)^2 exactly.


def closed_form_error(e0, t):
    return e0 / (t + 1) ** 2


def colinear_error_product(e0, gamma, t):
    """Same quantity by explicit product, no telescoping shortcut."""
    d = math.sqrt(2.0 * e0)
    for k in range(t):
        d *= 1.0 - (2.0 / (k + 2)) * (1.0 - gamma)
    return 0.5 * d * d


def iters_to_eps(e0, eps):
    """Smallest t with e0/(t+1)^2 <= eps, by scan."""
    t = 0
    while closed_form_error(e0, t) > eps:
        t += 1
    return t


ITERS_1E4 = 158   # e0 = 2.5: 159^2 = 25281 >= 25000, 158^2 = 24964 < 25000
ITERS_1E6 = 1581  # 1582^2 = 2502724 >= 2.5e6, 1581^2 = 2499561 < 2.5e6


def unrolled_depth(e0, eps, contraction):
    """ceil(ln(e0/eps) / ln(1/contraction)); contraction is a divergence ratio."""
    if eps >= e0:
        return 0
    return math.ceil(math.log(e0 / eps) / math.log(1.0 / contraction))


DEPTH_1E4 = 8   # ceil(ln 25000 / ln 4) = ceil(7.30...)
DEPTH_1E6 = 11  # ceil(ln 2.5e6 / ln 4) = ceil(10.62...)


# ---------------------------------------------------------------------------
# admissible beta for the error recursion
#
# e_{t+1} <= (1 - 2 beta/(t+2)) e_t with e_{t+1}/e_t = ((t+1)/(t+2))^2 gives
# beta <= (2t+3)/(2(t+2)) at step t; the right side increases in t, so the
# binding constraint is t = 0 and beta_max = 3/4.


def per_step_beta_bound(t):
    return Fraction(2 * t + 3, 2 * (t + 2))


def beta_max_over(T):
    return min(per_step_beta_bound(t) for t in range(T))


BETA_MAX = Fraction(3, 4)


# ---------------------------------------------------------------------------
# 2-state MDP with two actions, discount 9/10
#
# transitions (state, action): (0,a0)->0 r=1, (0,a1)->1 r=0,
#                              (1,a0)->0 r=0, (1,a1)->1 r=2
# Every deterministic policy is evaluated by solving (I - beta P) V = r with
# Cramer's rule over exact fractions; the optimal values are the entrywise
# max over policies.

MDP_TRANSITIONS = (((1, 0), (0, 1)), ((1, 0), (0, 1)))  # [s][a][s']
MDP_REWARDS = ((1, 0), (0, 2))                          # [s][a]
MDP_DISCOUNT = Fraction(9, 10)


def _solve2(a, b, c, d, e, f):
    """[[a, b], [c, d]] x = [e, f] by Cramer's rule."""
    det = a * d - b * c
    if det == 0:
        raise ZeroDivisionError("singular policy system")
    return (e * d - b * f) / det, (a * f - e * c) / det


def policy_value(policy):
    """Exact value vector of a deterministic 2-state policy."""
    beta = MDP_DISCOUNT
    p = [MDP_TRANSITIONS[s][policy[s]] for s in (0, 1)]
    r = [Fraction(MDP_REWARDS[s][policy[s]]) for s in (0, 1)]
    # (I - beta P) V = r
    return _solve2(
        1 - beta * p[0][0], -beta * p[0][1],
        -beta * p[1][0], 1 - beta * p[1][1],
        r[0], r[1],
    )


def optimal_values():
    vals = [policy_value((a0, a1)) for a0 in (0, 1) for a1 in (0, 1)]
    return (max(v[0] for v in vals), max(v[1] for v in vals))


MDP_V_STAR = (Fraction(18), Fraction(20))


def backup_iteration(tol=1e-12, max_iter=2000):
    """Plain max-backup iteration from zero, python loops only."""
    v = [0.0, 0.0]
    beta = float(MDP_DISCOUNT)
    for _ in range(max_iter):
        nxt = []
        for s in (0, 1):
            best = -math.inf
            for a in (0, 1):
                q = MDP_REWARDS[s][a] + beta * sum(
                    MDP_TRANSITIONS[s][a][s2] * v[s2] for s2 in (0, 1)
                )
                best = max(best, q)
            nxt.append(best)
        if max(abs(x - y) for x, y in zip(nxt, v)) <= tol:
            return nxt
        v = nxt
    raise RuntimeError("backup iteration did not settle")


def one_backup(v):
    """Single Bellman backup of v, by hand."""
    out = []
    for s in (0, 1):
        out.append(max(
            MDP_REWARDS[s][a] + float(MDP_DISCOUNT) * sum(
                MDP_TRANSITIONS[s][a][s2] * v[s2] for s2 in (0, 1)
            )
            for a in (0, 1)
        ))
    return out


# ---------------------------------------------------------------------------
# claimed induction-step inequality, evaluated exactly
#
# (t+2)(t+2-2b)/(t+1)^2 <= 1 - 2b/(t+2).  Dividing both sides by the common
# positive factor (t+2-2b)/(t+2) shows LHS/RHS = ((t+2)/(t+1))^2 > 1, so the
# claim is false at every grid cell with 0 < b < 1; the count below checks
# the audit reports exactly that.


def induction_holds(beta, t):
    b = Fraction(beta).limit_denominator(10**6)
    lhs = Fraction(t + 2) * (t + 2 - 2 * b) / Fraction((t + 1) ** 2)
    rhs = 1 - 2 * b / Fraction(t + 2)
    return lhs <= rhs


def induction_violations(betas, ts):
    return sum(1 for b in betas for t in ts if not induction_holds(b, t))


DEFAULT_GRID_VIOLATIONS = 909  # 9 betas x 101 t values, all false


# ---------------------------------------------------------------------------
# adversarial perturbation magnitudes (squared-euclidean)
#
# Budget delta0 = 0.02 along unit direction [1, 0]: half squared norm of eta
# equals the budget, so eta = [0.2, 0]; alpha-scaled with alpha = 0.5 halves
# it to [0.1, 0].

ADVERSARIAL_UNSCALED = (0.2, 0.0)
ADVERSARIAL_SCALED = (0.1, 0.0)


# ---------------------------------------------------------------------------
# one-step envelope value
#
# Iterating e_{t+1} = (1 - 2 beta/(t+2)) e_t + (1 + C0) delta0 * 2/(t+2)
# once from e0 at t = 0 gives (1 - beta) e0 + (1 + C0) delta0.


def envelope_one_step(e0, beta, c0, delta0):
    return (1.0 - beta) * e0 + (1.0 + c0) * delta0


# ---------------------------------------------------------------------------
# step-by-step references for the batched audits and contraction estimate
#
# Each audit reference returns the fields of the package's CheckRecord as a
# dict.  A step's violation v wins only if v > worst, so the first of tied
# steps is reported and a nan is never the worst.


def descent_loop(trace, g, op, bc, tol=1e-10):
    s_star = np.asarray(trace.s_star, dtype=float)
    worst, worst_t = -math.inf, -1
    for t in range(trace.iterations):
        s = trace.states[t]
        al = float(trace.alpha[t])
        ts = op.apply(s, t)
        delta = ts - s
        x = (1.0 - al) * s + al * ts
        lhs = g.divergence(x, s_star)
        rhs = bc.theta(al) * float(trace.e[t]) + 0.5 * bc.L * al * al * float(np.dot(delta, delta))
        v = lhs - rhs
        if v > worst:
            worst, worst_t = v, t
    violation = max(worst, 0.0)
    return dict(name="descent", worst_violation=violation, worst_t=worst_t, tol=tol,
                passed=violation <= tol)


def cross_term_loop(trace, g, bc, tol=1e-10):
    s_star = np.asarray(trace.s_star, dtype=float)
    grad_star = g.grad(s_star)
    zero = np.zeros(g.dim)
    worst, worst_t = -math.inf, -1
    n_noisy = 0
    for t in range(trace.iterations):
        eta = trace.etas[t]
        if not np.any(eta):
            continue
        n_noisy += 1
        x = trace.states[t + 1] - eta
        lhs = abs(float(np.dot(g.grad(x) - grad_star, eta)))
        rhs = 0.5 * g.divergence(x, s_star) + bc.C0 * g.divergence(eta, zero)
        v = lhs - rhs
        if v > worst:
            worst, worst_t = v, t
    if n_noisy == 0:
        return dict(name="cross-term", worst_violation=0.0, worst_t=-1, tol=tol, passed=True,
                    vacuous=True, note="no nonzero perturbations in trace")
    violation = max(worst, 0.0)
    return dict(name="cross-term", worst_violation=violation, worst_t=worst_t, tol=tol,
                passed=violation <= tol, note=f"{n_noisy} noisy steps")


def recursion_loop(trace, bc):
    """(beta_max, record fields); the smallest per-step bound on beta wins, the first on ties."""
    e = trace.e
    best = math.inf
    binding_t = -1
    feasible = True
    infeasible_t = -1
    for t in range(trace.iterations):
        n_t = bc.noise_term(t)
        if e[t] > 0:
            b = (e[t] - e[t + 1] + n_t) * (t + 2) / (2.0 * e[t])
            if b < best:
                best, binding_t = b, t
        elif e[t] <= 0 and e[t + 1] > n_t:  # a nan e_t bounds nothing
            feasible = False
            infeasible_t = t
    if not feasible:
        return 0.0, dict(
            name="recursion", worst_violation=float(e[infeasible_t + 1]), worst_t=infeasible_t,
            tol=0.0, passed=False,
            note="a zero-divergence step grows faster than the noise term; no beta >= 0 works",
        )
    beta_max = max(0.0, best) if binding_t >= 0 else math.inf
    return beta_max, dict(name="recursion", worst_violation=0.0, worst_t=binding_t, tol=0.0,
                          passed=beta_max > 0,
                          note=f"beta_max = {beta_max!r}, binding at t = {binding_t}")


def contraction_loop(op, g, n_pairs=256, rng_seed=0, skip_tol=1e-14):
    """max D(T s, T s') / D(s, s') over sampled pairs, one pair at a time."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    used = 0
    for _ in range(n_pairs):
        s1 = g.sample_point(rng)
        s2 = g.sample_point(rng)
        base = g.divergence(s1, s2)
        if base < skip_tol:
            continue
        worst = max(worst, g.divergence(op.apply(s1, 0), op.apply(s2, 0)) / base)
        used += 1
    if used == 0:
        raise ValueError("all sampled pairs were degenerate; cannot estimate contraction")
    return worst


# ---------------------------------------------------------------------------
# sample-by-sample references for the geometry certificates, the three-point
# spot check and the induction grid
#
# The loops certify_constants, the three-point audit and audit_induction_step
# ran before each became one array pass.  certify_loop draws s, r and t of a
# pair in turn; three_point_audit_loop draws one triple of indices at a time.
# A worst value is replaced only by a larger (or, for minima, smaller) one,
# so the first of tied samples is reported and a nan never is.


def three_point_loop(g, u, v, w):
    """|lhs - rhs| / max(1, |lhs|) of the three-point identity at one triple."""
    u = g.check_point(u, "u")
    v = g.check_point(v, "v")
    w = g.check_point(w, "w")
    lhs = g.divergence(u, w)
    rhs = g.divergence(v, w) + float(np.dot(g.grad(v) - g.grad(w), u - v)) + g.divergence(u, v)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


def certify_loop(g, n_pairs=1000, seed=0):
    rng = np.random.default_rng(seed)
    worst = {
        "divergence_min": np.inf,
        "strong_convexity_margin": np.inf,
        "smoothness_margin": np.inf,
        "mirror_inversion_rel": 0.0,
        "three_point_residual": 0.0,
    }
    for _ in range(n_pairs):
        s = g.sample_point(rng)
        r = g.sample_point(rng)
        d = s - r
        sq = 0.5 * float(np.dot(d, d))
        div = g.divergence(s, r)
        worst["divergence_min"] = min(worst["divergence_min"], div)
        worst["strong_convexity_margin"] = min(worst["strong_convexity_margin"], div - g.mu * sq)
        worst["smoothness_margin"] = min(worst["smoothness_margin"], g.L * sq - div)
        back = g.mirror(g.grad(s))
        worst["mirror_inversion_rel"] = max(
            worst["mirror_inversion_rel"],
            float(np.abs(back - s).max()) / max(1.0, float(np.abs(s).max())),
        )
        t = g.sample_point(rng)
        worst["three_point_residual"] = max(worst["three_point_residual"], three_point_loop(g, s, r, t))
    return worst


def three_point_audit_loop(trace, g, tol, n_triples=100, seed=0):
    rng = np.random.default_rng(seed)
    n = trace.states.shape[0]
    worst, worst_t = 0.0, -1
    for _ in range(n_triples):
        i, j, k = rng.integers(0, n, size=3)
        r = three_point_loop(g, trace.states[i], trace.states[j], trace.states[k])
        if r > worst:
            worst, worst_t = r, int(i)
    return dict(name="three-point-identity", worst_violation=worst, worst_t=worst_t, tol=tol,
                passed=worst <= tol)


def induction_loop(beta_grid, t_grid, tol=1e-12):
    """The truth table of the induction-step inequality, one beta at a time."""
    holds = np.empty((beta_grid.size, t_grid.size), dtype=bool)
    for i, beta in enumerate(beta_grid):
        tt = t_grid.astype(float)
        lhs = (tt + 2) * (tt + 2 - 2 * beta) / (tt + 1) ** 2
        rhs = 1.0 - 2.0 * beta / (tt + 2)
        holds[i] = lhs <= rhs + tol
    return holds


# ---------------------------------------------------------------------------
# step-by-step reference for the whole averaged loop
#
# The checked loop the engine ran before it recorded e_t and ||T(s_t) - s_t||^2
# in blocks: every step evaluates the public, checked divergence and
# projection of the geometry in cfg, and perturbations are drawn by a frozen
# copy of the sampler.  A failure is a RunFailure with the engine's message
# and iteration.


class RunFailure(RuntimeError):
    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


def _start_loop(cfg, contraction=False):
    """s_star and the projected s0; a domain error here fails the run at t = -1."""
    g, op = cfg.geometry, cfg.operator
    try:
        s_star = op.fixed_point(geometry=g)
        g.check_point(s_star, "fixed point")
        s = g.project(g.check_point(np.asarray(cfg.s0, dtype=float), "s0"))
        if contraction:
            contraction_loop(op, g, 256, cfg.seed + 1, 1e-14)
    except ValueError as exc:
        if type(exc).__name__ != "DomainError":
            raise
        raise RunFailure(f"operator is incompatible with the geometry's domain: {exc}", -1) from exc
    return s_star, s


def _settle_loop(g, s_next, t):
    if not np.all(np.isfinite(s_next)):
        raise RunFailure(f"non-finite state at iteration {t}", t)
    try:
        return g.project(s_next)
    except ValueError as exc:
        raise RunFailure(f"domain escape at iteration {t}: {exc}", t) from exc


def _unit_direction_loop(dim, rng):
    while True:
        d = rng.standard_normal(dim)
        n = float(np.linalg.norm(d))
        if n > 1e-12:
            return d / n


def perturbation_loop(pm, g, s_t, s_star, e_t, alpha_t, rng):
    """eta for one step: direction, then budget fraction, scaled to its divergence target."""
    zero = np.zeros(g.dim)
    b = pm.delta0 + pm.kappa * e_t
    if b <= 0:
        return zero
    if pm.mode == "random":
        direction = _unit_direction_loop(g.dim, rng)
        u = rng.uniform()
        target = u * u * b
    else:
        d = s_t - s_star
        norm = float(np.linalg.norm(d))
        direction = _unit_direction_loop(g.dim, rng) if norm == 0.0 else d / norm
        target = b
    if target <= 0:
        return zero
    eta = direction * np.sqrt(target / g.divergence(direction, zero))
    if pm.injection == "scaled":
        eta = eta * alpha_t
    return eta


def run_loop(cfg):
    """Arrays of the run cfg describes: e, alpha, delta_norm_sq, eta_div, states, etas, final_state."""
    g, op, sched, pm = cfg.geometry, cfg.operator, cfg.schedule, cfg.perturbation
    T = cfg.iterations
    s_star, s = _start_loop(cfg, contraction=True)
    rng = np.random.default_rng(cfg.seed)
    noisy = not pm.is_zero
    e, alpha, delta_sq, eta_div = np.empty(T + 1), np.empty(T + 1), np.empty(T + 1), np.zeros(T + 1)
    states = np.empty((T + 1, g.dim)) if cfg.retain_states else None
    etas = np.zeros((T, g.dim)) if cfg.retain_states else None
    zero = np.zeros(g.dim)
    for t in range(T + 1):
        e[t] = e_t = g.divergence(s, s_star)
        alpha[t] = al = sched.alpha(t)
        ts = op.apply(s, t)
        delta = ts - s
        delta_sq[t] = float(np.dot(delta, delta))
        if states is not None:
            states[t] = s
        if t == T:
            break
        s_next = (1.0 - al) * s + al * ts
        if noisy:
            eta = perturbation_loop(pm, g, s, s_star, e_t, al, rng)
            if np.any(eta):
                eta_div[t] = g.divergence(eta, zero)
            if etas is not None:
                etas[t] = eta
            s_next = s_next + eta
        s = _settle_loop(g, s_next, t)
    return dict(e=e, alpha=alpha, delta_norm_sq=delta_sq, eta_div=eta_div, states=states, etas=etas,
                final_state=s)


def passages_loop(cfg, eps_list, cap):
    """First t <= cap with D(s_t, s_star) <= eps for each eps of a clean run from s0; -1 if none."""
    g, op, sched = cfg.geometry, cfg.operator, cfg.schedule
    s_star, s = _start_loop(cfg)
    t, d = 0, g.divergence(s, s_star)
    found = {}
    while True:
        for eps in eps_list:
            if eps not in found and d <= eps:
                found[eps] = t
        if len(found) == len(set(eps_list)) or t >= cap:
            return [found.get(eps, -1) for eps in eps_list]
        al = sched.alpha(t)
        s = _settle_loop(g, (1.0 - al) * s + al * op.apply(s, t), t)
        t += 1
        d = g.divergence(s, s_star)
        if not math.isfinite(d):
            raise RunFailure(f"non-finite divergence at iteration {t}", t)


# ---------------------------------------------------------------------------
# trace.csv and run directories, row by row
#
# The csv-module writer and reader the harness used before its blockwise
# formatting and np.loadtxt parse, and the Trace fields and meta that the
# audit rebuilt from a run directory by hand.  They fix the bytes of
# trace.csv and the bits and dtypes of every column read back.

TRACE_HEADER = ["t", "e_t", "a_t", "alpha_t", "delta_norm_sq", "eta_div"]


def _fmt(x):
    return format(float(x), ".16e")


def write_trace_rows(path, trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for i in range(len(trace)):
            w.writerow([
                int(trace.t[i]),
                _fmt(trace.e[i]),
                _fmt(trace.a[i]),
                _fmt(trace.alpha[i]),
                _fmt(trace.delta_norm_sq[i]),
                _fmt(trace.eta_div[i]),
            ])


def read_trace_rows(path):
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != TRACE_HEADER:
            raise ValueError(f"{path} has header {header}, expected {TRACE_HEADER}")
        rows = [row for row in r]
    cols = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(TRACE_HEADER)}
    cols["t"] = cols["t"].astype(int)
    return cols


def load_run_fields(run_dir):
    """Trace fields and meta of a run directory, as the audit assembled them."""
    cols = read_trace_rows(run_dir / "trace.csv")
    summary = json.loads((run_dir / "summary.json").read_text())
    meta = {
        "config_digest": summary.get("config_digest"),
        "seed": summary.get("seed"),
        "gamma_hat": summary.get("gamma_hat"),
        "s_star": summary.get("s_star"),
        "warnings": summary.get("warnings", []),
    }
    states = etas = None
    states_path = run_dir / "states.npz"
    if states_path.exists():
        with np.load(states_path) as npz:
            states = npz["states"]
            etas = npz["etas"]
    return dict(
        t=cols["t"], e=cols["e_t"], a=cols["a_t"], alpha=cols["alpha_t"],
        delta_norm_sq=cols["delta_norm_sq"], eta_div=cols["eta_div"],
        states=states, etas=etas, meta=meta,
    )
