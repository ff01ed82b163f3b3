import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from bregiter.analysis import (
    BoundConstants,
    CheckRecord,
    _audit_three_point,
    audit_cross_term,
    audit_descent,
    audit_induction_step,
    audit_recursion,
    build_audit_report,
    compare_feedback_feedforward,
    fit_rate,
    gronwall_envelope,
    measure_constants,
)
from bregiter.config import from_dict
from bregiter.engine import Trace, run
from bregiter.geometry import SquaredEuclidean
from bregiter.operators import AffineColinear, estimate_contraction


def colinear_config(**overrides):
    raw = {
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0, 0.0],
        "iterations": 1000,
        "seed": 1,
    }
    raw.update(overrides)
    return from_dict(raw)


def noisy_config(**overrides):
    return colinear_config(
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"},
        **overrides,
    )


# ---------------------------------------------------------------------------
# constants


def test_euclidean_constants_closed_form():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=1.0, L=1.0)
    assert bc.c_sc == 1.0
    assert bc.K == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert bc.C0 == pytest.approx(4.0, abs=1e-12)


def test_constants_derive_from_mu_and_l():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=2.0, L=3.0)
    assert (bc.c_sc, bc.K, bc.C0) == (2.0, 1.0, 9.0)
    with pytest.raises(TypeError, match="C0"):
        BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=1.0, L=1.0, C0=3.0)


def test_theta_formula():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=1.0, L=1.0)
    assert bc.theta(1.0) == pytest.approx(0.25)
    assert bc.theta(0.5) == pytest.approx(0.625)


def test_measured_constants_from_trace():
    cfg = colinear_config(iterations=100)
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    assert bc.gamma_hat == pytest.approx(0.25, abs=1e-9)
    # colinear: ||Delta_t||^2 = (1-gamma)^2 ||s-s*||^2 = 2 (1-gamma)^2 e_t
    assert bc.M == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# rate fitting


@pytest.mark.parametrize("p", [1, 2, 3])
def test_fit_rate_recovers_power(p):
    t = np.arange(0, 5001)
    e = 2.5 / (t + 1.0) ** p
    fit = fit_rate(e, window=(100, 5000))
    assert fit.slope == pytest.approx(-p, abs=1e-6)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.power_law


def test_fit_rate_on_trace_window_example():
    cfg = colinear_config(iterations=10_000)
    fit = fit_rate(run(cfg), window=(100, 10_000))
    assert fit.slope == pytest.approx(-2.0, abs=1e-6)


def test_fit_rate_constant_sequence():
    fit = fit_rate(np.full(200, 0.7), window=(1, 199))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_geometric_sequence_not_power_law():
    t = np.arange(0, 2001)
    fit = fit_rate(0.8**t, window=(100, 2000))
    assert fit.slope < -10
    assert not fit.power_law


def test_fit_rate_truncates_at_zero_rows():
    e = np.concatenate([2.5 / (np.arange(1, 101) ** 2), np.zeros(100)])
    fit = fit_rate(e, window=(10, 199))
    assert fit.truncated
    assert fit.t_hi == 99


def test_fit_rate_needs_ten_points():
    with pytest.raises(ValueError):
        fit_rate(np.ones(200), window=(5, 12))


# ---------------------------------------------------------------------------
# descent audit


def test_descent_holds_exactly_for_colinear():
    cfg = colinear_config(iterations=500)
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    rec = audit_descent(tr, cfg.geometry, cfg.operator, bc)
    assert rec.passed
    assert rec.worst_violation == 0.0


def test_descent_reports_on_rotation():
    cfg = colinear_config(
        operator={"kind": "affine-rotation",
                  "params": {"gamma": 0.8, "theta": 0.5235987755982988, "target": [0.0, 0.0]}},
        s0=[1.0, 0.0],
        iterations=1000,
    )
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    rec = audit_descent(tr, cfg.geometry, cfg.operator, bc)
    assert math.isfinite(rec.worst_violation)
    assert rec.worst_violation >= 0.0


def test_descent_requires_states():
    cfg = colinear_config(iterations=50, retain_states=False)
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    with pytest.raises(ValueError):
        audit_descent(tr, cfg.geometry, cfg.operator, bc)


# ---------------------------------------------------------------------------
# cross-term audit


def test_cross_term_vacuous_without_noise():
    cfg = colinear_config(iterations=50)
    tr = run(cfg)
    rec = audit_cross_term(tr, cfg.geometry, measure_constants(tr, cfg))
    assert rec.vacuous and rec.passed


def test_cross_term_zero_violation_on_noisy_euclidean():
    cfg = noisy_config(iterations=1000)
    tr = run(cfg)
    rec = audit_cross_term(tr, cfg.geometry, measure_constants(tr, cfg))
    assert not rec.vacuous
    assert rec.worst_violation == 0.0
    assert rec.passed


def test_cross_term_zero_violation_on_quadratic():
    cfg = colinear_config(
        geometry={"kind": "quadratic", "params": {"a": [[2.0, 0.5], [0.5, 1.0]]}, "dim": 2},
        perturbation={"mode": "adversarial", "delta0": 1e-4, "kappa": 0.1, "injection": "scaled"},
        iterations=1000,
    )
    tr = run(cfg)
    rec = audit_cross_term(tr, cfg.geometry, measure_constants(tr, cfg))
    assert rec.worst_violation == 0.0


# ---------------------------------------------------------------------------
# recursion audit


def test_recursion_beta_max_is_three_quarters():
    cfg = colinear_config(iterations=1000)
    tr = run(cfg)
    beta_max, rec = audit_recursion(tr, measure_constants(tr, cfg))
    assert beta_max == pytest.approx(float(oracles.BETA_MAX), abs=1e-9)
    assert rec.passed


def test_recursion_per_step_bound_matches_oracle():
    # the binding constraint is t = 0: beta <= (2t+3)/(2(t+2)) minimized there
    assert float(oracles.per_step_beta_bound(0)) == 0.75
    assert min(float(oracles.per_step_beta_bound(t)) for t in range(500)) == 0.75


def test_recursion_reports_zero_beta_without_failing_loudly():
    # growing error sequence forces beta <= 0 at some step
    cfg = noisy_config(iterations=2000)
    tr = run(cfg)
    beta_max, rec = audit_recursion(tr, measure_constants(tr, cfg))
    assert beta_max == 0.0
    assert not rec.passed


def test_recursion_constant_schedule_single_contraction():
    cfg = colinear_config(schedule={"kind": "constant", "params": {"c": 1.0}}, iterations=50)
    tr = run(cfg)
    beta_max, _ = audit_recursion(tr, measure_constants(tr, cfg))
    # plain contraction: e_{t+1} = gamma^2 e_t, binding at t = 0:
    # beta <= (1 - 0.25) * 2 / 2 = 0.75
    assert beta_max == pytest.approx(0.75, abs=1e-9)


# ---------------------------------------------------------------------------
# induction-step audit


def test_induction_step_worked_example():
    table = audit_induction_step(beta_grid=[0.25], t_grid=[0])
    # LHS = 2 * 1.5 / 1 = 3, RHS = 0.75: claim false
    assert not table.holds[0, 0]
    assert table.n_violations == 1


def test_induction_step_false_at_beta_zero():
    table = audit_induction_step(beta_grid=[0.0], t_grid=list(range(50)))
    assert table.n_violations == 50


def test_induction_step_default_grid_count_matches_oracle():
    table = audit_induction_step()
    betas = [0.1 + 0.1 * i for i in range(9)]
    expected = oracles.induction_violations(betas, range(101))
    assert table.n_total == 909
    assert table.n_violations == expected == oracles.DEFAULT_GRID_VIOLATIONS


@pytest.mark.parametrize("grids", [(None, None), ([-1.0, 0.0, 0.5, 1.0, 2.5, 7.0], [0, 1, 2, 5, 50, 10**6])],
                         ids=["default", "custom"])
def test_induction_table_matches_the_beta_loop(grids):
    table = audit_induction_step(*grids)
    assert np.array_equal(table.holds, oracles.induction_loop(table.beta_grid, table.t_grid))
    if grids[0] is not None:  # beta >= 1 makes some cells hold
        assert 0 < table.n_violations < table.n_total


# ---------------------------------------------------------------------------
# envelope


def test_envelope_one_step_value():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.1, mu=1.0, L=1.0, beta=0.75)
    env, closed = gronwall_envelope(2.5, bc, T=1)
    assert env[1] == pytest.approx(oracles.envelope_one_step(2.5, 0.75, 4.0, 0.1), rel=1e-12)
    assert closed[0] == pytest.approx(2.5 + 2.0 * (1 + 4.0) * 0.1 / 0.75, rel=1e-12)


def test_envelope_noise_free_closed_form():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=1.0, L=1.0, beta=0.75)
    env, closed = gronwall_envelope(2.5, bc, T=100)
    t = np.arange(101)
    np.testing.assert_allclose(closed, 2.5 / (t + 1.0) ** 2, rtol=1e-12)
    # iterated envelope: product of (1 - 1.5/(k+2))
    prod = 2.5
    for k in range(100):
        prod *= 1.0 - 1.5 / (k + 2)
    assert env[100] == pytest.approx(prod, rel=1e-12)


def test_envelope_requires_positive_beta():
    bc = BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=0.0, mu=1.0, L=1.0, beta=0.0)
    with pytest.raises(ValueError):
        gronwall_envelope(2.5, bc, T=10)


def test_envelope_dominates_trace_at_beta_max():
    cfg = colinear_config(iterations=1000)
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    beta_max, _ = audit_recursion(tr, bc)
    from dataclasses import replace

    env, _ = gronwall_envelope(float(tr.e[0]), replace(bc, beta=beta_max), T=tr.iterations)
    assert np.all(env >= tr.e - 1e-12)


# ---------------------------------------------------------------------------
# feedback vs feedforward


def test_compare_examples():
    cfg = colinear_config(iterations=10)
    c4 = compare_feedback_feedforward(cfg, 1e-4)
    assert (c4.t_feedback, c4.d_feedforward) == (oracles.ITERS_1E4, oracles.DEPTH_1E4)
    c6 = compare_feedback_feedforward(cfg, 1e-6)
    assert (c6.t_feedback, c6.d_feedforward) == (oracles.ITERS_1E6, oracles.DEPTH_1E6)
    assert not c4.censored


def test_compare_trivial_when_eps_exceeds_initial_error():
    cfg = colinear_config(iterations=10)
    c = compare_feedback_feedforward(cfg, 10.0)
    assert (c.t_feedback, c.d_feedforward) == (0, 0)


def test_compare_monotone_in_eps():
    cfg = colinear_config(iterations=10)
    pairs = [compare_feedback_feedforward(cfg, eps) for eps in (1e-2, 1e-4, 1e-6)]
    for a, b in zip(pairs, pairs[1:]):
        assert b.t_feedback >= a.t_feedback
        assert b.d_feedforward >= a.d_feedforward


def test_compare_censoring():
    cfg = colinear_config(iterations=10)
    c = compare_feedback_feedforward(cfg, 1e-6, cap=50)
    assert c.censored
    assert c.t_feedback == -1


# ---------------------------------------------------------------------------
# full report


def test_report_on_clean_run_passes_all_checks():
    cfg = colinear_config(iterations=500)
    tr = run(cfg)
    rep = build_audit_report(tr, cfg)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["three-point-identity"].passed
    assert by_name["descent"].passed
    assert by_name["cross-term"].vacuous
    assert by_name["recursion"].passed
    assert by_name["envelope-domination"].passed
    assert rep.beta_max == pytest.approx(0.75, abs=1e-9)
    assert rep.induction.n_violations == oracles.DEFAULT_GRID_VIOLATIONS


def test_report_without_states_skips_state_audits():
    cfg = colinear_config(iterations=100, retain_states=False)
    tr = run(cfg)
    rep = build_audit_report(tr, cfg)
    names = {c.name for c in rep.checks}
    assert "descent" not in names and "three-point-identity" not in names
    assert "recursion" in names


def test_report_serializes_to_plain_json_types():
    import json

    cfg = noisy_config(iterations=200)
    tr = run(cfg)
    rep = build_audit_report(tr, cfg)
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert "cross-term" in text


# ---------------------------------------------------------------------------
# batched audits and contraction estimate against step-by-step replays

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
#: shipped configs that retain states; capped at 3000 steps to keep the suite quick
STATEFUL = [n for n in SHIPPED if json.loads((CONFIG_DIR / f"{n}.json").read_text()).get("retain_states")]


def shipped_config(name, **changes):
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw.pop("sweep", None)
    raw.update(changes)
    return from_dict(raw)


def assert_audits_match_loops(tr, g, op, bc):
    got, want = _audit_three_point(tr, g), oracles.three_point_audit_loop(tr, g, tol=1e-9)
    assert got == CheckRecord(**want) and repr(got.worst_violation) == repr(want["worst_violation"])
    assert audit_descent(tr, g, op, bc) == CheckRecord(**oracles.descent_loop(tr, g, op, bc))
    assert audit_cross_term(tr, g, bc) == CheckRecord(**oracles.cross_term_loop(tr, g, bc))
    beta_max, rec = audit_recursion(tr, bc)
    loop_beta, loop_rec = oracles.recursion_loop(tr, bc)
    assert rec == CheckRecord(**loop_rec)
    assert beta_max == loop_beta and repr(beta_max) == repr(loop_beta)


def test_stateful_shipped_configs_are_covered():
    assert len(STATEFUL) >= 9  # every shipped config but bellman and sweep_gamma


@pytest.mark.parametrize("name", STATEFUL)
def test_batched_audits_match_step_loops_on_shipped_configs(name):
    cfg = shipped_config(name)
    cfg = shipped_config(name, iterations=min(cfg.iterations, 3000), rate_window=None)
    tr = run(cfg)
    assert_audits_match_loops(tr, cfg.geometry, cfg.operator, measure_constants(tr, cfg))


@pytest.mark.parametrize("name", SHIPPED)
def test_contraction_estimate_matches_pair_loop_on_shipped_configs(name):
    cfg = shipped_config(name)
    args = dict(n_pairs=256, rng_seed=cfg.seed + 1, skip_tol=1e-14)  # start-up's estimate
    got = estimate_contraction(cfg.operator, cfg.geometry, **args)
    assert got == oracles.contraction_loop(cfg.operator, cfg.geometry, **args)
    assert type(got) is float


def synthetic_trace(states, e, alpha, etas=None, s_star=(0.0, 0.0)):
    e = np.asarray(e, dtype=float)
    rows = np.arange(e.size)
    states = np.asarray(states, dtype=float)
    return Trace(
        t=rows, e=e, a=e * (rows + 1.0) ** 2, alpha=np.asarray(alpha, dtype=float),
        delta_norm_sq=np.zeros(e.size), eta_div=np.zeros(e.size), states=states,
        etas=np.zeros((e.size - 1, states.shape[1])) if etas is None else np.asarray(etas, dtype=float),
        s_star=np.asarray(s_star, dtype=float), gamma_hat=0.25,
    )


def synthetic_constants(delta0=0.0):
    return BoundConstants(gamma_hat=0.25, kappa=0.0, delta0=delta0, mu=1.0, L=1.0)


def test_descent_tie_reports_the_first_step():
    # rows 1 and 2 repeat one state with e = 0, so their violations are equal and largest
    tr = synthetic_trace([[1, 0], [3, 0], [3, 0], [1, 0], [0.5, 0]], [1, 0, 0, 1, 0.1], [0.5] * 5)
    g, op, bc = SquaredEuclidean(2), AffineColinear(0.5, [0.0, 0.0]), synthetic_constants()
    rec = audit_descent(tr, g, op, bc)
    assert rec.worst_t == 1 and rec.worst_violation > 0
    assert_audits_match_loops(tr, g, op, bc)


def test_cross_term_tie_reports_the_first_noisy_step():
    # with C0 = 4 the bound holds in this geometry; its margin lhs - rhs is largest, -0.01, at steps 0
    # and 2, which share x = s_{t+1} - eta = [0.2, 0] and eta = [0.1, 0]; step 3 has x = 0 and margin -2
    eta = [0.1, 0.0]
    tr = synthetic_trace([[0, 0], [0.3, 0], [1, 1], [0.3, 0], [1, 0]], [1, 1, 1, 1, 1], [0.5] * 5,
                         etas=[eta, [0, 0], eta, [1, 0]])
    g, op, bc = SquaredEuclidean(2), AffineColinear(0.5, [0.0, 0.0]), synthetic_constants()
    assert bc.C0 == pytest.approx(4.0)
    rec = audit_cross_term(tr, g, bc)
    assert rec.worst_t == 0 and rec.worst_violation == 0.0 and rec.passed and rec.note == "3 noisy steps"
    assert_audits_match_loops(tr, g, op, bc)


def test_recursion_tie_reports_the_first_binding_step():
    # bounds (1 - e_{t+1}/e_t)(t+2)/2: 0.5 at t = 0, 0.75 at t = 1, 0.5 at t = 2
    tr = synthetic_trace([[1, 0]] * 4, [1.0, 0.5, 0.25, 0.1875], [0.5] * 4)
    beta_max, rec = audit_recursion(tr, synthetic_constants())
    assert beta_max == 0.5 and rec.worst_t == 0
    assert_audits_match_loops(tr, SquaredEuclidean(2), AffineColinear(0.5, [0.0, 0.0]), synthetic_constants())


def test_recursion_infeasible_reports_the_last_zero_step():
    tr = synthetic_trace([[1, 0]] * 5, [0.0, 1.0, 0.0, 1.0, 0.5], [0.5] * 5)
    beta_max, rec = audit_recursion(tr, synthetic_constants())
    assert beta_max == 0.0 and rec.worst_t == 2 and not rec.passed
    assert rec == CheckRecord(**oracles.recursion_loop(tr, synthetic_constants())[1])


def test_audits_with_exactly_one_noisy_step():
    cfg = noisy_config(iterations=300)
    tr = run(cfg)
    kept = tr.etas[117].copy()
    tr.etas[:] = 0.0
    tr.etas[117] = kept
    bc = measure_constants(tr, cfg)
    rec = audit_cross_term(tr, cfg.geometry, bc)
    assert rec.note == "1 noisy steps" and rec.worst_t == 117
    assert_audits_match_loops(tr, cfg.geometry, cfg.operator, bc)


def test_audits_on_a_clean_trace():
    cfg = colinear_config(iterations=300)
    tr = run(cfg)
    bc = measure_constants(tr, cfg)
    assert audit_cross_term(tr, cfg.geometry, bc).vacuous
    assert_audits_match_loops(tr, cfg.geometry, cfg.operator, bc)


def test_audits_on_an_empty_trace():
    tr = synthetic_trace([[1, 0]], [0.5], [1.0])
    g, op, bc = SquaredEuclidean(2), AffineColinear(0.5, [0.0, 0.0]), synthetic_constants()
    assert audit_descent(tr, g, op, bc).worst_t == -1
    assert_audits_match_loops(tr, g, op, bc)


def test_contraction_skip_tol_masks_some_pairs():
    g, op = SquaredEuclidean(2), AffineColinear(0.5, [1.0, -1.0])
    pts = g.sample_point(np.random.default_rng(3), 2 * 64)
    bases = g.divergence(pts[0::2], pts[1::2])
    skip_tol = float(np.median(bases))
    assert 0 < np.sum(bases < skip_tol) < 64
    got = estimate_contraction(op, g, n_pairs=64, rng_seed=3, skip_tol=skip_tol)
    assert got == oracles.contraction_loop(op, g, n_pairs=64, rng_seed=3, skip_tol=skip_tol)


def test_contraction_all_pairs_degenerate():
    g, op = SquaredEuclidean(2), AffineColinear(0.5, [1.0, -1.0])
    for estimate in (estimate_contraction, oracles.contraction_loop):
        with pytest.raises(ValueError, match="all sampled pairs were degenerate"):
            estimate(op, g, n_pairs=16, rng_seed=0, skip_tol=np.inf)


def test_no_per_step_check_reports_a_nan_row():
    # row 2 has a nan e_t, and the finite state 1e308 that the step-1 perturbation -1e308 overflows
    # to inf - inf in the cross-term; e_3 = 0 keeps the recursion feasible after the nan
    tr = synthetic_trace([[1, 0], [0.5, 0], [1e308, 0], [0, 0], [0, 0]], [0.5, 0.125, np.nan, 0, 0],
                         [0.5] * 5, etas=[[0, 0], [-1e308, 0], [0, 0], [0.1, 0]])
    cfg = colinear_config(operator={"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [0.0, 0.0]}},
                          s0=[1.0, 0.0], iterations=4, retain_states=True)
    report = build_audit_report(tr, cfg)
    by_name = {c.name: c for c in report.checks}
    for name in ("descent", "cross-term", "recursion", "envelope-domination"):
        assert math.isfinite(by_name[name].worst_violation) and by_name[name].worst_t not in (-1, 2), name
    assert [by_name[name].worst_t for name in ("descent", "cross-term", "recursion")] == [3, 3, 0]
    envelope = by_name["envelope-domination"]
    assert (envelope.worst_violation, envelope.worst_t, envelope.passed) == (0.0, 0, True)


def test_a_nan_divergence_row_bounds_no_recursion_step():
    # a nan e_t is not a zero-divergence step: the recursion stays feasible and the envelope is checked
    cfg = shipped_config("affine_accel", iterations=300, rate_window=None)
    tr = run(cfg)
    tr.e[100] = np.nan
    report = build_audit_report(tr, cfg)
    by_name = {c.name: c for c in report.checks}
    loop_beta, loop_rec = oracles.recursion_loop(tr, report.constants)
    assert by_name["recursion"] == CheckRecord(**loop_rec) and report.beta_max == loop_beta
    assert by_name["recursion"].passed and by_name["recursion"].worst_t not in (99, 100)
    assert by_name["envelope-domination"].worst_t != 100


def test_a_nan_delta_row_leaves_the_empirical_m_to_the_other_rows():
    cfg = shipped_config("affine_accel", iterations=300, rate_window=None)
    tr = run(cfg)
    want = measure_constants(tr, cfg).M
    assert np.argmax(tr.delta_norm_sq[:-1] / tr.e[:-1]) != 10
    tr.delta_norm_sq[10] = np.nan
    assert measure_constants(tr, cfg).M == want
