"""Acceptance gate: every shipped capability checked at its stated tolerance.

Each check prints one PASS/FAIL line (run with -s to see them all).  These
are end-to-end checks against independent oracles, not unit tests; they are
deliberately redundant with the per-module suites.

Known red: the averaged engine clause of check 6.  The optimality backup of
the shipped 2-state decision process contracts in the sup norm but not in
the euclidean divergence (ratio about 1.62 on sampled pairs, direction
[1, 1]).  Under the averaged schedule the error along that direction decays
like t^(-0.4), so e_T at T = 1e5 sits near 4.6, far above the 1e-6 target.
The fixed-point half of the check passes; the engine half fails for the
instance itself, not for a bug in the engine, and is reported as found.
"""

import json
import time

import numpy as np
import pytest

import oracles
from bregiter.analysis import audit_recursion, fit_rate, gronwall_envelope, measure_constants
from bregiter.config import from_dict
from bregiter.engine import iterations_to_epsilon, run
from bregiter.geometry import NegativeEntropy, Quadratic, SquaredEuclidean, three_point_residual
from bregiter.harness import cmd_audit, cmd_run, cmd_sweep
from bregiter.operators import AffineColinear, AffineRotation, estimate_contraction

EUCLID2 = SquaredEuclidean(2)


def report(index, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {index:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def colinear_raw(**overrides):
    raw = {
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0, 0.0],
        "iterations": 10_000,
        "seed": 1,
    }
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def colinear_run():
    cfg = from_dict(colinear_raw())
    start = time.perf_counter()
    tr = run(cfg)
    elapsed = time.perf_counter() - start
    return cfg, tr, elapsed


def test_accept_1_accelerated_rate(colinear_run):
    cfg, tr, elapsed = colinear_run
    t = np.arange(len(tr))
    closed = tr.e[0] / (t + 1.0) ** 2
    closed_ok = bool(np.max(np.abs(tr.e - closed)) <= 1e-9 * tr.e[0])
    fit = fit_rate(tr, window=(1000, 10_000))
    slope_ok = abs(fit.slope + 2.0) <= 1e-3
    ledger_ok = bool(np.max(np.abs(tr.a - tr.a[0])) <= 1e-9)
    time_ok = elapsed < 1.0
    ok = report(
        1, "accelerated-rate",
        closed_ok and slope_ok and ledger_ok and time_ok,
        f"closed-form dev {np.max(np.abs(tr.e - closed)) / tr.e[0]:.2e}, "
        f"slope {fit.slope:.6f}, runtime {elapsed:.3f}s",
    )
    assert ok


def test_accept_2_iteration_law():
    cfg = from_dict(colinear_raw(iterations=1))
    t4 = iterations_to_epsilon(cfg, 1e-4)
    t6 = iterations_to_epsilon(cfg, 1e-6)
    ratio = t6 / t4
    ok = report(
        2, "iteration-count-law",
        t4 == oracles.ITERS_1E4 and t6 == oracles.ITERS_1E6 and abs(ratio - 10.0) <= 0.5,
        f"t(1e-4)={t4}, t(1e-6)={t6}, ratio {ratio:.3f}",
    )
    assert ok


def test_accept_3_recursion_and_envelope(colinear_run):
    cfg, tr, _ = colinear_run
    bc = measure_constants(tr, cfg)
    beta_max, rec = audit_recursion(tr, bc)
    beta_ok = abs(beta_max - 0.75) <= 1e-9
    from dataclasses import replace

    env, _ = gronwall_envelope(float(tr.e[0]), replace(bc, beta=0.75, delta0=0.0), tr.iterations)
    dominates = bool(np.all(env >= tr.e - 1e-12))
    ok = report(
        3, "recursion-audit",
        beta_ok and rec.passed and dominates,
        f"beta_max {beta_max:.12f}, envelope dominates: {dominates}",
    )
    assert ok


def test_accept_4_three_point_identity():
    worst = 0.0
    rng = np.random.default_rng(17)
    for g in (EUCLID2, Quadratic(2, np.array([[2.0, 0.5], [0.5, 1.0]])),
              NegativeEntropy(3, rho=1e-6)):
        for _ in range(1000):
            u, v, w = (g.sample_point(rng) for _ in range(3))
            worst = max(worst, three_point_residual(g, u, v, w))
    ok = report(4, "three-point-identity", worst <= 1e-9, f"worst residual {worst:.2e}")
    assert ok


def test_accept_5_contraction_certificates():
    got_colinear = estimate_contraction(
        AffineColinear(0.5, [2.0, -1.0]), EUCLID2, n_pairs=256, rng_seed=0
    )
    got_rotation = estimate_contraction(
        AffineRotation(0.8, 0.6, [0.0, 0.0]), EUCLID2, n_pairs=256, rng_seed=0
    )
    ok = report(
        5, "contraction-certificates",
        abs(got_colinear - 0.25) <= 0.01 and abs(got_rotation - 0.64) <= 0.01,
        f"colinear {got_colinear:.6f} (want 0.25), rotation {got_rotation:.6f} (want 0.64)",
    )
    assert ok


def test_accept_6_bellman_fixed_point_and_engine():
    raw = {
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "bellman", "params": {
            "transitions": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "rewards": [[1.0, 0.0], [0.0, 2.0]],
            "discount": 0.9,
        }},
        "schedule": {"kind": "accelerated"},
        "s0": [0.0, 0.0],
        "iterations": 100_000,
        "seed": 1,
        "retain_states": False,
    }
    cfg = from_dict(raw)
    v_star = cfg.operator.fixed_point()
    oracle = [float(x) for x in oracles.optimal_values()]
    fp_ok = bool(np.max(np.abs(v_star - np.array(oracle))) <= 1e-9)
    tr = run(cfg)
    e_final = float(tr.e[-1])
    engine_ok = e_final <= 1e-6
    ok = report(
        6, "bellman-fixed-point-and-engine",
        fp_ok and engine_ok,
        f"fixed point max dev {np.max(np.abs(v_star - np.array(oracle))):.2e}; "
        f"engine e_T {e_final:.3e} at T=1e5 vs 1e-6 target "
        f"(divergence ratio {tr.gamma_hat:.3f} >= 1: instance is not a "
        f"euclidean-divergence contraction, error decays ~t^-0.4)",
    )
    assert ok


def test_accept_7_noise_floor_report():
    tails = {}
    for injection in ("unscaled", "scaled"):
        per_seed = []
        for seed in (1, 2, 3):
            raw = colinear_raw(
                seed=seed,
                perturbation={"mode": "adversarial", "delta0": 1e-4, "kappa": 0.0,
                              "injection": injection},
                retain_states=False,
            )
            tr = run(from_dict(raw))
            per_seed.append(float(np.mean(tr.e[5000:10_001])))
        tails[injection] = per_seed
    cvs = {k: float(np.std(v) / np.mean(v)) for k, v in tails.items()}
    cv_ok = all(cv < 0.20 for cv in cvs.values())
    order_ok = max(tails["scaled"]) < min(tails["unscaled"])
    ok = report(
        7, "noise-floor-report",
        cv_ok and order_ok,
        f"tail means unscaled {np.mean(tails['unscaled']):.3e} "
        f"scaled {np.mean(tails['scaled']):.3e}, cvs {cvs['unscaled']:.3f}/{cvs['scaled']:.3f}",
    )
    assert ok


def test_accept_8_claim_audits_complete(tmp_path):
    raw = colinear_raw(
        iterations=2000,
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"},
        retain_states=True,
    )
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    run_status = cmd_run(str(cfg_path), str(out))
    audit_status = cmd_audit(str(out))
    rep = json.loads((out / "audit.json").read_text())
    checks = {c["name"]: c for c in rep["checks"]}
    cross_ok = checks["cross-term"]["worst_violation"] == 0.0 and not checks["cross-term"]["vacuous"]
    induction_ok = rep["induction"]["n_violations"] == oracles.DEFAULT_GRID_VIOLATIONS
    ok = report(
        8, "claim-audits-complete",
        run_status == 0 and audit_status == 0 and cross_ok and induction_ok,
        f"cross-term violation {checks['cross-term']['worst_violation']:.1e}, "
        f"induction violations {rep['induction']['n_violations']}/{rep['induction']['n_total']}, "
        f"exit {audit_status}",
    )
    assert ok


def test_accept_9_determinism(tmp_path):
    raw = colinear_raw(iterations=500)
    raw["sweep"] = {"operator.params.gamma": [0.25, 0.5, 0.75], "seed": [1, 2]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(raw))
    cmd_sweep(str(cfg_path), str(tmp_path / "s1"), parallel=1)
    cmd_sweep(str(cfg_path), str(tmp_path / "s4"), parallel=4)
    sweep_ok = (tmp_path / "s1" / "index.csv").read_bytes() == (tmp_path / "s4" / "index.csv").read_bytes()

    single = colinear_raw(iterations=500)
    run_path = tmp_path / "r.json"
    run_path.write_text(json.dumps(single))
    cmd_run(str(run_path), str(tmp_path / "a"))
    cmd_run(str(run_path), str(tmp_path / "b"))
    rerun_ok = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    ok = report(
        9, "determinism",
        sweep_ok and rerun_ok,
        f"sweep index identical: {sweep_ok}, rerun trace identical: {rerun_ok}",
    )
    assert ok
