import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bregiter import engine
from bregiter.config import from_dict
from bregiter.engine import (
    BLOCK,
    CENSORED,
    PASSAGE_CAP,
    EngineError,
    Schedule,
    _finite,
    iterations_to_epsilon,
    run,
)


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


# ---------------------------------------------------------------------------
# schedules


def test_accelerated_schedule_values():
    sched = Schedule("accelerated")
    assert sched.alpha(0) == 1.0
    assert sched.alpha(1) == pytest.approx(2 / 3, abs=1e-15)
    assert sched.alpha(2) == 0.5


def test_constant_schedule():
    sched = Schedule("constant", c=0.3)
    assert sched.alpha(0) == 0.3
    assert sched.alpha(10**6) == 0.3


def test_polynomial_schedule():
    sched = Schedule("polynomial", c=1.0, p=0.5)
    assert sched.alpha(0) == 1.0
    assert sched.alpha(3) == 0.5


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("constant", c=1.5)
    with pytest.raises(ValueError):
        Schedule("constant", c=0.0)
    with pytest.raises(ValueError):
        Schedule("warmup")


def test_alpha_in_unit_interval():
    for sched in (Schedule("accelerated"), Schedule("constant", c=1.0),
                  Schedule("polynomial", c=0.9, p=1.5)):
        for t in (0, 1, 5, 1000, 10**6):
            assert 0.0 < sched.alpha(t) <= 1.0


schedules = st.one_of(
    st.just(Schedule("accelerated")),
    st.builds(lambda c: Schedule("constant", c=c), st.floats(0.0, 1.0, exclude_min=True)),
    st.builds(lambda c, p: Schedule("polynomial", c=c, p=p), st.floats(0.0, 1.0, exclude_min=True),
              st.floats(0.0, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(schedules, st.integers(0, PASSAGE_CAP), st.integers(1, BLOCK))
@example(Schedule("polynomial", c=0.7, p=2000.0), 0, 40)  # (t + 1)^p overflows from t = 1 on
@example(Schedule("polynomial", c=0.7, p=2000.0), PASSAGE_CAP - 5, 6)
@example(Schedule("accelerated"), PASSAGE_CAP, BLOCK)
def test_the_step_sizes_of_a_block_have_the_bits_of_alpha(sched, t0, n):
    got = sched.alphas(t0, t0 + n)
    assert len(got) == n and all(type(al) is float for al in got)
    assert np.array(got).tobytes() == np.array([sched.alpha(t) for t in range(t0, t0 + n)]).tobytes()


# ---------------------------------------------------------------------------
# trace shape and ledger identities


def test_trace_length_and_meta():
    cfg = colinear_config(iterations=25)
    tr = run(cfg)
    assert len(tr) == 26
    assert tr.iterations == 25
    np.testing.assert_allclose(tr.s_star, [2.0, -1.0], atol=1e-15)
    assert type(tr.gamma_hat) is float and tr.warnings == []


def test_error_ledger_identity():
    tr = run(colinear_config(iterations=200))
    rel = np.abs(tr.a - tr.e * (tr.t + 1) ** 2) / np.maximum(1e-300, tr.a)
    assert rel.max() <= 1e-12


def test_first_three_errors_match_worked_values():
    tr = run(colinear_config(iterations=5))
    assert tr.e[0] == pytest.approx(2.5, abs=1e-15)
    assert tr.e[1] == pytest.approx(0.625, abs=1e-12)
    assert tr.e[2] == pytest.approx(2.5 / 9, abs=1e-12)


def test_closed_form_match_to_one_em_nine():
    tr = run(colinear_config(iterations=1000))
    t = np.arange(1001)
    closed = tr.e[0] / (t + 1) ** 2
    assert np.max(np.abs(tr.e - closed)) <= 1e-9 * tr.e[0]
    # independent product oracle at a few checkpoints
    for k in (1, 10, 500, 1000):
        assert tr.e[k] == pytest.approx(
            oracles.colinear_error_product(2.5, 0.5, k), rel=1e-9
        )


def test_ledger_constant_for_colinear():
    tr = run(colinear_config(iterations=500))
    np.testing.assert_allclose(tr.a, 2.5, rtol=1e-9)


def test_monotone_error_for_colinear():
    tr = run(colinear_config(iterations=500))
    assert np.all(np.diff(tr.e) <= 1e-15)


def test_fixed_point_absorption():
    tr = run(colinear_config(s0=[2.0, -1.0], iterations=50))
    np.testing.assert_array_equal(tr.e, np.zeros(51))


def test_states_retained_by_default_in_low_dimension():
    tr = run(colinear_config(iterations=10))
    assert tr.states is not None
    assert tr.states.shape == (11, 2)
    np.testing.assert_array_equal(tr.states[0], [0.0, 0.0])


def test_retention_can_be_disabled():
    tr = run(colinear_config(iterations=10, retain_states=False))
    assert tr.states is None and tr.etas is None


def test_bitwise_determinism():
    cfg = colinear_config(
        iterations=300,
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"},
    )
    t1, t2 = run(cfg), run(cfg)
    np.testing.assert_array_equal(t1.e, t2.e)
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.etas, t2.etas)


def test_noise_budget_recorded_in_trace():
    cfg = colinear_config(
        iterations=100,
        perturbation={"mode": "adversarial", "delta0": 1e-4, "kappa": 0.0, "injection": "unscaled"},
    )
    tr = run(cfg)
    assert tr.eta_div[:-1].max() <= 1e-4 + 1e-15
    assert tr.eta_div[:-1].min() > 0  # adversarial at full budget every step
    assert tr.eta_div[-1] == 0.0


def test_contraction_warning_recorded():
    cfg = from_dict({
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "bellman", "params": {
            "transitions": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
            "rewards": [[1.0, 0.0], [0.0, 2.0]],
            "discount": 0.9,
        }},
        "schedule": {"kind": "constant", "params": {"c": 1.0}},
        "s0": [0.0, 0.0],
        "iterations": 10,
        "seed": 1,
    })
    tr = run(cfg)
    assert any("contraction hypothesis" in w for w in tr.warnings)
    assert tr.gamma_hat > 1.0


def test_no_warning_for_certified_contraction():
    tr = run(colinear_config(iterations=10))
    assert tr.warnings == []


# ---------------------------------------------------------------------------
# failure paths


def test_incompatible_operator_domain_fails_cleanly():
    cfg = from_dict({
        "geometry": {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0, -0.5]}},
        "schedule": {"kind": "accelerated"},
        "s0": [1 / 3, 1 / 3, 1 / 3],
        "iterations": 10,
        "seed": 1,
    })
    with pytest.raises(EngineError) as exc_info:
        run(cfg)
    assert "domain" in str(exc_info.value)
    assert exc_info.value.state.shape == (3,)


#: gradient step -> (error, t): at 1e100 the divergence overflows at iteration 2 while s_2 is finite
#: (gamma_hat about 4e200); at 1e200 the contraction estimate itself overflows
DIVERGENT_STEPS = {
    1e100: ("non-finite divergence at iteration 2", 2),
    1e200: ("start-up failed: gamma_hat = inf is not finite", -1),
}


@pytest.mark.parametrize("step", DIVERGENT_STEPS)
def test_divergent_iteration_fails_with_state_dump(step):
    # enormous gradient step: the iterate overflows within a few steps
    cfg = from_dict({
        "geometry": {"kind": "squared-euclidean", "dim": 2},
        "operator": {"kind": "gradient-step", "params": {
            "a": [[2.0, 0.0], [0.0, 1.0]], "b": [2.0, 1.0], "step": step,
        }},
        "schedule": {"kind": "constant", "params": {"c": 1.0}},
        "s0": [0.0, 0.0],
        "iterations": 50,
        "seed": 1,
    })
    with pytest.raises(EngineError) as exc_info:
        run(cfg)
    assert (str(exc_info.value), exc_info.value.t) == DIVERGENT_STEPS[step]
    assert np.isfinite(exc_info.value.state).all()


# ---------------------------------------------------------------------------
# iterations_to_epsilon


def test_iterations_to_epsilon_examples():
    cfg = colinear_config(iterations=1)
    assert iterations_to_epsilon(cfg, 1e-4) == oracles.ITERS_1E4
    assert iterations_to_epsilon(cfg, 1e-6) == oracles.ITERS_1E6


def test_iterations_to_epsilon_sqrt_law():
    cfg = colinear_config(iterations=1)
    t1 = iterations_to_epsilon(cfg, 1e-4)
    t2 = iterations_to_epsilon(cfg, 1e-6)
    assert t2 / t1 == pytest.approx(10.0, rel=0.05)


def test_iterations_to_epsilon_zero_when_already_close():
    cfg = colinear_config(iterations=1)
    assert iterations_to_epsilon(cfg, 3.0) == 0


def test_iterations_to_epsilon_censored_at_cap():
    cfg = colinear_config(iterations=1)
    assert iterations_to_epsilon(cfg, 1e-6, cap=100) == CENSORED


def test_iterations_to_epsilon_rejects_noise():
    cfg = colinear_config(
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.0, "injection": "unscaled"}
    )
    with pytest.raises(ValueError):
        iterations_to_epsilon(cfg, 1e-4)


def test_iterations_to_epsilon_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        iterations_to_epsilon(colinear_config(), 0.0)


#: rows the step's finiteness check must judge as np.isfinite(x).all() does
FINITENESS_CASES = {
    "nan": [np.nan], "inf": [np.inf], "-inf": [-np.inf], "one-nan": [1.0, np.nan],
    "nan-inf": [np.nan, np.inf], "-inf-and-inf": [-np.inf, np.inf],
    "largest": [1e308, 1e308], "largest-both-signs": [1.7976931348623157e308, -1.7976931348623157e308],
    "-0": [-0.0], "0-and-0": [0.0, -0.0], "subnormals": [5e-324, -5e-324, 2.2250738585072014e-308 / 3],
    "plain": [1.0, 2.0], "1024-last-nan": np.r_[np.ones(1023), np.nan],
    "1024-last-inf": np.r_[np.ones(1023), -np.inf], "1024-finite": np.ones(1024),
}


@pytest.mark.parametrize("x", FINITENESS_CASES.values(), ids=FINITENESS_CASES)
def test_the_step_finiteness_check_agrees_with_isfinite_all(x):
    x = np.asarray(x, dtype=float)
    assert _finite(x) is bool(np.isfinite(x).all())


# ---------------------------------------------------------------------------
# drift repair per step

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name, repairs",
                         [("exp_gradient", True), ("affine_accel", False), ("quadratic_colinear", False)])
@pytest.mark.parametrize("seeds", [[1], [1, 2, 3]])
def test_a_step_calls_the_drift_repair_only_where_the_geometry_has_one(monkeypatch, name, repairs, seeds):
    # negative entropy repairs once per step (a batch in one call); the identity repair is never called
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = from_dict({**raw, "iterations": 50, "rate_window": None, "eps_list": []})
    g = cfg.geometry
    s_star, s, _ = engine._start(cfg)
    want = engine._loop(cfg, s_star, s, seeds)
    calls, depth = [], []

    def spy(x):  # counts the outer calls: a batch's repair calls itself on each row
        if not depth:
            calls.append(x.shape)
        depth.append(x)
        try:
            return type(g)._project(g, x)
        finally:
            depth.pop()

    monkeypatch.setattr(g, "_project", spy)
    got = engine._loop(cfg, s_star, s, seeds)
    assert calls == ([s.shape if len(seeds) == 1 else (len(seeds), g.dim)] * 50 if repairs else [])
    for a, b in zip(got, want):
        assert a.e.tobytes() == b.e.tobytes() and a.final_state.tobytes() == b.final_state.tobytes()


def test_an_engine_error_round_trips_through_pickle():
    exc = EngineError("non-finite state at iteration 4", 4, np.array([np.inf, -0.0, 1e-300, np.nan]))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is EngineError and (str(back), back.t, back.args) == (str(exc), 4, exc.args)
    assert back.state.dtype == exc.state.dtype and back.state.tobytes() == exc.state.tobytes()
