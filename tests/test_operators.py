import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter.geometry import NegativeEntropy, SquaredEuclidean
from bregiter.operators import (
    AffineColinear,
    AffineRotation,
    Bellman,
    ExpGradientStep,
    GradientStep,
    estimate_contraction,
    unrolled_depth,
)

EUCLID2 = SquaredEuclidean(2)


def two_state_mdp():
    return Bellman(
        transitions=np.array(oracles.MDP_TRANSITIONS, dtype=float),
        rewards=np.array(oracles.MDP_REWARDS, dtype=float),
        discount=float(oracles.MDP_DISCOUNT),
    )


# ---------------------------------------------------------------------------
# apply


def test_colinear_apply_example():
    op = AffineColinear(0.5, [2.0, -1.0])
    np.testing.assert_allclose(op.apply([0.0, 0.0]), [1.0, -0.5], atol=1e-15)


def test_rotation_apply_quarter_turn():
    op = AffineRotation(0.8, math.pi / 2, [0.0, 0.0])
    np.testing.assert_allclose(op.apply([1.0, 0.0]), [0.0, 0.8], atol=1e-15)


def test_gradient_step_apply_example():
    op = GradientStep([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], 0.5)
    np.testing.assert_allclose(op.apply([0.0, 0.0]), [1.0, 0.5], atol=1e-15)


def test_bellman_apply_one_backup_from_zero():
    op = two_state_mdp()
    np.testing.assert_allclose(op.apply([0.0, 0.0]), [1.0, 2.0], atol=1e-15)


def test_bellman_apply_matches_hand_backup_on_random_v():
    op = two_state_mdp()
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=2) * 10
        np.testing.assert_allclose(op.apply(v), oracles.one_backup(list(v)), atol=1e-12)


def test_exp_gradient_step_stays_on_simplex():
    op = ExpGradientStep([0.5, 0.3, 0.2], 0.5)
    out = op.apply([1 / 3, 1 / 3, 1 / 3])
    assert abs(out.sum() - 1.0) <= 1e-12
    assert out.min() > 0


# ---------------------------------------------------------------------------
# fixed points


def test_rotation_fixed_point_is_target():
    op = AffineRotation(0.8, math.pi / 6, [0.0, 0.0])
    np.testing.assert_array_equal(op.fixed_point(), [0.0, 0.0])


def test_colinear_fixed_point_is_target():
    op = AffineColinear(0.5, [2.0, -1.0])
    np.testing.assert_array_equal(op.fixed_point(), [2.0, -1.0])


def test_gradient_step_fixed_point_solves_system():
    op = GradientStep([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], 0.5)
    np.testing.assert_allclose(op.fixed_point(), [1.0, 1.0], atol=1e-12)


def test_bellman_fixed_point_matches_policy_oracle():
    op = two_state_mdp()
    v = op.fixed_point()
    v_star = [float(x) for x in oracles.MDP_V_STAR]
    np.testing.assert_allclose(v, v_star, atol=1e-9)
    # cross-check the oracle itself against plain backup iteration
    np.testing.assert_allclose(oracles.backup_iteration(), v_star, atol=1e-10)


def test_exp_gradient_fixed_point_is_reference_distribution():
    op = ExpGradientStep([0.5, 0.3, 0.2], 0.5)
    g = NegativeEntropy(3, rho=1e-6)
    np.testing.assert_allclose(op.fixed_point(geometry=g), [0.5, 0.3, 0.2], atol=1e-9)


@pytest.mark.parametrize(
    "op,g",
    [
        (AffineColinear(0.5, [2.0, -1.0]), EUCLID2),
        (AffineRotation(0.8, 0.5, [1.0, 1.0]), EUCLID2),
        (GradientStep([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], 0.5), EUCLID2),
        (ExpGradientStep([0.5, 0.3, 0.2], 0.5), NegativeEntropy(3, rho=1e-6)),
        (two_state_mdp(), EUCLID2),
    ],
    ids=["colinear", "rotation", "gradient", "expgrad", "bellman"],
)
def test_fixed_point_consistency(op, g):
    s = op.fixed_point(geometry=g)
    for t in (0, 1, 7):
        assert g.divergence(op.apply(s, t), s) <= 1e-10


# ---------------------------------------------------------------------------
# contraction estimates


def test_colinear_contraction_is_gamma_squared():
    got = estimate_contraction(AffineColinear(0.5, [2.0, -1.0]), EUCLID2, n_pairs=256, rng_seed=0)
    assert got == pytest.approx(0.25, abs=1e-9)


def test_rotation_contraction_is_gamma_squared():
    got = estimate_contraction(AffineRotation(0.8, 0.6, [0.0, 0.0]), EUCLID2, n_pairs=256, rng_seed=0)
    assert got == pytest.approx(0.64, abs=1e-9)


def test_affine_contractions_within_declared_bound():
    for gamma in (0.3, 0.5, 0.9):
        got = estimate_contraction(AffineColinear(gamma, [1.0, 1.0]), EUCLID2, n_pairs=512, rng_seed=1)
        assert got <= gamma**2 + 0.01


def test_gradient_step_contraction_closed_form():
    # I - 0.5 A has eigenvalues 0 and 0.5; divergence ratio peaks at 0.25
    op = GradientStep([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], 0.5)
    got = estimate_contraction(op, EUCLID2, n_pairs=512, rng_seed=0)
    assert got <= 0.25 + 1e-9
    assert got >= 0.2  # sampled pairs get close to the worst direction


def test_bellman_euclidean_ratio_exceeds_one():
    # sup-norm contraction does not imply a euclidean divergence contraction:
    # pairs separated along the optimal policy's slow direction expand
    got = estimate_contraction(two_state_mdp(), EUCLID2, n_pairs=256, rng_seed=1)
    assert got > 1.0


def test_contraction_deterministic_in_seed():
    op = AffineRotation(0.8, 0.6, [0.0, 0.0])
    a = estimate_contraction(op, EUCLID2, n_pairs=128, rng_seed=42)
    b = estimate_contraction(op, EUCLID2, n_pairs=128, rng_seed=42)
    assert a == b


# ---------------------------------------------------------------------------
# unrolled depth


def test_unrolled_depth_examples():
    op = AffineColinear(0.5, [2.0, -1.0])
    assert unrolled_depth(op, EUCLID2, e0=2.5, eps=1e-4) == oracles.DEPTH_1E4
    assert unrolled_depth(op, EUCLID2, e0=2.5, eps=1e-6) == oracles.DEPTH_1E6


def test_unrolled_depth_zero_when_within_tolerance():
    op = AffineColinear(0.5, [2.0, -1.0])
    assert unrolled_depth(op, EUCLID2, e0=2.5, eps=3.0) == 0


def test_unrolled_depth_single_halving():
    assert oracles.unrolled_depth(1.0, 0.5, 0.5) == 1


def test_unrolled_depth_rejects_expansions():
    with pytest.raises(ValueError):
        unrolled_depth(two_state_mdp(), EUCLID2, e0=1.0, eps=0.1)


# ---------------------------------------------------------------------------
# construction-time validation


def test_colinear_rejects_gamma_at_one():
    with pytest.raises(ValueError):
        AffineColinear(1.0, [0.0, 0.0])


def test_gradient_step_rejects_bad_matrix():
    with pytest.raises(ValueError):
        GradientStep([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0], 0.1)  # indefinite
    with pytest.raises(ValueError):
        GradientStep([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)  # zero step


def test_bellman_rejects_bad_tables():
    t = np.array(oracles.MDP_TRANSITIONS, dtype=float)
    r = np.array(oracles.MDP_REWARDS, dtype=float)
    with pytest.raises(ValueError):
        Bellman(t * 0.5, r, 0.9)  # rows no longer sum to 1
    with pytest.raises(ValueError):
        Bellman(t, r, 1.0)  # discount at 1


# ---------------------------------------------------------------------------
# context sequences


def test_context_cycles():
    op = Bellman(np.full((2, 1, 2), 0.5), np.zeros((2, 1)), 0.5, context_y=[[1.0], [0.0]])
    assert np.array_equal(op.apply([0.0, 0.0], 0), [1.0, 1.0])
    assert np.array_equal(op.apply([0.0, 0.0], 1), [0.0, 0.0])
    assert np.array_equal(op.apply([0.0, 0.0], 2), [1.0, 1.0])


def test_bellman_context_shifts_rewards():
    op = Bellman(
        np.array(oracles.MDP_TRANSITIONS, dtype=float),
        np.array(oracles.MDP_REWARDS, dtype=float),
        0.9,
        context_y=[[[1.0, 1.0], [1.0, 1.0]]],
    )
    np.testing.assert_allclose(op.apply([0.0, 0.0], 0), [2.0, 3.0], atol=1e-15)


def test_bellman_fixed_point_carries_the_first_context(monkeypatch):
    op = Bellman(
        np.array(oracles.MDP_TRANSITIONS, dtype=float),
        np.array(oracles.MDP_REWARDS, dtype=float),
        0.9,
        context_y=[[1.0, 1.0]],
    )
    s_star = op.fixed_point()
    np.testing.assert_allclose(s_star, [28.0, 30.0], atol=1e-12)
    np.testing.assert_allclose(op.apply(s_star, 0), s_star, rtol=0, atol=1e-12)
    monkeypatch.setattr(Bellman, "ENUMERATION_LIMIT", 0)
    np.testing.assert_allclose(op.fixed_point(), s_star, rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=2),
)
def test_bellman_backup_is_monotone(v, bump):
    op = two_state_mdp()
    lo = np.array(v)
    hi = lo + np.array(bump)
    assert np.all(op.apply(lo) <= op.apply(hi) + 1e-12)


def test_bellman_iterative_fallback_agrees_with_enumeration():
    # 3 actions on 2 states: 9 deterministic policies, above the enumeration
    # limit, so fixed_point falls back to plain backup iteration.  A third
    # action duplicating action 1 leaves the optimal values unchanged.
    t2 = np.array(oracles.MDP_TRANSITIONS, dtype=float)
    r2 = np.array(oracles.MDP_REWARDS, dtype=float)
    t3 = np.concatenate([t2, t2[:, 1:2, :]], axis=1)
    r3 = np.concatenate([r2, r2[:, 1:2]], axis=1)
    op = Bellman(t3, r3, 0.9)
    assert op.n_actions**op.n_states > Bellman.ENUMERATION_LIMIT
    np.testing.assert_allclose(op.fixed_point(), [18.0, 20.0], atol=1e-6)


def test_gradient_step_spectral_sanity():
    # step below 2/L: iterating the bare operator converges to the solve
    op = GradientStep([[2.0, 0.0], [0.0, 1.0]], [2.0, 1.0], 0.9)
    s = np.array([10.0, -10.0])
    for _ in range(500):
        s = op.apply(s)
    np.testing.assert_allclose(s, op.fixed_point(), atol=1e-10)
