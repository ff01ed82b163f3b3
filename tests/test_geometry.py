import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter.geometry import (
    DomainError,
    NegativeEntropy,
    Quadratic,
    SquaredEuclidean,
    certify_constants,
    three_point_residual,
)

ALL_GEOMETRIES = [
    SquaredEuclidean(2),
    Quadratic(2, np.array([[2.0, 0.5], [0.5, 1.0]])),
    NegativeEntropy(3, rho=1e-6),
]


def _pair(g, rng):
    return g.sample_point(rng), g.sample_point(rng)


# ---------------------------------------------------------------------------
# worked divergence values


def test_euclidean_divergence_example():
    g = SquaredEuclidean(2)
    assert g.divergence([1.0, 0.0], [0.0, 0.0]) == 0.5


def test_entropy_divergence_identity_is_zero():
    g = NegativeEntropy(2, rho=1e-6)
    assert g.divergence([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_entropy_divergence_matches_kl_sum():
    g = NegativeEntropy(2, rho=1e-6)
    got = g.divergence([0.5, 0.5], [0.25, 0.75])
    assert got == pytest.approx(oracles.KL_EXAMPLE, abs=1e-15)


def test_entropy_divergence_random_points_match_oracle():
    g = NegativeEntropy(4, rho=1e-6)
    rng = np.random.default_rng(11)
    for _ in range(50):
        p, q = _pair(g, rng)
        assert g.divergence(p, q) == pytest.approx(oracles.kl_sum(p, q), rel=1e-12, abs=1e-15)


def test_quadratic_divergence_example():
    g = Quadratic(2, np.array([[2.0, 0.0], [0.0, 1.0]]))
    # 1/2 (s-r)^T A (s-r) with s-r = [1, -1]: 1/2 (2 + 1) = 1.5
    assert g.divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.5, abs=1e-15)


# ---------------------------------------------------------------------------
# gradients and mirrors


def test_euclidean_grad_is_identity():
    g = SquaredEuclidean(2)
    np.testing.assert_array_equal(g.grad([3.0, -1.0]), [3.0, -1.0])


def test_quadratic_grad_example():
    g = Quadratic(2, np.array([[2.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(g.grad([1.0, 1.0]), [2.0, 1.0], atol=1e-15)


def test_entropy_grad_example():
    g = NegativeEntropy(2, rho=1e-6)
    s = [math.exp(-1.0), 1.0 - math.exp(-1.0)]
    assert g.grad(s)[0] == pytest.approx(0.0, abs=1e-15)


def test_euclidean_mirror_is_identity():
    g = SquaredEuclidean(2)
    np.testing.assert_array_equal(g.mirror([2.0, 5.0]), [2.0, 5.0])


def test_quadratic_mirror_example():
    g = Quadratic(2, np.array([[2.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(g.mirror([2.0, 1.0]), [1.0, 1.0], atol=1e-14)


def test_entropy_mirror_constant_dual_is_uniform():
    g = NegativeEntropy(3, rho=1e-6)
    for c in (-7.0, 0.0, 40.0):
        np.testing.assert_allclose(g.mirror([c, c, c]), [1 / 3] * 3, atol=1e-15)


@pytest.mark.parametrize("g", ALL_GEOMETRIES, ids=lambda g: g.kind)
def test_mirror_inverts_grad(g):
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = g.sample_point(rng)
        back = g.mirror(g.grad(s))
        assert np.max(np.abs(back - s)) <= 1e-9 * max(1.0, float(np.max(np.abs(s))))


# ---------------------------------------------------------------------------
# three-point identity


@pytest.mark.parametrize("g", ALL_GEOMETRIES, ids=lambda g: g.kind)
def test_three_point_residual_degenerate_triple(g):
    rng = np.random.default_rng(1)
    u = g.sample_point(rng)
    assert three_point_residual(g, u, u, u) == pytest.approx(0.0, abs=1e-15)


def test_three_point_euclidean_exact_example():
    g = SquaredEuclidean(2)
    r = three_point_residual(g, [1.0, 0.0], [0.0, 1.0], [0.0, 0.0])
    assert r <= 1e-12


@pytest.mark.parametrize("g", ALL_GEOMETRIES, ids=lambda g: g.kind)
def test_three_point_residual_thousand_triples(g):
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        u, v = _pair(g, rng)
        w = g.sample_point(rng)
        worst = max(worst, three_point_residual(g, u, v, w))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# certified constants


@pytest.mark.parametrize("g", ALL_GEOMETRIES, ids=lambda g: g.kind)
def test_certified_margins(g):
    cert = certify_constants(g, n_pairs=1000, seed=0)
    assert cert["divergence_min"] >= -1e-12
    assert cert["strong_convexity_margin"] >= -1e-10
    assert cert["smoothness_margin"] >= -1e-10
    assert cert["mirror_inversion_rel"] <= 1e-9
    assert cert["three_point_residual"] <= 1e-9


@pytest.mark.parametrize("n_pairs", [0, 1, 7, 1000])
@pytest.mark.parametrize("g", ALL_GEOMETRIES, ids=lambda g: g.kind)
def test_certified_margins_match_the_pair_loop(g, n_pairs):
    for seed in (0, 3):
        got, want = certify_constants(g, n_pairs, seed), oracles.certify_loop(g, n_pairs, seed)
        assert got.keys() == want.keys()
        for key in want:
            assert repr(got[key]) == repr(want[key]) and type(got[key]) is float, key


def test_euclidean_constants():
    g = SquaredEuclidean(3)
    assert g.mu == 1.0 and g.L == 1.0


def test_quadratic_constants_are_extreme_eigenvalues():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = Quadratic(2, a)
    lo, hi = np.linalg.eigvalsh(a)
    assert g.mu == pytest.approx(lo) and g.L == pytest.approx(hi)


def test_entropy_constants():
    g = NegativeEntropy(3, rho=1e-3)
    assert g.mu == 1.0 and g.L == pytest.approx(1e3)


# ---------------------------------------------------------------------------
# rejection paths


def test_entropy_rejects_point_off_simplex():
    g = NegativeEntropy(3, rho=1e-6)
    with pytest.raises(DomainError):
        g.divergence([0.5, 0.5, 0.1], [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(DomainError):
        g.divergence([0.7, 0.3, 0.0], [1 / 3, 1 / 3, 1 / 3])


def test_entropy_rejects_below_floor():
    g = NegativeEntropy(2, rho=1e-3)
    with pytest.raises(DomainError):
        g.check_point([1e-5, 1.0 - 1e-5])


def test_dimension_mismatch_rejected():
    g = SquaredEuclidean(2)
    with pytest.raises(DomainError):
        g.divergence([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_quadratic_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        Quadratic(2, np.array([[1.0, 0.2], [0.1, 1.0]]))


def test_quadratic_rejects_indefinite_matrix():
    with pytest.raises(ValueError):
        Quadratic(2, np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_entropy_rejects_infeasible_floor():
    with pytest.raises(ValueError):
        NegativeEntropy(4, rho=0.3)  # rho*dim >= 1 leaves no interior


# ---------------------------------------------------------------------------
# projection


def test_entropy_projection_repairs_drift():
    g = NegativeEntropy(3, rho=1e-6)
    s = np.array([0.5, 0.3, 0.2]) * (1.0 + 3e-10)  # sum drifted off 1
    p = g.project(s)
    assert abs(p.sum() - 1.0) <= 1e-15
    g.check_point(p)


def test_entropy_projection_rejects_gross_escape():
    g = NegativeEntropy(3, rho=1e-6)
    with pytest.raises(DomainError):
        g.project(np.array([0.9, 0.4, -0.3]))


def test_euclidean_projection_is_identity():
    g = SquaredEuclidean(2)
    s = np.array([3.0, -4.0])
    np.testing.assert_array_equal(g.project(s), s)


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_divergence_nonnegative_on_sampled_pairs(seed):
    rng = np.random.default_rng(seed)
    for g in ALL_GEOMETRIES:
        s, r = _pair(g, rng)
        assert g.divergence(s, r) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
)
def test_euclidean_divergence_equals_half_squared_distance(s, r):
    g = SquaredEuclidean(2)
    assert g.divergence(s, r) == pytest.approx(oracles.half_sq_dist(s, r), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_strong_convexity_lower_bound(seed):
    rng = np.random.default_rng(seed)
    for g in ALL_GEOMETRIES:
        s, r = _pair(g, rng)
        gap = g.divergence(s, r) - 0.5 * g.mu * float(np.sum((np.asarray(s) - np.asarray(r)) ** 2))
        assert gap >= -1e-10
