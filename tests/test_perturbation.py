import numpy as np
import pytest

import oracles
from bregiter.geometry import DomainError, NegativeEntropy, Quadratic, SquaredEuclidean
from bregiter.perturbation import PerturbationModel

EUCLID2 = SquaredEuclidean(2)
QUAD2 = Quadratic(2, np.array([[2.0, 0.5], [0.5, 1.0]]))


def _sample(pm, g, s_t, s_star, e_t, alpha_t=0.5, seed=0):
    return pm.sample(g, np.asarray(s_t, float), np.asarray(s_star, float), e_t, alpha_t,
                     np.random.default_rng(seed))


def test_zero_mode_emits_zero():
    pm = PerturbationModel("zero", 0.0, 0.0, "unscaled")
    eta = _sample(pm, EUCLID2, [1.0, 2.0], [0.0, 0.0], 2.5)
    np.testing.assert_array_equal(eta, [0.0, 0.0])
    assert pm.is_zero


def test_adversarial_example_unscaled():
    pm = PerturbationModel("adversarial", 0.02, 0.0, "unscaled")
    eta = _sample(pm, EUCLID2, [1.0, 0.0], [0.0, 0.0], 0.5)
    np.testing.assert_allclose(eta, oracles.ADVERSARIAL_UNSCALED, atol=1e-12)


def test_adversarial_example_scaled():
    pm = PerturbationModel("adversarial", 0.02, 0.0, "scaled")
    eta = _sample(pm, EUCLID2, [1.0, 0.0], [0.0, 0.0], 0.5, alpha_t=0.5)
    np.testing.assert_allclose(eta, oracles.ADVERSARIAL_SCALED, atol=1e-12)


def test_adversarial_exhausts_budget_exactly():
    pm = PerturbationModel("adversarial", 1e-3, 0.2, "unscaled")
    rng = np.random.default_rng(9)
    for _ in range(100):
        s_t = rng.normal(size=2)
        s_star = rng.normal(size=2)
        e_t = EUCLID2.divergence(s_t, s_star)
        eta = pm.sample(EUCLID2, s_t, s_star, e_t, 0.5, rng)
        np.testing.assert_allclose(
            EUCLID2.divergence(eta, np.zeros(2)), pm.budget(e_t), rtol=1e-12
        )


def test_adversarial_direction_points_away_from_fixed_point():
    pm = PerturbationModel("adversarial", 0.1, 0.0, "unscaled")
    eta = _sample(pm, EUCLID2, [2.0, 1.0], [1.0, 1.0], 0.5)
    assert float(np.dot(eta, [1.0, 0.0])) > 0


@pytest.mark.parametrize("g", [EUCLID2, QUAD2], ids=lambda g: g.kind)
def test_budget_compliance_ten_thousand_samples(g):
    rng = np.random.default_rng(77)
    worst = -np.inf
    for _ in range(10_000):
        mode = "random" if rng.random() < 0.5 else "adversarial"
        delta0 = float(rng.uniform(0, 1e-2))
        kappa = float(rng.uniform(0, 0.5))
        pm = PerturbationModel(mode, delta0, kappa, "unscaled")
        s_t = rng.normal(size=2)
        s_star = rng.normal(size=2)
        e_t = g.divergence(s_t, s_star)
        eta = pm.sample(g, s_t, s_star, e_t, 0.7, rng)
        worst = max(worst, g.divergence(eta, np.zeros(2)) - pm.budget(e_t))
    assert worst <= 1e-12


def test_scaled_injection_multiplies_by_alpha():
    pm_u = PerturbationModel("adversarial", 0.02, 0.0, "unscaled")
    pm_s = PerturbationModel("adversarial", 0.02, 0.0, "scaled")
    args = (EUCLID2, np.array([1.0, 0.0]), np.zeros(2), 0.5)
    eta_u = pm_u.sample(*args, 0.25, np.random.default_rng(0))
    eta_s = pm_s.sample(*args, 0.25, np.random.default_rng(0))
    np.testing.assert_allclose(eta_s, 0.25 * eta_u, atol=1e-15)


def test_undrawn_eta_is_the_geometry_read_only_zero():
    cases = [(PerturbationModel("zero"), EUCLID2), (PerturbationModel("random", 0.0, 0.3), QUAD2),
             (PerturbationModel("adversarial", 0.0, 0.3, "scaled"), EUCLID2)]
    for pm, g in cases:  # zero mode, then a zero budget
        eta = _sample(pm, g, [1.0, 1.0], [1.0, 1.0], 0.0)
        assert eta is g.zero
        with pytest.raises(ValueError, match="read-only"):
            eta[0] = 1.0
    np.testing.assert_array_equal(EUCLID2.zero, [0.0, 0.0])


def test_vanishes_at_fixed_point_with_zero_floor():
    for mode in ("random", "adversarial"):
        pm = PerturbationModel(mode, 0.0, 0.3, "unscaled")
        eta = _sample(pm, EUCLID2, [1.0, 1.0], [1.0, 1.0], 0.0)
        np.testing.assert_array_equal(eta, [0.0, 0.0])


def test_random_mode_respects_budget_distribution():
    pm = PerturbationModel("random", 1e-2, 0.0, "unscaled")
    rng = np.random.default_rng(5)
    divs = []
    for _ in range(2000):
        eta = pm.sample(EUCLID2, np.array([1.0, 0.0]), np.zeros(2), 0.5, 0.5, rng)
        divs.append(EUCLID2.divergence(eta, np.zeros(2)))
    divs = np.array(divs)
    assert divs.max() <= 1e-2 + 1e-12
    assert divs.min() < 1e-3  # u ~ U[0,1] reaches small magnitudes
    # E[u^2] = 1/3 for the divergence fraction
    assert np.mean(divs / 1e-2) == pytest.approx(1 / 3, abs=0.02)


def test_determinism_same_rng_state():
    pm = PerturbationModel("random", 1e-3, 0.1, "unscaled")
    a = _sample(pm, EUCLID2, [1.0, 2.0], [0.0, 0.0], 2.5, seed=123)
    b = _sample(pm, EUCLID2, [1.0, 2.0], [0.0, 0.0], 2.5, seed=123)
    np.testing.assert_array_equal(a, b)


def test_noisy_negative_entropy_rejected():
    pm = PerturbationModel("random", 1e-3, 0.0, "unscaled")
    g = NegativeEntropy(3, rho=1e-6)
    with pytest.raises(DomainError):
        pm.sample(g, np.full(3, 1 / 3), np.full(3, 1 / 3), 0.0, 0.5, np.random.default_rng(0))


def test_invalid_model_parameters_rejected():
    with pytest.raises(ValueError):
        PerturbationModel("gaussian", 0.0, 0.0, "unscaled")
    with pytest.raises(ValueError):
        PerturbationModel("random", -1e-3, 0.0, "unscaled")
    with pytest.raises(ValueError):
        PerturbationModel("random", 0.0, -0.1, "unscaled")
    with pytest.raises(ValueError):
        PerturbationModel("random", 0.0, 0.0, "damped")
