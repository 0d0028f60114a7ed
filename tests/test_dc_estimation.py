import numpy as np
import pytest
from scipy import stats

from conftest import random_dc_system
from fdia_lab.dc_estimation import DcSystem, chi_square_threshold, objective, wls_estimate
from fdia_lab.errors import ConfigError, SingularMatrixError


def test_wls_consistent_system_recovers_state(rng):
    sys = random_dc_system(rng, m=8, n=4)
    x = rng.normal(size=4)
    np.testing.assert_allclose(wls_estimate(sys, sys.jacobian @ x), x, atol=1e-10)


def test_wls_identity_jacobian():
    sys = DcSystem(jacobian=np.eye(3), weights=np.ones(3))
    z = np.array([4.0, -2.0, 0.5])
    np.testing.assert_allclose(wls_estimate(sys, z), z, atol=1e-12)


def test_wls_matches_pseudo_inverse_oracle(rng):
    # independent oracle: x = pinv(W^(1/2) H) W^(1/2) z
    for _ in range(25):
        sys = random_dc_system(rng, m=6, n=3)
        z = sys.jacobian @ rng.normal(size=3) + rng.normal(0, 0.1, size=6)
        sqrt_w = np.sqrt(sys.weights)
        oracle = np.linalg.pinv(sqrt_w[:, None] * sys.jacobian) @ (sqrt_w * z)
        np.testing.assert_allclose(wls_estimate(sys, z), oracle, atol=1e-8)


def test_wls_rank_deficient_raises():
    h = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    sys = DcSystem(jacobian=h, weights=np.ones(3))
    with pytest.raises(SingularMatrixError):
        wls_estimate(sys, np.array([1.0, 2.0, 3.0]))


def test_objective_zero_at_perfect_fit(rng):
    sys = random_dc_system(rng, m=5, n=2)
    x = rng.normal(size=2)
    assert objective(sys, sys.jacobian @ x, x) == pytest.approx(0.0, abs=1e-18)


def test_objective_scalar_hand_case():
    # z=2, Hx=1, W=3 -> 3*(2-1)^2 = 3
    sys = DcSystem(jacobian=np.array([[1.0], [1.0]]), weights=np.array([3.0, 1.0]))
    value = objective(sys, np.array([2.0, 1.0]), np.array([1.0]))
    assert value == pytest.approx(3.0)


def test_objective_linear_in_weights(rng):
    sys = random_dc_system(rng, m=6, n=3)
    z = rng.normal(size=6)
    x = rng.normal(size=3)
    doubled = DcSystem(jacobian=sys.jacobian, weights=2.0 * sys.weights)
    assert objective(doubled, z, x) == pytest.approx(2.0 * objective(sys, z, x))


def test_chi_square_anchor_dof4():
    # the reference lookup-table value is 13.34; the closed form must land
    # within 2% (true quantile is about 13.28)
    value = chi_square_threshold(4, 0.01)
    assert abs(value - 13.34) / 13.34 <= 0.02


def test_chi_square_dof1_normal_quantile_oracle():
    # two-sided 1-sigma: chi2(1) upper tail at 0.3173 is 1.0
    assert chi_square_threshold(1, 0.3173) == pytest.approx(1.0, abs=0.01)


def test_chi_square_monotone_in_dof():
    values = [chi_square_threshold(dof, 0.01) for dof in range(1, 41)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_chi_square_accuracy_against_scipy():
    # Wilson-Hilferty should track the exact quantile within 1% for dof >= 3
    for dof in range(3, 41):
        for alpha in (0.01, 0.05, 0.1, 0.25, 0.5):
            exact = stats.chi2.ppf(1 - alpha, dof)
            approx = chi_square_threshold(dof, alpha)
            assert abs(approx - exact) / exact <= 0.01, (dof, alpha)


def test_chi_square_input_validation():
    with pytest.raises(ConfigError):
        chi_square_threshold(0, 0.01)
    with pytest.raises(ConfigError):
        chi_square_threshold(4, 1.5)


def test_stealth_theorem(rng):
    # objective(z + Hd, x + d) == objective(z, x), exactly up to fp noise
    for _ in range(1000):
        sys = random_dc_system(rng, m=6, n=3)
        z = rng.normal(size=6)
        x_hat = wls_estimate(sys, z)
        d = rng.normal(size=3)
        clean = objective(sys, z, x_hat)
        attacked = objective(sys, z + sys.jacobian @ d, x_hat + d)
        assert attacked == pytest.approx(clean, rel=1e-9, abs=1e-12)


def test_wls_optimality_under_perturbation(rng):
    sys = random_dc_system(rng, m=8, n=4)
    z = rng.normal(size=8)
    x_hat = wls_estimate(sys, z)
    best = objective(sys, z, x_hat)
    for _ in range(100):
        delta = rng.normal(0, 1e-3, size=4)
        assert objective(sys, z, x_hat + delta) >= best - 1e-15


def test_estimate_and_check_flags_gross_error(rng):
    sys = random_dc_system(rng, m=8, n=3)
    threshold = chi_square_threshold(5, 0.01)
    x = rng.normal(size=3)
    z = sys.jacobian @ x

    def flagged(z):
        return objective(sys, z, wls_estimate(sys, z)) > threshold

    assert flagged(z) is False
    z_bad = z.copy()
    z_bad[0] += 100.0
    assert flagged(z_bad) is True
