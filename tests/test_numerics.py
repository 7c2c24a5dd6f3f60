"""Dense linear-algebra wrappers: contracts the rest of the package relies on."""

import numpy as np
import pytest
import scipy.linalg

from routedesign.numerics import DampedLeastSquares, lstsq


def test_lstsq_identity_cases():
    rhs = np.array([2.0, -4.0, 6.0])
    assert np.allclose(lstsq(np.eye(3), rhs), rhs, atol=1e-12)
    assert np.allclose(lstsq(np.eye(3), rhs, damping=1.0), rhs / 2.0, atol=1e-12)


def test_lstsq_agrees_with_pseudoinverse():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(10, 4))
    rhs = rng.normal(size=10)
    assert np.linalg.norm(lstsq(a, rhs) - np.linalg.pinv(a) @ rhs) <= 1e-9
    # square and rank deficient, as a singular system Jacobian: the
    # minimum-norm solution, for a and for the transpose the gradient solves
    a = rng.normal(size=(40, 37)) @ rng.normal(size=(37, 40))
    rhs = rng.normal(size=40)
    for m in (a, a.T):
        assert np.linalg.norm(lstsq(m, rhs) - np.linalg.pinv(m) @ rhs) <= 1e-9


def test_lstsq_damping_solves_the_regularized_normal_equations():
    rng = np.random.default_rng(24)
    a = rng.normal(size=(12, 5))
    rhs = rng.normal(size=12)
    mu = 0.3
    z = lstsq(a, rhs, damping=mu)
    ref = np.linalg.solve(a.T @ a + mu * np.eye(5), a.T @ rhs)
    assert np.allclose(z, ref, atol=1e-10)


def test_lstsq_input_validation():
    with pytest.raises(ValueError):
        lstsq(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        lstsq(np.eye(3), np.ones(3), damping=-1.0)
    with pytest.raises(ValueError):
        lstsq(np.ones(3), np.ones(3))


DAMPINGS = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3]


@pytest.mark.parametrize("n", [5, 40, 120])
def test_damped_least_squares_matches_the_stacked_solve(n):
    rng = np.random.default_rng(26 + n)
    a = rng.normal(size=(n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    assert np.linalg.cond(a) < 1e2
    rhs = rng.normal(size=n)
    system = DampedLeastSquares(a, rhs)
    for mu in DAMPINGS:
        ref = lstsq(a, rhs, damping=mu)
        assert np.linalg.norm(system.solve(mu) - ref) <= 1e-10 * np.linalg.norm(ref)


def test_damped_least_squares_falls_back_when_cholesky_fails():
    # One row ~1e25, as a smoothed-map row past a large exponent, swamps the
    # other rows' contributions to a^T a; the zero column makes a rank
    # deficient.  Cholesky then fails at every damping, and the step is the
    # stacked solve's, bit for bit.
    rng = np.random.default_rng(27)
    a = rng.normal(size=(6, 6))
    a[0] *= 1e25
    a[:, 5] = 0.0
    rhs = rng.normal(size=6)
    system = DampedLeastSquares(a, rhs)
    for mu in DAMPINGS:
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(a.T @ a + mu * np.eye(6))
        assert np.array_equal(system.solve(mu), lstsq(a, rhs, damping=mu))


def test_damped_least_squares_input_validation():
    with pytest.raises(ValueError):
        DampedLeastSquares(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        DampedLeastSquares(np.eye(3), np.ones(3)).solve(-1.0)
