"""Dense linear-algebra wrappers: contracts the rest of the package relies on."""

import numpy as np
import pytest
import scipy.linalg

from routedesign.errors import NotSymmetricError
from routedesign.numerics import (
    DampedLeastSquares,
    default_rcond,
    eig_sym,
    lstsq,
    pseudoinverse,
)


def test_default_rcond_scales_with_the_long_side():
    eps = np.finfo(float).eps
    assert default_rcond((8, 5)) == 8 * eps
    assert default_rcond((5, 200)) == 200 * eps


def test_pseudoinverse_trivial_cases():
    assert np.allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-12)
    assert np.array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pseudoinverse(np.zeros(3))


@pytest.mark.parametrize("shape", [(8, 5), (5, 8), (40, 40), (200, 200)])
def test_pseudoinverse_satisfies_moore_penrose_identities(shape):
    rng = np.random.default_rng(1000 * shape[0] + shape[1])
    a = rng.normal(size=shape)
    a_pinv = pseudoinverse(a)
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a @ a_pinv @ a - a) <= 1e-8 * scale
    assert np.linalg.norm(a_pinv @ a @ a_pinv - a_pinv) <= 1e-8 * np.linalg.norm(a_pinv)
    assert np.linalg.norm((a @ a_pinv).T - a @ a_pinv) <= 1e-8
    assert np.linalg.norm((a_pinv @ a).T - a_pinv @ a) <= 1e-8


def test_pseudoinverse_reconstruction_on_tall_matrix():
    rng = np.random.default_rng(22)
    a = rng.normal(size=(8, 5))
    assert np.linalg.norm(a @ pseudoinverse(a) @ a - a) <= 1e-10 * np.linalg.norm(a)


def test_lstsq_identity_cases():
    rhs = np.array([2.0, -4.0, 6.0])
    assert np.allclose(lstsq(np.eye(3), rhs), rhs, atol=1e-12)
    assert np.allclose(lstsq(np.eye(3), rhs, damping=1.0), rhs / 2.0, atol=1e-12)


def test_lstsq_agrees_with_pseudoinverse():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(10, 4))
    rhs = rng.normal(size=10)
    assert np.linalg.norm(lstsq(a, rhs) - pseudoinverse(a) @ rhs) <= 1e-9


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


def test_eig_sym_orders_eigenvalues():
    w, q = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_eig_sym_hand_built_two_by_two():
    # characteristic polynomial of [[2,1],[1,2]]: (2-t)^2 = 1
    w, _ = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-10)


def test_eig_sym_reconstructs_random_symmetric_matrix():
    rng = np.random.default_rng(25)
    s = rng.normal(size=(10, 10))
    s = 0.5 * (s + s.T)
    w, q = eig_sym(s)
    assert np.linalg.norm((q * w) @ q.T - s) <= 1e-9 * max(np.linalg.norm(s), 1.0)
    assert np.allclose(q.T @ q, np.eye(10), atol=1e-10)


def test_eig_sym_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))
