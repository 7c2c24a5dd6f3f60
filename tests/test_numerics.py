"""Dense linear-algebra wrappers: contracts the rest of the package relies on."""

import numpy as np
import pytest

from routedesign.numerics import lstsq


def test_lstsq_identity_cases():
    rhs = np.array([2.0, -4.0, 6.0])
    assert np.allclose(lstsq(np.eye(3), rhs), rhs, atol=1e-12)


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


def test_lstsq_input_validation():
    with pytest.raises(ValueError):
        lstsq(np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        lstsq(np.ones(3), np.ones(3))

