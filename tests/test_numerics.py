import numpy as np
import pytest

from scenemixer.numerics import finite_diff_grad


def test_finite_diff_quadratic():
    x = np.array([3.0])
    g = finite_diff_grad(lambda t: float(np.sum(t**2)), x, h=1e-5)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_linear(rng):
    x = rng.standard_normal(7)
    g = finite_diff_grad(lambda t: float(np.sum(t)), x, h=1e-5)
    assert np.max(np.abs(g - 1.0)) < 1e-9


def test_finite_diff_requires_f64():
    with pytest.raises(TypeError):
        finite_diff_grad(lambda t: 0.0, np.zeros(2, np.float32))


def test_finite_diff_nonfinite_errors():
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        finite_diff_grad(lambda t: float(np.log(t[0])), np.array([1e-9]), h=1e-5)
