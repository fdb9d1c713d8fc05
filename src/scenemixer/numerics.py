"""Tensor conventions and the finite-difference gradient oracle.

Tensors are plain numpy arrays (float32 or float64), row-major. Image
batches follow the (n, y, x, c) convention; layers raise ShapeError when
operand extents disagree.
"""

import numpy as np

Tensor = np.ndarray


class ShapeError(ValueError):
    """Raised when extents are invalid or operand shapes disagree."""


def finite_diff_grad(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    g[i] = (f(x + h*e_i) - f(x - h*e_i)) / (2h). Requires float64 input;
    raises if any evaluation of f is non-finite.
    """
    if x.dtype != np.float64:
        raise TypeError(f"finite_diff_grad requires float64 input, got {x.dtype}")
    if not x.flags.c_contiguous:
        # reshape would copy and the perturbations would never reach f
        raise ValueError("finite_diff_grad requires a C-contiguous array")
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite function value at coordinate {i}: f+={fp}, f-={fm}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
