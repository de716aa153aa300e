"""Dense oracles for the Jacobian-free derivatives of quadratic fields.

The library differentiates a field without forming its feature Jacobian.
These helpers form it, ``(paths, P, dim)`` and mostly zeros, so that the
tests can check the library's kernels against the plain contractions.
"""

import numpy as np

from fbsdekit.fields import num_features


def grad_features(x, dim):
    """Jacobian of the features: shape ``(paths, P, dim)``; no clamping."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out = np.zeros((n, num_features(dim), dim))
    pairs = [(i, k) for i in range(dim) for k in range(i + 1, dim)]
    for k in range(dim):
        out[:, 1 + k, k] = 1.0
        out[:, 1 + dim + k, k] = 2.0 * x[:, k]
    for p, (i, k) in enumerate(pairs):
        out[:, 1 + 2 * dim + p, i] = x[:, k]
        out[:, 1 + 2 * dim + p, k] = x[:, i]
    return out


def masked_jacobian(field, x):
    """Feature Jacobian at the clamped ``x``, zero along clamped directions."""
    lo, hi = field.trunc_lo, field.trunc_hi
    jac = grad_features(np.clip(x, lo, hi), field.dim)
    return jac * ((x > lo) & (x < hi))[:, None, :]


def dense_grad_u(field, x):
    """Gradient of the clamped scalar field through the dense Jacobian."""
    return np.einsum("npk,p->nk", masked_jacobian(field, x), field.coeffs)


def dense_derivative_rows(field, x, w):
    """Derivative of the clamped features along ``w`` through the dense Jacobian."""
    return np.einsum("npk,nk->np", masked_jacobian(field, x), w)
