"""Quadratic decoupling fields and their evaluation.

A field is a polynomial of total degree two in the state.  Features are
ordered as ``[1, x_1..x_d, x_1^2..x_d^2, x_i*x_k for i<k lexicographic]``,
giving ``P = 1 + 2d + d(d-1)/2`` coefficients.  Inputs are clamped to the
field's truncation box before the features are formed, so the represented
function is constant (and its gradient zero) along any clamped direction
and therefore globally Lipschitz.  This module is the only one that
clamps to the box or masks the clamped directions.

:class:`QuadraticField` is the one field type.  Its coefficients are a
vector ``(P,)`` for a value field or a matrix ``(P, k)`` for a field with
``k`` components, and :func:`eval_u` evaluates either shape.  The gradient
process then comes in two forms:

* the differentiation form evaluates ``grad_u(x)^T sigma(t, x, u(x))``,
  reusing the Y-field's coefficients, and
* the direct form reads component ``c`` off column ``1 + c`` of a field
  of ``1 + dim_w`` columns, whose column 0 is the value process.

Derivatives never form the feature Jacobian, which is ``(paths, P, dim)``
and mostly zeros.  On the clamped states ``xc``, with the directions
along which the box clamps zeroed by the mask of :func:`inside_box`,
:func:`clamped_gradient` gives component ``k`` of the gradient as
``c[1+k] + (2 xc_k) c[1+d+k] + sum of xc_other c_pair`` over the cross
features holding ``x_k``, and :func:`feature_derivative` gives the
features' derivative along ``w`` as the row
``[0, w, (2 xc) w, xc_k w_i + xc_i w_k]``.  Each adds the non-zero terms
of the Jacobian contraction in feature order, so both equal the dense
``numpy.einsum`` contractions bit for bit; a zero of the feature
derivative along a clamped direction may differ in its sign.

The feature derivative is stored paths-fastest
(:func:`fbsdekit.brownian.paths_fastest`), like the states the solver
passes in, so each of its columns is a contiguous elementwise operation.
:func:`features` stays in C order, because the rounding of
``features(x) @ coeffs`` depends on the layout of ``features(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import paths_fastest
from .errors import InvalidArgument

__all__ = [
    "QuadraticField",
    "num_features",
    "features",
    "clamped_gradient",
    "feature_derivative",
    "eval_u",
    "grad_u",
    "eval_v_diff",
    "zero_field",
    "field_to_record",
    "field_from_record",
]

_FORMAT_VERSION = 1


def num_features(dim: int) -> int:
    return 1 + 2 * dim + dim * (dim - 1) // 2


def _cross_pairs(dim):
    return [(i, k) for i in range(dim) for k in range(i + 1, dim)]


@dataclass(frozen=True)
class QuadraticField:
    """Quadratic field with a truncation box.

    ``coeffs`` is ``(P,)`` for a scalar field or ``(P, k)`` for a field
    with ``k`` components, one coefficient column each.
    """

    dim: int
    coeffs: np.ndarray
    trunc_lo: np.ndarray
    trunc_hi: np.ndarray

    def __post_init__(self):
        p = num_features(self.dim)
        if self.coeffs.ndim not in (1, 2) or self.coeffs.shape[0] != p:
            raise InvalidArgument(
                f"expected {p} coefficient rows for dim={self.dim}, got shape "
                f"{self.coeffs.shape}"
            )
        shapes = (np.shape(self.trunc_lo), np.shape(self.trunc_hi))
        if shapes != ((self.dim,),) * 2:
            raise InvalidArgument(f"box bounds of shapes {shapes}, not ({self.dim},)")
        if not np.all(np.less(self.trunc_lo, self.trunc_hi)):  # NaN fails too
            raise InvalidArgument("truncation box must have positive widths")


def _as_batch(x, dim):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise InvalidArgument(f"point has dimension {x.shape[0]}, expected {dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise InvalidArgument(f"expected shape (paths, {dim}), got {x.shape}")
    return x, False


def features(x, dim: int) -> np.ndarray:
    """Feature vector(s) in the documented ordering; no clamping applied."""
    x, single = _as_batch(x, dim)
    n = x.shape[0]
    out = np.empty((n, num_features(dim)))
    out[:, 0] = 1.0
    out[:, 1 : 1 + dim] = x
    out[:, 1 + dim : 1 + 2 * dim] = x * x
    for p, (i, k) in enumerate(_cross_pairs(dim)):
        out[:, 1 + 2 * dim + p] = x[:, i] * x[:, k]
    return out[0] if single else out


def clamp(x, field) -> np.ndarray:
    return np.clip(x, field.trunc_lo, field.trunc_hi)


def inside_box(x, field) -> np.ndarray:
    """Mask of the coordinates of ``x`` strictly inside the field's box.

    Along the others the clamped field is constant: its gradient and the
    derivatives of its features vanish there.
    """
    return (x > field.trunc_lo) & (x < field.trunc_hi)


def clamped_gradient(coeffs, xc, inside) -> np.ndarray:
    """Gradient ``(paths, dim)`` of the scalar quadratic ``coeffs`` at the
    clamped states ``xc``, zero where ``inside`` is false."""
    dim = xc.shape[1]
    grads = coeffs[1 : 1 + dim] + (2.0 * xc) * coeffs[1 + dim : 1 + 2 * dim]
    for p, (i, k) in enumerate(_cross_pairs(dim)):
        grads[:, i] += xc[:, k] * coeffs[1 + 2 * dim + p]
        grads[:, k] += xc[:, i] * coeffs[1 + 2 * dim + p]
    return np.where(inside, grads, 0.0)


def feature_derivative(xc, inside, w) -> np.ndarray:
    """Derivative ``(paths, P)`` of the features at the clamped states
    ``xc`` along the directions ``w``, zero along clamped coordinates;
    stored paths-fastest."""
    n, dim = xc.shape
    w = w * inside
    out = paths_fastest((n, num_features(dim)))
    out[:, 0] = 0.0
    out[:, 1 : 1 + dim] = w
    out[:, 1 + dim : 1 + 2 * dim] = (2.0 * xc) * w
    for p, (i, k) in enumerate(_cross_pairs(dim)):
        out[:, 1 + 2 * dim + p] = xc[:, k] * w[:, i] + xc[:, i] * w[:, k]
    return out


def eval_u(field: QuadraticField, x) -> np.ndarray:
    """Value of the clamped field at ``x``: ``(paths,)`` for a scalar
    field, ``(paths, k)`` for a field with ``k`` components."""
    x, single = _as_batch(x, field.dim)
    vals = features(clamp(x, field), field.dim) @ field.coeffs
    return vals[0] if single else vals


def grad_u(field: QuadraticField, x) -> np.ndarray:
    """Gradient of the clamped scalar field; zero along clamped directions."""
    x, single = _as_batch(x, field.dim)
    grads = clamped_gradient(field.coeffs, clamp(x, field), inside_box(x, field))
    return grads[0] if single else grads


def eval_v_diff(field: QuadraticField, sigma, t: float, x) -> np.ndarray:
    """Gradient process via differentiation: ``grad_u^T sigma(t, x, u)``.

    ``sigma(t, x, y)`` must return diffusion matrices of shape
    ``(paths, dim, dim_w)`` for batched ``x`` of shape ``(paths, dim)``.
    """
    x, single = _as_batch(x, field.dim)
    y = eval_u(field, x)
    smat = np.asarray(sigma(t, x, y), dtype=np.float64)
    vals = np.einsum("ni,nic->nc", grad_u(field, x), smat)
    return vals[0] if single else vals


def zero_field(dim: int, trunc_lo, trunc_hi) -> QuadraticField:
    return QuadraticField(
        dim=dim,
        coeffs=np.zeros(num_features(dim)),
        trunc_lo=np.asarray(trunc_lo, dtype=np.float64),
        trunc_hi=np.asarray(trunc_hi, dtype=np.float64),
    )


def field_to_record(field, time_index: int) -> dict:
    """JSON-ready record for checkpointing one per-step field."""
    record = {
        "version": _FORMAT_VERSION,
        "time_index": int(time_index),
        "dim": field.dim,
        "coeffs": np.asarray(field.coeffs).tolist(),
        "trunc_lo": np.asarray(field.trunc_lo).tolist(),
        "trunc_hi": np.asarray(field.trunc_hi).tolist(),
    }
    if field.coeffs.ndim == 2:
        record["dim_w"] = field.coeffs.shape[1]
    return record


def field_from_record(record: dict) -> QuadraticField:
    """Field of a record; one with the key ``dim_w`` holds a matrix of that
    many coefficient columns (``1 + dim_w`` for a direct-method field)."""
    if record.get("version") != _FORMAT_VERSION:
        raise InvalidArgument(f"unknown field record version {record.get('version')}")
    coeffs = np.asarray(record["coeffs"], dtype=np.float64)
    columns = (int(record["dim_w"]),) if "dim_w" in record else ()
    if coeffs.shape[1:] != columns:
        raise InvalidArgument(
            f"coefficient shape {coeffs.shape} does not match the record's dim_w"
        )
    return QuadraticField(
        dim=int(record["dim"]),
        coeffs=coeffs,
        trunc_lo=np.asarray(record["trunc_lo"], dtype=np.float64),
        trunc_hi=np.asarray(record["trunc_hi"], dtype=np.float64),
    )
