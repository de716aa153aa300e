"""Per-time-step least-squares fits for the backward pass.

Two fitting strategies are provided.  ``fit_step_differentiation`` solves
the single joint optimization

    min over theta of  E | Y_next - ( u(X; theta) - h f(t, X, y, z)
                                      + v(X; theta) dW ) |^2

with ``v = grad_u^T sigma`` tied to the same coefficients, by fixed-point
linearization: the driver arguments and the diffusion are frozen at the
current iterate, the model is then linear in ``theta`` and solved exactly,
and the frozen quantities are refreshed, ``_INNER_SOLVES`` = 3 times.  The
fits take no settings: each of their normal equations carries the ridge
``_RIDGE`` = 1e-10 times ``trace(Gram)/P``.  The clamped states, the mask of
the coordinates inside the box, the clamped features ``phi`` and the
step's coefficients ``problem.at(t, X)`` are built once per step.  The
kernel the forward sweep shares gives an iterate's ``y = phi theta``, the
diffusion at ``y`` and ``z``, the field's gradient contracted with it;
with ``f(y, z)`` they freeze the next linearization, so the returned
iterate is evaluated past ``phi theta`` only for its joint loss.  That
loss is a diagnostic of the method, not an input to it (a linearized solve
is not a guaranteed descent step), and is computed only when the caller
collects it.  ``fit_step_direct`` is the two-regression baseline: each
component of the gradient process is regressed from ``h^-1 Y_next dW``,
then the value process once from ``Y_next + h f(t, X, Y_next, Z)``.  Its
``dim_w + 1`` regressions share one design, so they share its Gram matrix
and Cholesky factor, and each target is solved alone with that factor;
their solutions are the columns of one field, the value's first.  Both
fits also return the values of the fitted value process on the step's
states, which the backward pass takes as the previous step's target.

The design rows are ``phi`` plus the derivative of the features along
``sigma dW``, formed without the feature Jacobian
(:func:`fbsdekit.fields.feature_derivative`); each entry is a product or
a sum of two products, elementwise per path.  They are stored
paths-fastest (:func:`fbsdekit.brownian.paths_fastest`), so the fit keeps
a paths-fastest copy of ``phi`` to add to them (adding the C-order ``phi``
into them strides through one operand); ``phi @ coeffs`` takes the
C-order ``phi``, and the joint loss's row dot takes C-order operands.
The normal equations are formed and solved by numpy's BLAS and LAPACK on
a paths-fastest design, with numpy's bundled OpenBLAS pool pinned to one
thread, so their bits do not depend on the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import numbers
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from .brownian import paths_fastest
from .errors import InvalidArgument, NumericalFailure, RankDeficiencyError
from .fields import (
    QuadraticField,
    clamp,
    clamped_gradient,
    eval_u,  # noqa: F401 -- unused here; perfbench/test_tracer.py wraps it here
    feature_derivative,
    features,
    inside_box,
)

__all__ = [
    "solve_linear_lsq",
    "fit_step_differentiation",
    "fit_step_direct",
]


def _openblas_pool():
    """``(get, set)`` of the thread count of the OpenBLAS that numpy's
    wheel bundles in ``<site-packages>/numpy.libs``, or ``None`` where the
    build has no such library, it is not loaded, or it lacks the symbols.
    Only an already loaded library is opened."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# numpy's OpenBLAS and its thread pool, which carries the Gram, the
# right-hand side, the Cholesky factor and the triangular solves
_BLAS_POOL = _openblas_pool()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with :data:`_BLAS_POOL`, if found, at one thread, then
    give it its previous count back.  The count is process-global, so this
    must not be entered from worker threads.  Importing ``fbsdekit`` before
    numpy already starts the pool at one thread; the pin is for a process
    that imported numpy first, whose pool may be larger.
    """
    if _BLAS_POOL is None:
        yield
        return
    get, set_ = _BLAS_POOL
    previous = get()
    try:
        set_(1)
        yield
    finally:
        set_(previous)


# The fits' Tikhonov term, scaled by trace(Gram)/P so that it is invariant
# under feature rescaling, and the differentiation fit's linearized solves
_RIDGE = 1e-10
_INNER_SOLVES = 3


def _nonnegative_ridge(ridge) -> float:
    """``ridge`` as a ``float``; it must be a finite real of at least 0."""
    if not isinstance(ridge, numbers.Real) or not 0.0 <= ridge < np.inf:  # NaN too
        raise InvalidArgument(f"ridge must be finite and nonnegative, got {ridge}")
    return float(ridge)


class _NormalEquations:
    """The ridge-regularized normal equations of one design.

    The design is held paths-fastest, whatever its given layout, as BLAS
    rounds the two layouts differently.  Its finiteness check, its Gram
    matrix and the lower Cholesky factor ``L`` are made at the first
    :meth:`solve` and serve every later one; each solve then forms its own
    right-hand side and solves with ``L`` and ``L^T`` in turn.
    """

    def __init__(self, design, ridge: float):
        self.design = np.asfortranarray(design, dtype=np.float64)
        if self.design.ndim != 2:
            raise InvalidArgument(f"design {self.design.shape} is not a matrix")
        self.ridge = _nonnegative_ridge(ridge)
        self._factor = None

    def solve(self, targets) -> np.ndarray:
        design = self.design
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (design.shape[0],):
            raise InvalidArgument(
                f"design {design.shape} and targets {targets.shape} do not align"
            )
        first = self._factor is None
        if not (
            (not first or np.all(np.isfinite(design)))
            and np.all(np.isfinite(targets))
        ):
            raise NumericalFailure("non-finite values in regression inputs")
        with _one_blas_thread():
            if first:
                gram = design.T @ design
                p = design.shape[1]
                lam = self.ridge * np.trace(gram) / p
                if lam > 0.0:
                    gram = gram + lam * np.eye(p)
                try:
                    self._factor = np.linalg.cholesky(gram)
                except np.linalg.LinAlgError as exc:
                    raise RankDeficiencyError(
                        "normal equations are numerically singular; "
                        "pass a positive ridge"
                    ) from exc
            lower = self._factor
            coeffs = np.linalg.solve(
                lower.T, np.linalg.solve(lower, design.T @ targets)
            )
        if not np.all(np.isfinite(coeffs)):
            raise RankDeficiencyError(
                "normal equations produced non-finite coefficients; "
                "pass a positive ridge"
            )
        return coeffs


def solve_linear_lsq(design, targets, ridge: float = 0.0) -> np.ndarray:
    """Minimize ``|targets - design @ c|^2 + lam |c|^2`` exactly.

    ``lam = ridge * trace(design^T design) / P``.  Solved through the
    normal equations by Cholesky; a numerically singular Gram matrix with
    ``ridge = 0`` raises :class:`RankDeficiencyError`.
    """
    return _NormalEquations(design, ridge).solve(targets)


def _processes(coefficients, phi, xc, inside, coeffs):
    """Value process, diffusion and gradient process of one field at a step.

    ``phi`` holds the features at the clamped states ``xc``, and ``inside``
    masks their unclamped coordinates.  A ``(P,)`` field is differentiated:
    ``y`` and ``z`` equal ``eval_u`` and ``eval_v_diff`` of it.  A
    ``(P, 1 + dim_w)`` field gives ``y`` and ``z`` from its columns; the
    products with column views have the bits of :func:`fit_step_direct`'s,
    and the columns of ``phi @ coeffs`` would not.
    """
    if coeffs.ndim == 1:
        y = phi @ coeffs
        diffusion = coefficients.diffusion(y)
        return y, diffusion, diffusion.gradient(clamped_gradient(coeffs, xc, inside))
    y = phi @ coeffs[:, 0]
    return y, coefficients.diffusion(y), phi @ coeffs[:, 1:]


def fit_step_differentiation(
    problem,
    t: float,
    x,
    y_next,
    dw,
    warm_start: QuadraticField,
    h: float,
    loss_history: list | None = None,
) -> tuple[QuadraticField, np.ndarray]:
    """Fit the value field with the gradient process tied by differentiation.

    ``warm_start`` supplies the initial frozen iterate and the truncation
    box of the returned field.  The linearized subproblem is re-solved
    ``_INNER_SOLVES`` times under the ridge ``_RIDGE``, at as many
    evaluations of sigma and ``f``.
    The empirical joint loss of each solve's iterate is computed, at one
    more, only when ``loss_history`` is given, and appended to it.

    Returns ``(field, y)`` with ``y`` the field's values on ``x``, equal to
    ``eval_u(field, x)``.
    """
    x = np.asarray(x, dtype=np.float64)
    y_next = np.asarray(y_next, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    xc = clamp(x, warm_start)
    inside = inside_box(x, warm_start)
    phi = features(xc, warm_start.dim)
    phi_rows = paths_fastest(phi.shape)  # the design's copy of phi
    phi_rows[...] = phi
    coefficients = problem.at(t, x)

    coeffs = warm_start.coeffs
    y_bar, diffusion, z_bar = _processes(coefficients, phi, xc, inside, coeffs)
    f_bar = coefficients.f(y_bar, z_bar)
    for solve in range(1, _INNER_SOLVES + 1):
        if not diffusion.finite():
            raise NumericalFailure(f"diffusion evaluated non-finite at t={t}")
        design = feature_derivative(xc, inside, diffusion.apply(dw))
        design += phi_rows
        coeffs = solve_linear_lsq(design, y_next + h * f_bar, _RIDGE)
        if solve == _INNER_SOLVES and loss_history is None:
            # no later solve linearizes at the returned iterate
            return replace(warm_start, coeffs=coeffs), phi @ coeffs
        # the new iterate; its driver value is the next linearization's drift
        y_bar, diffusion, z_bar = _processes(coefficients, phi, xc, inside, coeffs)
        f_bar = coefficients.f(y_bar, z_bar)
        if loss_history is not None:
            # the joint loss; its row dot takes C-order operands
            pred = y_bar - h * f_bar + np.einsum(
                "nc,nc->n", np.ascontiguousarray(z_bar), np.ascontiguousarray(dw)
            )
            loss_history.append(float(np.mean(np.square(y_next - pred))))
    return replace(warm_start, coeffs=coeffs), y_bar


def fit_step_direct(
    problem,
    t: float,
    x,
    y_next,
    dw,
    warm_start: QuadraticField,
    h: float,
) -> tuple[QuadraticField, np.ndarray]:
    """Two-regression baseline: fit the gradient process from the
    martingale increment ``h^-1 Y_next dW`` (componentwise), then the
    value process in one regression against ``Y_next + h f(t, X, Y_next, Z)``:
    the driver takes the next-step values and the fitted gradient process.

    ``warm_start`` supplies the truncation box of the returned field, and
    every regression takes the ridge ``_RIDGE``.
    Returns ``(field, y)``: the field's coefficients are ``(P, 1 + dim_w)``,
    column 0 the value process and column ``1 + c`` component ``c`` of
    the gradient process, and ``y`` is the value process on ``x``, the
    clamped features times column 0.
    """
    x = np.asarray(x, dtype=np.float64)
    y_next = np.asarray(y_next, dtype=np.float64)
    dw = np.asarray(dw, dtype=np.float64)
    phi = features(clamp(x, warm_start), warm_start.dim)

    normal = _NormalEquations(phi, _RIDGE)
    coeffs = np.empty((phi.shape[1], 1 + dw.shape[1]))
    for comp in range(dw.shape[1]):
        coeffs[:, 1 + comp] = normal.solve(y_next * dw[:, comp] / h)
    # the column views give the bits of products with separate arrays;
    # the columns of phi @ coeffs would not
    targets = y_next + h * problem.at(t, x).f(y_next, phi @ coeffs[:, 1:])
    coeffs[:, 0] = normal.solve(targets)
    return replace(warm_start, coeffs=coeffs), phi @ coeffs[:, 0]
