"""Reference solutions, error metrics, and convergence-rate fits.

A reference solution decouples the FBSDE with its analytic fields and
applies the forward Euler method on the fine grid of a
:class:`~fbsdekit.brownian.BrownianStore`; the state is recorded at the
coarse nodes and the value/gradient processes are read off the analytic
fields there.  Because approximate and reference paths are driven by the
same increments, the error metrics below are strong (pathwise) errors:

* ``err_x`` and ``err_y``: sup over nodes of the mean squared deviation,
* ``err_z``: time-integrated mean squared deviation over the first ``N``
  nodes, i.e. ``(T / (N Lambda)) sum_{i<N} sum_j |dZ|^2``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .brownian import BrownianStore, PathBatch, TimeGrid, paths_fastest
from .errors import InvalidArgument, UnsupportedProblem, _check_state

__all__ = ["ErrorReport", "simulate_reference", "compute_errors", "fit_rate"]


@dataclass(frozen=True)
class ErrorReport:
    """Strong errors of one batch against its reference."""

    err_x: float
    err_y: float
    err_z: float
    total: float


def simulate_reference(
    problem, store: BrownianStore, grid: TimeGrid
) -> PathBatch:
    """Euler-decoupled reference paths, recorded at the coarse nodes.

    Each fine step is one ``problem.reference_step`` call, and each
    coarse node's ``y`` and ``z`` come from one ``problem.analytic_fields``
    call.  A non-finite state raises :class:`NumericalFailure` at the first
    coarse node it reaches, with that coarse ``step`` and the first bad
    ``path``.

    Walks ``grid`` on the store, whose horizon must equal the grid's exactly
    and whose Brownian motion must have the problem's ``dim_w`` components;
    the walk caches the grid's coarse increments, so a following
    ``coarsen_increments(store, grid.n)`` costs nothing extra.
    """
    if not problem.has_analytic_solution:
        raise UnsupportedProblem(
            f"problem {problem.name!r} has no analytic decoupling fields"
        )
    if store.horizon != grid.horizon:
        raise InvalidArgument("store and grid disagree on the horizon")
    if store.dim_w != problem.dim_w:
        raise InvalidArgument(f"store of {store.dim_w} Brownian components, "
                              f"problem of dim_w = {problem.dim_w}")
    num_paths, dim, dim_w = store.num_paths, problem.dim_x, problem.dim_w
    span = store.fine_n // grid.n
    h_fine = store.horizon / store.fine_n

    x_nodes = paths_fastest((num_paths, grid.n + 1, dim))
    state = paths_fastest((num_paths, dim))
    state[...] = problem.x0
    x_nodes[:, 0] = state
    # closed at once if a step fails, which ends the walk's producer
    with contextlib.closing(store._walk(grid.n)) as walk:
        for i, k0, window in walk:
            k1 = k0 + window.shape[1]
            for k in range(k0, k1):
                state = problem.reference_step(
                    k * h_fine, state, window[:, k - k0, :], h_fine
                )
            del window  # dropped before the next window is requested
            if k1 == (i + 1) * span:  # coarse step i is done
                _check_state(state, i, "reference state")
                x_nodes[:, i + 1] = state

    y_nodes = paths_fastest((num_paths, grid.n + 1))
    z_nodes = paths_fastest((num_paths, grid.n + 1, dim_w))
    for i, t in enumerate(grid.nodes):
        y_nodes[:, i], z_nodes[:, i] = problem.analytic_fields(t, x_nodes[:, i])
    return PathBatch(x=x_nodes, y=y_nodes, z=z_nodes)


def _squared_deviations(a, b):
    """``|a - b|^2`` per path and node, squared in place, in C order so that
    sums over paths add in one order whatever the batches' layout."""
    diff = a - b
    np.square(diff, out=diff)
    if diff.ndim == 3:
        diff = diff.sum(axis=2)  # freed before the C-order copy is made
    return np.ascontiguousarray(diff)


def compute_errors(
    approx: PathBatch, reference: PathBatch, grid: TimeGrid
) -> ErrorReport:
    """Strong errors of one batch against its reference on the same grid."""
    if approx.x.shape != reference.x.shape or approx.z.shape != reference.z.shape:
        raise InvalidArgument(
            f"shape mismatch: approx x {approx.x.shape} z {approx.z.shape} vs "
            f"reference x {reference.x.shape} z {reference.z.shape}"
        )
    if approx.num_nodes != grid.n + 1:
        raise InvalidArgument(
            f"batch has {approx.num_nodes} nodes, grid expects {grid.n + 1}"
        )
    sq_x = _squared_deviations(approx.x, reference.x)
    sq_y = _squared_deviations(approx.y, reference.y)
    sq_z = _squared_deviations(approx.z, reference.z)
    err_x = float(np.max(sq_x.mean(axis=0)))
    err_y = float(np.max(sq_y.mean(axis=0)))
    num_paths = approx.num_paths
    err_z = float(
        grid.horizon / (grid.n * num_paths) * sq_z[:, : grid.n].sum()
    )
    return ErrorReport(
        err_x=err_x,
        err_y=err_y,
        err_z=err_z,
        total=err_x + err_y + err_z,
    )


def fit_rate(points) -> float:
    """Least-squares slope of ``log2(err)`` against ``log2(n)``; needs at
    least two distinct step counts."""
    points = list(points)
    ns = np.array([float(n) for n, _ in points])
    errs = np.array([float(e) for _, e in points])
    if len(set(ns)) < 2:
        raise InvalidArgument("need (n, err) points at two distinct n or more")
    if np.any(errs <= 0.0) or np.any(ns <= 0.0):
        raise InvalidArgument("rate fit needs positive step counts and errors")
    log_n = np.log2(ns)
    log_e = np.log2(errs)
    design = np.column_stack([np.ones_like(log_n), log_n])
    slope = np.linalg.lstsq(design, log_e, rcond=None)[0][1]
    return float(slope)
