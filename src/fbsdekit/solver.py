"""Markovian iteration for FBSDEs with drift coupled in Y and Z.

Iteration ``m`` runs a forward Euler sweep with the decoupling fields of
iteration ``m - 1`` (zero fields for ``m = 1``), then sweeps backward
through the time steps refitting the fields against the simulated paths.
One loop of ``M + 1`` forward sweeps serves both methods: sweep ``m``
feeds fit ``m`` and also gives iteration ``m - 1``'s error report, and
sweep ``M + 1`` gives the final paths that error metrics compare against
a reference solution.  Both methods keep one field per step, which the
sweep evaluates with the fit's kernel: it differentiates a scalar field,
and reads a direct field's ``1 + dim_w`` columns as the value process
and then the gradient process.

The truncation box of all fields is chosen once, after the first forward
sweep, from the 0.05%..99.95% quantile range of the simulated states: it
is centered on the range's midpoint with half-width the larger of 0.55
times the range and 3.  It is frozen for all later iterations so
successive fits share one function class.

Every sweep step and every fit takes the problem's coefficients bound to
its states, ``problem.at(t, x)``: a problem with a closed form then
computes its state-only terms once per step and applies its diffusion
without forming the ``(paths, dim, dim_w)`` matrices.  The gradient
process of a value field is the field's gradient, formed without the
feature Jacobian, contracted with that diffusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import (
    BrownianStore,
    PathBatch,
    TimeGrid,
    _positive_int,
    _whole_int,
    coarsen_increments,
    make_time_grid,
    paths_fastest,
    sample_fine_increments,
)
from .errors import InvalidArgument, NumericalFailure, _check_state
from .fields import (
    clamp,
    features,
    field_from_record,
    field_to_record,
    inside_box,
    zero_field,
)
from .reference import compute_errors
from .regression import _processes, fit_step_differentiation, fit_step_direct

__all__ = [
    "SolverConfig",
    "IterationResult",
    "forward_simulate",
    "backward_pass",
    "run_markovian_iteration",
    "write_checkpoint",
    "read_checkpoint",
]

METHODS = ("differentiation", "direct")


@dataclass(frozen=True)
class SolverConfig:
    n_steps: int
    num_iterations: int
    num_paths: int
    method: str = "differentiation"
    seed: int = 7
    fine_n: int = 20480
    trunc_lo: Optional[np.ndarray] = None
    trunc_hi: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("n_steps", "num_iterations", "num_paths", "fine_n"):
            object.__setattr__(self, name, _positive_int(getattr(self, name), name))
        object.__setattr__(self, "seed", _whole_int(self.seed, "seed"))
        if self.fine_n % self.n_steps != 0:
            raise InvalidArgument(
                f"fine_n={self.fine_n} is not divisible by N={self.n_steps}: "
                "N must divide fine_n"
            )
        if self.method not in METHODS:
            raise InvalidArgument(f"method must be one of {METHODS}")
        if (self.trunc_lo is None) != (self.trunc_hi is None):
            raise InvalidArgument("give both trunc_lo and trunc_hi or neither")


@dataclass
class IterationResult:
    """Fields of every iteration plus the paths of the final sweep."""

    fields: list  # fields[m][i], m = 0..M-1, i = 0..N-1
    final_paths: PathBatch
    per_iteration_errors: Optional[list] = None


def _check_increments(problem, increments, grid: TimeGrid, num_paths: int):
    """Raise unless ``increments`` are ``(num_paths, N, dim_w)``."""
    expected = (num_paths, grid.n, problem.dim_w)
    if np.shape(increments) != expected:
        raise InvalidArgument(f"increments of shape {np.shape(increments)}, "
                              f"not (paths, N, dim_w) = {expected}")


def _check_fields(problem, fields, grid: TimeGrid):
    """Raise unless ``fields`` are ``N`` fields on ``dim_x`` states, each
    scalar or of ``1 + dim_w`` coefficient columns."""
    if len(fields) != grid.n:
        raise InvalidArgument(f"need {grid.n} per-step fields, got {len(fields)}")
    dims = {f.dim for f in fields} - {problem.dim_x}
    if dims:
        raise InvalidArgument(f"a field on {min(dims)}-dimensional states, "
                              f"not dim_x = {problem.dim_x}")
    columns = {f.coeffs.shape[1:] for f in fields} - {(), (1 + problem.dim_w,)}
    if columns:
        raise InvalidArgument(f"a field of {min(columns)[0]} coefficient "
                              f"columns, not 1 + dim_w = {1 + problem.dim_w}")


def forward_simulate(
    problem,
    fields_prev,
    increments,
    grid: TimeGrid,
) -> PathBatch:
    """Forward Euler sweep driven by the previous iteration's fields.

    At each node the fit's kernel evaluates the field at the states,
    clamped once: a scalar field gives the value process and, through its
    gradient, the gradient process; a direct field's columns 0 and then
    ``1..dim_w`` give them.  The terminal node uses the terminal condition
    and its gradient instead.  ``increments`` are ``(paths, N, dim_w)``.
    """
    _check_fields(problem, fields_prev, grid)
    num_paths = len(increments)
    _check_increments(problem, increments, grid, num_paths)
    dim, dim_w = problem.dim_x, problem.dim_w
    x = paths_fastest((num_paths, grid.n + 1, dim))
    y = paths_fastest((num_paths, grid.n + 1))
    z = paths_fastest((num_paths, grid.n + 1, dim_w))
    x[:, 0] = problem.x0
    h = grid.h
    for i in range(grid.n):
        state = x[:, i]
        coefficients = problem.at(grid.nodes[i], state)
        fld = fields_prev[i]
        xc = clamp(state, fld)
        y[:, i], diffusion, z[:, i] = _processes(
            coefficients, features(xc, dim), xc, inside_box(state, fld), fld.coeffs
        )
        drift = coefficients.b(y[:, i], z[:, i])
        x[:, i + 1] = state + drift * h + diffusion.apply(increments[:, i])
        _check_state(x[:, i + 1], i)
    terminal = x[:, grid.n]
    y[:, grid.n] = problem.g(terminal)
    z[:, grid.n] = (
        problem.at(grid.horizon, terminal)
        .diffusion(y[:, grid.n])
        .gradient(problem.grad_g(terminal))
    )
    return PathBatch(x=x, y=y, z=z)


def backward_pass(
    problem,
    paths: PathBatch,
    increments,
    grid: TimeGrid,
    warm_fields,
    method: str = "differentiation",
):
    """Refit the per-step fields against freshly simulated paths.

    Sweeps ``i = N-1 .. 0`` on the sweep's ``increments``; the regression
    target at step ``i`` is the next node's value process: the terminal
    condition the sweep stored in ``paths.y[:, N]`` at the last step, and
    below it the values the fit one step later returned.  A fit's
    :class:`NumericalFailure` leaves here with ``step=i``.

    Returns the list of the ``N`` step fields, scalar for differentiation
    and of ``1 + dim_w`` columns for the direct method.
    """
    if method not in METHODS:
        raise InvalidArgument(f"method must be one of {METHODS}")
    fit = fit_step_direct if method == "direct" else fit_step_differentiation
    _check_fields(problem, warm_fields, grid)
    _check_increments(problem, increments, grid, paths.num_paths)
    n = grid.n
    y_next = paths.y[:, n]
    fields = [None] * n
    for i in range(n - 1, -1, -1):
        try:
            fields[i], y_next = fit(
                problem, grid.nodes[i], paths.x[:, i], y_next, increments[:, i],
                warm_fields[i], h=grid.h,
            )
        except NumericalFailure as exc:
            exc.step = i
            raise
    return fields


def _auto_box(paths: PathBatch):
    """Quantile box of the first sweep's states, floored at half-width 3.

    The box is the 0.05%..99.95% quantile range of all states, widened to
    1.1 times its width about its midpoint.  The floor keeps the box
    non-degenerate when the zero-field first sweep freezes the paths
    (diffusion vanishing at zero value).
    """
    states = paths.all_states()
    q_lo, q_hi = np.quantile(states, [0.0005, 0.9995], axis=0)
    center = 0.5 * (q_lo + q_hi)
    half = np.maximum(0.55 * (q_hi - q_lo), 3.0)
    return center - half, center + half


def run_markovian_iteration(
    problem,
    cfg: SolverConfig,
    store: Optional[BrownianStore] = None,
    reference_paths: Optional[PathBatch] = None,
) -> IterationResult:
    """Alternate forward simulation and backward refits ``M`` times.

    Forward sweep ``m = 1 .. M + 1`` runs on the base increments with the
    fields of iteration ``m - 1``; it feeds fit ``m``, and sweep ``M + 1``
    gives ``final_paths``.  A ``store`` shared across runs to reuse cached
    coarse increments must equal the one ``cfg`` draws for the problem.
    When ``reference_paths`` is given, sweep ``m > 1`` also gives the
    :class:`ErrorReport` of iteration ``m - 1``, which equals the final
    report of a run with ``num_iterations=m - 1``.

    A :class:`NumericalFailure` in sweep ``m`` or fit ``m`` leaves this
    loop labelled with ``iteration=m``, and with the fields of the
    iterations completed before it as ``partial_fields``; the sweep and
    :func:`backward_pass` label its ``step``.
    """
    grid = make_time_grid(problem.horizon, cfg.n_steps)
    # a store draws nothing until it is walked, so this costs no draws
    drawn = sample_fine_increments(
        cfg.seed, cfg.num_paths, cfg.fine_n, problem.dim_w, problem.horizon
    )
    if store is None:
        store = drawn
    elif store != drawn:  # the cached coarse sums take no part
        raise InvalidArgument("store does not match the solver configuration")
    base_coarse = coarsen_increments(store, cfg.n_steps)

    if cfg.trunc_lo is not None:
        box = (
            np.asarray(cfg.trunc_lo, dtype=np.float64),
            np.asarray(cfg.trunc_hi, dtype=np.float64),
        )
    else:
        box = None  # determined after the first forward sweep

    all_fields = []
    per_iteration = [] if reference_paths is not None else None

    # zero fields evaluate to zero whatever their box; the placeholder box
    # x0 +- 3 is replaced by the data-adaptive one after the first sweep.
    # Both methods start by differentiating them, which gives Z = 0.
    start_box = box or (problem.x0 - 3.0, problem.x0 + 3.0)
    fields = [zero_field(problem.dim_x, *start_box)] * cfg.n_steps

    try:
        for m in range(1, cfg.num_iterations + 2):
            paths = forward_simulate(problem, fields, base_coarse, grid)
            if per_iteration is not None and m > 1:
                per_iteration.append(compute_errors(paths, reference_paths, grid))
            if m > cfg.num_iterations:
                break
            if box is None:
                box = _auto_box(paths)
                fields = [zero_field(problem.dim_x, box[0], box[1])] * cfg.n_steps
            fields = backward_pass(
                problem, paths, base_coarse, grid, fields, method=cfg.method
            )
            all_fields.append(fields)
            del paths  # freed before the next sweep is built
    except NumericalFailure as exc:
        exc.iteration = m
        exc.partial_fields = all_fields
        raise
    return IterationResult(
        fields=all_fields,
        final_paths=paths,
        per_iteration_errors=per_iteration,
    )


def write_checkpoint(result: IterationResult, path) -> None:
    """Serialize every per-(iteration, step) field as one JSON line.

    The first line is the header record ``{"iterations": M, "steps": N}``;
    the fields follow, iteration by iteration, each record carrying its
    ``iteration`` and ``time_index``.
    """
    header = {"iterations": len(result.fields), "steps": len(result.fields[0])}
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for m, per_step in enumerate(result.fields, start=1):
            for i, fld in enumerate(per_step):
                record = field_to_record(fld, time_index=i)
                record["iteration"] = m
                handle.write(json.dumps(record) + "\n")


def read_checkpoint(path):
    """Load a checkpoint back into the nested list ``fields[m][i]``.

    The file must start with :func:`write_checkpoint`'s header record, and
    its field records must hold every ``(iteration, time_index)`` in
    ``1..M x 0..N-1`` once and nothing else.  Otherwise
    :class:`InvalidArgument` names the missing header, the file's line
    number of a line that is no field record, the first duplicated key,
    or the first missing or extra key.
    """
    table = {}
    with open(path) as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError:  # an empty file too
            header = None
        if not isinstance(header, dict) or {
            key: type(value) for key, value in header.items()
        } != {"iterations": int, "steps": int}:
            raise InvalidArgument(f"checkpoint {path} lacks its header record")
        for number, line in enumerate(handle, start=2):
            try:
                record = json.loads(line)
                key = (record["iteration"], record["time_index"])
                if {type(k) for k in key} != {int}:
                    raise TypeError(f"(iteration, time_index) = {key} are not ints")
                fld = field_from_record(record)
            except (KeyError, TypeError, ValueError) as exc:
                why = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
                raise InvalidArgument(f"checkpoint {path} line {number} is no field "
                                      f"record ({type(exc).__name__}: {why})") from exc
            if key in table:
                raise InvalidArgument(f"checkpoint {path} has a duplicate field at "
                                      f"(iteration, time_index) = {key}")
            table[key] = fld

    iterations, steps = header["iterations"], header["steps"]
    keys = [(m, i) for m in range(1, iterations + 1) for i in range(steps)]
    missing = [key for key in keys if key not in table]
    extra = sorted(set(table).difference(keys))
    if missing or extra:
        raise InvalidArgument(
            f"checkpoint {path} has {'no' if missing else 'an extra'} field at "
            f"(iteration, time_index) = {(missing + extra)[0]}"
        )
    return [[table[(m, i)] for i in range(steps)] for m in range(1, iterations + 1)]
