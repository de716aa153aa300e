"""Experiment driver: single runs, N/M sweeps, and condition diagnostics.

``fbsde sweep`` runs one solver configuration per value in a list of N
or M values against a reference solution, reusing the same Brownian
store, and emits one CSV record each (N sweeps over two distinct N or
more append the fitted log-log rate of the total error); ``fbsde run`` is
the sweep over the single value N.  ``fbsde diagnose`` evaluates the
convergence conditions for a constants file.

Configuration precedence is defaults < ``--config`` JSON file < flags.
Output floats use ``repr`` so identical runs produce byte-identical rows
(wall-clock milliseconds are the only varying column).  The
linear-algebra thread pools run one thread, and ``FBSDE_THREADS=1`` only
keeps the Brownian draws in process; results depend on neither (see the
package docstring).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import sys
import time

from .brownian import make_time_grid, sample_fine_increments
from .diagnostics import (
    check_conditions,
    parse_constants,
    report_to_json,
    report_to_table,
)
from .errors import FBSDEError, InvalidArgument, NumericalFailure
from .problems import decoupled_test_problem, example1_problem, example2_problem
from .reference import compute_errors, fit_rate, simulate_reference
from .solver import METHODS, SolverConfig, run_markovian_iteration

CSV_HEADER = "method,problem,N,M,paths,seed,fineN,err_x,err_y,err_z,total,wall_ms"

_PROBLEMS = ("example1", "example2", "brownian-linear", "constant")

# problem options: a set one reaches the factories that take it (x0 as
# x0_scalar), an unset one leaves the factory's default
_PROBLEM_OPTIONS = ("kappa_y", "kappa_z", "sigma_bar", "rate", "dim", "horizon", "x0")

_DEFAULTS = {
    "problem": "example1",
    "method": SolverConfig.method,
    "N": 32,
    "M": 5,
    "paths": 15000,
    "seed": SolverConfig.seed,
    "fine_n": SolverConfig.fine_n,
    "out": None,
    **dict.fromkeys(_PROBLEM_OPTIONS),
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # invalid configuration exits with code 1
        raise _CliError(message)


def _add_run_flags(parser):
    parser.add_argument("--problem", choices=_PROBLEMS)
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--N", type=int)
    parser.add_argument("--M", type=int)
    parser.add_argument("--paths", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--fine-n", dest="fine_n", type=int)
    parser.add_argument("--out", help="append CSV rows to this file")
    parser.add_argument("--config", help="JSON file with defaults")
    parser.add_argument("--kappa-y", dest="kappa_y", type=float)
    parser.add_argument("--kappa-z", dest="kappa_z", type=float)
    parser.add_argument("--sigma-bar", dest="sigma_bar", type=float)
    parser.add_argument("--rate", type=float)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--x0", type=float,
                        help="start point scalar (example1/example2)")


# the flags of run and sweep; --config values are held to their checks
_RUN_FLAGS = argparse.ArgumentParser(add_help=False)
_add_run_flags(_RUN_FLAGS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fbsde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[_RUN_FLAGS],
                   help="one solver run against its reference")

    sweep = sub.add_parser("sweep", parents=[_RUN_FLAGS],
                           help="run over a list of N or M values")
    sweep.add_argument("--sweep", choices=("N", "M"), required=True)
    sweep.add_argument("--values", required=True,
                       help="comma-separated positive integers")

    diag = sub.add_parser("diagnose", help="evaluate convergence conditions")
    diag.add_argument("--constants", required=True,
                      help="key = value file with the assumption constants")
    diag.add_argument("--out", help="write the JSON report to this file")
    return parser


def _merge_options(args) -> dict:
    options = dict(_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config {config_path}: {exc}")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise _CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        actions = {a.dest: a for a in _RUN_FLAGS._actions}
        for key, value in loaded.items():
            options[key] = _config_value(key, value, actions[key])
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return options


def _config_value(key, value, action):
    """``value`` from the config file, held to its flag's checks; JSON
    integers pass for float flags."""
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted) or (
        action.choices and value not in action.choices
    ):
        expected = "|".join(action.choices or [kind.__name__])
        raise _CliError(f"config key {key!r} must be {expected}, got {value!r}")
    return kind(value)


def _build_problem(options):
    """The named problem, from the problem options that were set and that
    its factory takes; the others are ignored."""
    name = options["problem"]
    # built per call, so a wrapper put over a factory's name here is used
    factory = {"example1": example1_problem, "example2": example2_problem}.get(
        name, functools.partial(decoupled_test_problem, name)
    )
    takes = inspect.signature(factory).parameters
    kwargs = {("x0_scalar" if k == "x0" else k): options[k] for k in _PROBLEM_OPTIONS}
    return factory(**{k: v for k, v in kwargs.items() if k in takes and v is not None})


def _solver_config(options, n, m) -> SolverConfig:
    return SolverConfig(
        n_steps=n,
        num_iterations=m,
        num_paths=options["paths"],
        method=options["method"],
        seed=options["seed"],
        fine_n=options["fine_n"],
    )


def _format_row(problem_name, cfg, report, wall_ms) -> str:
    return ",".join(
        [
            cfg.method,
            problem_name,
            str(cfg.n_steps),
            str(cfg.num_iterations),
            str(cfg.num_paths),
            str(cfg.seed),
            str(cfg.fine_n),
            repr(report.err_x),
            repr(report.err_y),
            repr(report.err_z),
            repr(report.total),
            str(int(wall_ms)),
        ]
    )


def _open_out(path, mode):
    """The ``--out`` file opened in ``mode``, or a null context without one."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, mode)
    except OSError as exc:
        raise _CliError(f"cannot open --out {path}: {exc}") from None


def _emit(line, out):
    """Print a CSV line and append it to ``out`` when given, after the
    header when the file is empty."""
    print(line)
    if out is not None:
        if out.tell() == 0:  # opened at its end: the file is empty
            out.write(CSV_HEADER + "\n")
        print(line, file=out, flush=True)


def _sweep(options, sweep, values) -> int:
    """One CSV row per value of N or M, from one Brownian store.

    From the largest N down, each N strides the reference of a larger N
    it divides, and simulates its own where there is none; grid nodes
    stride exactly (see ``make_time_grid``), so each row depends on its own
    N alone.  Every value's config is checked before any reference is
    simulated, and ``--out`` is opened then.  Each row is appended to it
    as it is made, so a failing value keeps the rows before it.
    """
    problem = _build_problem(options)
    n_values = values if sweep == "N" else [options["N"]]
    grids = {n: make_time_grid(problem.horizon, n) for n in n_values}
    store = sample_fine_increments(
        options["seed"], options["paths"], options["fine_n"],
        problem.dim_w, problem.horizon,
    )
    configs = [
        _solver_config(options, v, options["M"]) if sweep == "N"
        else _solver_config(options, options["N"], v)
        for v in values
    ]

    with _open_out(options["out"], "a") as out:
        references = {}
        for n in sorted(grids, reverse=True):
            base = next((b for b in references if b % n == 0), None)
            references[n] = (simulate_reference(problem, store, grids[n])
                             if base is None else references[base].strided(base // n))

        print(CSV_HEADER)
        totals = []
        for v, cfg in zip(values, configs):
            n = cfg.n_steps
            start = time.perf_counter()
            result = run_markovian_iteration(problem, cfg, store=store)
            report = compute_errors(result.final_paths, references[n], grids[n])
            del result  # freed before the next run is built
            wall_ms = (time.perf_counter() - start) * 1000.0
            totals.append((v, report.total))
            _emit(_format_row(options["problem"], cfg, report, wall_ms), out)
        if sweep == "N" and len(grids) >= 2:
            _emit(f"# rate_total,{repr(fit_rate(totals))}", out)
    return 0


def cmd_run(args) -> int:
    options = _merge_options(args)
    return _sweep(options, "N", [options["N"]])


def cmd_sweep(args) -> int:
    options = _merge_options(args)
    try:
        values = [int(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise _CliError(f"cannot parse --values {args.values!r}")
    if not values or any(v < 1 for v in values):
        raise _CliError("--values needs positive integers")
    return _sweep(options, args.sweep, values)


def cmd_diagnose(args) -> int:
    try:
        with open(args.constants) as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read constants file: {exc}")
    constants = parse_constants(text)
    with _open_out(args.out, "w") as out:
        report = check_conditions(constants)
        print(report_to_table(report))
        print(report_to_json(report), file=out)  # to stdout without --out
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_diagnose(args)
    except (_CliError, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        labels = ", ".join(
            f"{label} {getattr(exc, label)}"
            for label in ("iteration", "step", "path")
            if getattr(exc, label) is not None
        )
        where = f" ({labels})" if labels else ""
        print(f"numerical failure{where}: {exc}", file=sys.stderr)
        return 2
    except FBSDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
