"""The benchmark's workloads and the checks made on their outputs.

A workload is one round of ``fbsde`` commands, built from the seed, and a
``check`` that judges each command's output with computations made apart
from the program: closed-form fields, an Euler loop written here, and the
paper's properties.  ``check`` returns one list of problems per command;
an empty list means the command's output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# example1 at the CLI defaults: kappa_y = kappa_z = 0.1, sigma_bar = 1,
# rate = 1, dim 4, horizon 0.25, x0 = pi/4 in every component.
E1_DIM, E1_T, E1_X0 = 4, 0.25, math.pi / 4
E1_KAPPA_Y = E1_KAPPA_Z = 0.1
E1_SIGMA_BAR, E1_RATE = 1.0, 1.0

# Upper bounds on the CSV errors of an example1 run: 5% of the errors of
# the frozen-state approximation X = x0, Y = u(t, x0), Z = v(t, x0) under
# the closed-form solution (err_x 4.02, err_y 1.83, total 7.19; see
# ``frozen_state_errors`` and the README).
E1_BOUNDS = {"err_x": 0.20, "err_y": 0.09, "total": 0.36}

# Paths of the workload's reference re-integrated by the benchmark.
CHECK_PATHS = 4
QUANTUM = 2.0**-40


def stable_lines(stdout):
    """The output without its wall-clock column, for identity checks."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith(("method,", "#")) or "," not in line:
            lines.append(line)
        else:
            lines.append(line.rsplit(",", 1)[0])
    return lines


def csv_rows(stdout):
    """Data rows of a ``run``/``sweep`` output as dicts, and its rate line."""
    lines = stdout.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]
            if not line.startswith("#")]
    rates = [float(line.split(",")[1]) for line in lines
             if line.startswith("# rate_total,")]
    return rows, rates[0] if rates else None


def _run_argv(problem, method, paths, fine_n, seed, n_steps=32):
    return ["--problem", problem, "--method", method, "--N", str(n_steps), "--M", "5",
            "--paths", str(paths), "--fine-n", str(fine_n), "--seed", str(seed)]


def example1_fields(t, x):
    """Closed-form u(t, x) and v(t, x) of example1."""
    s = np.sin(x).sum(axis=1)
    u = np.exp(-E1_RATE * (E1_T - t)) * s
    v = np.exp(-2.0 * E1_RATE * (E1_T - t)) * E1_SIGMA_BAR * s[:, None] * np.cos(x)
    return u, v


def example1_euler(steps, fine_n, n_steps):
    """Euler paths of example1 decoupled by its closed-form fields.

    ``steps`` yields the ``fine_n`` fine increments, one ``(paths, dim)``
    array per step; returns the states at the ``n_steps + 1`` coarse nodes.
    """
    h = E1_T / fine_n
    window = fine_n // n_steps
    x = None
    nodes = []
    for k, dw in enumerate(steps):
        if x is None:
            x = np.full(dw.shape, E1_X0)
            nodes.append(x)
        u, v = example1_fields(k * h, x)
        drift = E1_KAPPA_Y * E1_SIGMA_BAR * u[:, None] + E1_KAPPA_Z * v
        x = x + drift * h + E1_SIGMA_BAR * u[:, None] * dw
        if (k + 1) % window == 0:
            nodes.append(x)
    return np.stack(nodes, axis=1)


def frozen_state_errors(paths=20000, fine_n=2048, n_steps=32, seed=1):
    """Errors of X = x0, Y = u(t, x0), Z = v(t, x0) against example1's law.

    Simulated with numpy's own generator, independent of the program.
    Gives the base of ``E1_BOUNDS``.
    """
    rng = np.random.default_rng(seed)
    scale = math.sqrt(E1_T / fine_n)
    steps = (rng.standard_normal((paths, E1_DIM)) * scale for _ in range(fine_n))
    x = example1_euler(steps, fine_n, n_steps)
    x0 = np.full((1, E1_DIM), E1_X0)
    err_x = err_y = err_z = 0.0
    for i in range(n_steps + 1):
        t = i * E1_T / n_steps
        u, v = example1_fields(t, x[:, i])
        u0, v0 = example1_fields(t, x0)
        err_x = max(err_x, float(np.mean(np.square(x[:, i] - x0).sum(axis=1))))
        err_y = max(err_y, float(np.mean(np.square(u - u0))))
        if i < n_steps:
            err_z += E1_T / n_steps * float(np.mean(np.square(v - v0).sum(axis=1)))
    return {"err_x": err_x, "err_y": err_y, "err_z": err_z,
            "total": err_x + err_y + err_z}


class Example1Run:
    """One ``fbsde run`` on example1, differentiation, M=5."""

    capture = None

    def __init__(self, paths, fine_n, n_steps=32):
        self.paths, self.fine_n, self.n_steps = paths, fine_n, n_steps

    def prepare(self, root, workdir):
        pass

    def commands(self, seed):
        return [["run"] + _run_argv("example1", "differentiation", self.paths,
                                    self.fine_n, seed, self.n_steps)]

    def check(self, seed, ops):
        problems = []
        rows, _ = csv_rows(ops[0].stdout)
        if len(rows) != 1:
            return [[f"expected one CSV row, got {len(rows)}"]]
        row = rows[0]
        expected = {"method": "differentiation", "problem": "example1",
                    "N": str(self.n_steps),
                    "M": "5", "paths": str(self.paths), "seed": str(seed),
                    "fineN": str(self.fine_n)}
        for key, value in expected.items():
            if row[key] != value:
                problems.append(f"{key} is {row[key]}, expected {value}")
        for key, bound in E1_BOUNDS.items():
            if not float(row[key]) <= bound:
                problems.append(f"{key} {row[key]} above its bound {bound}")
        return [problems]


class Example1Reference(Example1Run):
    """``Example1Run`` that also re-integrates the first reference paths."""

    capture = "simulate_reference"

    def __init__(self, paths, fine_n):
        super().__init__(paths, fine_n)
        self._expected = {}

    def _expected_nodes(self, seed):
        """Benchmark-side Euler nodes, and problems with the increments."""
        if seed not in self._expected:
            from fbsdekit.brownian import sample_fine_increments

            store = sample_fine_increments(seed, CHECK_PATHS, self.fine_n, E1_DIM, E1_T)
            dw = store.increments
            problems = []
            if not np.array_equal(np.rint(dw / QUANTUM) * QUANTUM, dw):
                problems.append("increments are not multiples of 2^-40")
            var = E1_T / self.fine_n
            # sample variance of n normals: standard error var * sqrt(2 / n)
            tol = 6.0 * var * math.sqrt(2.0 / dw.size)
            if abs(float(np.mean(np.square(dw))) - var) > tol:
                problems.append(f"increment variance {np.mean(np.square(dw))} "
                                f"not within {tol} of {var}")
            self._expected[seed] = (
                example1_euler(dw.transpose(1, 0, 2), self.fine_n, self.n_steps),
                problems)
        return self._expected[seed]

    def check(self, seed, ops):
        problems = super().check(seed, ops)[0]
        x_nodes, store_problems = self._expected_nodes(seed)
        problems += store_problems
        if len(ops[0].captured) != 1:
            return [problems + ["the reference was not simulated exactly once"]]
        ref = ops[0].captured[0]
        x = ref.x[:CHECK_PATHS]
        deviation = float(np.max(np.abs(x - x_nodes)))
        if not deviation <= 1e-9:
            problems.append(f"reference states deviate from the Euler loop by {deviation}")
        for i in range(x.shape[1]):
            u, v = example1_fields(i * E1_T / self.n_steps, x[:, i])
            if not (np.allclose(ref.y[:CHECK_PATHS, i], u, rtol=0, atol=1e-12)
                    and np.allclose(ref.z[:CHECK_PATHS, i], v, rtol=0, atol=1e-12)):
                problems.append(f"reference y/z at node {i} differ from u/v")
                break
        return [problems]


class Example2Sweep:
    """The paper's comparison: one N sweep per method on example2."""

    capture = None
    values = (2, 4, 8, 16, 32)

    def __init__(self, paths, fine_n):
        self.paths, self.fine_n = paths, fine_n

    def prepare(self, root, workdir):
        pass

    def commands(self, seed):
        sweep = ["sweep", "--sweep", "N", "--values", ",".join(map(str, self.values))]
        return [sweep + _run_argv("example2", method, self.paths, self.fine_n, seed)
                for method in ("differentiation", "direct")]

    def check(self, seed, ops):
        results = []
        for op, method in zip(ops, ("differentiation", "direct")):
            problems = []
            rows, rate = csv_rows(op.stdout)
            if [int(r["N"]) for r in rows] != list(self.values) or any(
                r["method"] != method for r in rows
            ):
                results.append([f"unexpected rows for {method}"])
                continue
            err_z = {int(r["N"]): float(r["err_z"]) for r in rows}
            if method == "differentiation" and not (rate is not None and rate <= -0.8):
                problems.append(f"differentiation rate_total {rate} is above -0.8")
            if method == "direct":
                if not err_z[32] > err_z[4]:
                    problems.append(f"direct err_z(32) {err_z[32]} <= err_z(4) {err_z[4]}")
                if not err_z[32] >= 1e-3:
                    problems.append(f"direct err_z(32) {err_z[32]} below 1e-3")
            results.append(problems)
        return results


class DiagnoseGrid:
    """``fbsde diagnose`` over a grid in T and b_z around the demo constants."""

    capture = None
    horizons = (0.25, 0.5, 1.0)
    couplings = (0.01, 0.1, 0.5)

    def prepare(self, root, workdir):
        base = (Path(root) / "demos" / "constants_weak_coupling.txt").read_text()
        self.files = {}
        for T in self.horizons:
            for b_z in self.couplings:
                lines = []
                for line in base.splitlines():
                    key = line.split("=", 1)[0].strip()
                    if key == "T":
                        line = f"T = {T!r}"
                    elif key == "b_z":
                        line = f"b_z = {b_z!r}"
                    lines.append(line)
                path = Path(workdir) / f"constants_T{T}_bz{b_z}.txt"
                path.write_text("\n".join(lines) + "\n")
                self.files[T, b_z] = str(path)

    def commands(self, seed):
        return [["diagnose", "--constants", self.files[key]] for key in sorted(self.files)]

    def check(self, seed, ops):
        results, reports = [], {}
        for key, op in zip(sorted(self.files), ops):
            problems = []
            text = op.stdout
            try:
                report = json.loads(text[text.index("\n{") + 1:])
            except ValueError:
                results.append(["no JSON report in the output"])
                continue
            reports[key] = report
            expected = {
                "conditionL0": report["L0"] < math.exp(-1.0),
                "conditionC1": report["c1_at_L1"] < 1.0,
                "conditionC2": report["c2_at_L1L1"] < 1.0,
            }
            for flag, value in expected.items():
                if report[flag] != value:
                    problems.append(f"{flag} is {report[flag]}, its inequality says {value}")
            if not abs(report["A3"] - 1.0) <= 1e-12:
                problems.append(f"A3 is {report['A3']}, not 1")
            results.append(problems)
        if len(reports) == len(self.files):
            grid_problems = self._monotone(reports)
            results = [problems + grid_problems for problems in results]
        return results

    def _monotone(self, reports):
        problems = []
        for name in ("L0", "c2_at_L1L1"):
            for T in self.horizons:
                series = [reports[T, b_z][name] for b_z in self.couplings]
                if series != sorted(series):
                    problems.append(f"{name} decreases along b_z at T={T}: {series}")
            for b_z in self.couplings:
                series = [reports[T, b_z][name] for T in self.horizons]
                if series != sorted(series):
                    problems.append(f"{name} decreases along T at b_z={b_z}: {series}")
        return problems


WORKLOADS = {
    # fbsde run at the default fine grid: the reference is most of the work
    "e1-reference": Example1Reference(paths=128, fine_n=20480),
    # small fine grid, two full 4096-path Gram chunks: the fits are the work
    "e1-fit": Example1Run(paths=8192, fine_n=64, n_steps=8),
    # the paper's Z-coupled comparison, one sweep per method
    "e2-sweep": Example2Sweep(paths=4000, fine_n=1024),
    # scalar convergence-condition evaluation, no numpy-side solver work
    "diagnose-grid": DiagnoseGrid(),
}
