"""Byte-identity manifest of the program's outputs, and its comparison.

    PYTHONPATH=src python3 tools/identity.py OUT.json
    python3 tools/identity.py --compare A.json B.json

The first form runs, in this process and against the ``fbsdekit`` found on
``PYTHONPATH``:

- the ``fbsde`` commands of the benchmark's four workloads, as
  ``perfbench/workloads.py`` builds them, at seeds 7 and 3;
- ``fbsde run`` on example1 with the direct method (N 8, M 5, 2000 paths,
  fine_n 1024, seed 3);
- ``fbsde run`` on example1 at ``--dim 15`` (136 features; N 2, M 2, 3000
  paths, fine_n 4, seed 7), a basis large enough that an unpinned Cholesky
  factor would split across OpenBLAS threads;
- ``fbsde sweep --sweep N --values 5,15`` and ``fbsde run --N 5`` on
  example2 (M 2, 300 paths, fine_n 15, seed 3): N = 5 strides the
  15-step reference by three, so a change to the grid's node times or to
  the reference striding shows in these entries;
- ``run_markovian_iteration`` for both methods on example1 and example2
  (N 8, M 3, 3000 paths, fine_n 256, seed 7): its ``write_checkpoint``
  file and its final paths.  A checkpoint is one table for either
  method; a direct one holds fields of ``1 + dim_w`` coefficient columns,
  the value column first;
- ``check_conditions`` on twelve constant sets: the nine of the
  ``diagnose-grid`` workload, the demo constants file, default example1,
  and example1 at ``kappa_y = kappa_z = 0.01, sigma_bar = 0.2, dim = 1``.

A command's standard output (without its wall-clock column), its standard
error and its exit code are separate entries.  OUT.json holds the sha256
of every entry, with the Python and numpy versions (and scipy's, where it
imports), the ``FBSDE_THREADS`` setting, a digest of the package's sources
and ``blas_pins``: whether the package found the thread-count symbols of
numpy's bundled OpenBLAS, which it pins to one thread around each
least-squares solve.  ``blas_threads`` is that pool's thread count after
the run (``None`` where they were not found).  The script imports
``fbsdekit`` before numpy, as the ``fbsde`` command does, so the
manifest runs on the pool the command runs on.  It also records
``draw_producer``: whether the gate of the Brownian walk lets a walk fork
a draw producer under this ``FBSDE_THREADS`` and core count (false for
sources without one).  The walks of every workload command cross the
gate's size (``e1-reference`` 10.5 M normals, ``e2-sweep`` 4.1 M and
``e1-fit`` 2.1 M), and so do those of the direct run and the checkpoint
runs; the ``--dim 15`` run's 180 k normals and the N = 5 runs' 4.5 k
stay under it.  So
``--compare`` of manifests made at ``FBSDE_THREADS=1`` and ``=2`` on a
machine of two cores or more covers both the in-process and the forked
draws.  Point ``PYTHONPATH`` at another checkout's ``src`` to make its
manifest with the same commands.

``--compare`` prints the names of the entries whose hashes differ, or that
only one manifest has, and exits 1 if there are any.  A manifest takes
about 6 s on a 2-vCPU machine with ``FBSDE_THREADS=1``; the check is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

# before numpy, which the workloads import: fbsdekit sets its BLAS caps first
with contextlib.suppress(ImportError):  # --compare needs no package
    import fbsdekit  # noqa: E402, F401
import workloads  # noqa: E402  (the benchmark's own command lists)

SEEDS = (7, 3)
DIRECT_RUN = ["run", "--problem", "example1", "--method", "direct", "--N", "8",
              "--M", "5", "--paths", "2000", "--fine-n", "1024", "--seed", "3"]
CHECKPOINT_RUN = {"n_steps": 8, "num_iterations": 3, "num_paths": 3000,
                  "fine_n": 256}
LARGE_BASIS_RUN = ["run", "--problem", "example1", "--dim", "15", "--N", "2",
                   "--M", "2", "--paths", "3000", "--fine-n", "4", "--seed", "7"]
STRIDE_FLAGS = ["--problem", "example2", "--M", "2", "--paths", "300",
                "--fine-n", "15", "--seed", "3"]
STRIDE_SWEEP = ["sweep", "--sweep", "N", "--values", "5,15", *STRIDE_FLAGS]
STRIDE_RUN = ["run", "--N", "5", *STRIDE_FLAGS]
WEAK_EXAMPLE1 = {"kappa_y": 0.01, "kappa_z": 0.01, "sigma_bar": 0.2, "dim": 1}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_command(cli, argv):
    """``(exit code, stdout, stderr)`` of one ``fbsde`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # recorded in the entries, the check goes on
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def command_entries(name, rc, stdout, stderr):
    return {
        f"{name} stdout": sha256("\n".join(workloads.stable_lines(stdout))),
        f"{name} stderr": sha256(stderr),
        f"{name} rc": sha256(str(rc)),
    }


def paths_digest(paths) -> str:
    """sha256 of a path batch's ``x``, ``y`` and ``z``, whatever their layout."""
    import numpy as np

    digest = hashlib.sha256()
    for name in ("x", "y", "z"):
        arr = getattr(paths, name)
        digest.update(f"{name}{arr.shape}{arr.dtype}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def constant_sets(grid_files):
    """The twelve ``AssumptionConstants`` of the diagnose entries, by name."""
    from fbsdekit.diagnostics import parse_constants
    from fbsdekit.problems import example1_assumption_constants

    sets = {
        f"T={T} b_z={b_z}": parse_constants(Path(path).read_text())
        for (T, b_z), path in sorted(grid_files.items())
    }
    demo = ROOT / "demos" / "constants_weak_coupling.txt"
    sets["demo"] = parse_constants(demo.read_text())
    sets["example1 default"] = example1_assumption_constants()
    sets["example1 weak"] = example1_assumption_constants(**WEAK_EXAMPLE1)
    return sets


def manifest_entries(workdir):
    import fbsdekit.cli as cli
    from fbsdekit.diagnostics import check_conditions, report_to_json
    from fbsdekit.problems import example1_problem, example2_problem
    from fbsdekit.solver import (
        METHODS,
        SolverConfig,
        run_markovian_iteration,
        write_checkpoint,
    )

    entries = {}
    for name, workload in workloads.WORKLOADS.items():
        workload.prepare(ROOT, workdir)
        for seed in SEEDS:
            for k, argv in enumerate(workload.commands(seed)):
                entries.update(command_entries(
                    f"{name} seed={seed} op={k}", *run_command(cli, argv)
                ))
    entries.update(command_entries(
        "run example1 direct seed=3", *run_command(cli, DIRECT_RUN)
    ))
    entries.update(command_entries(
        "run example1 dim=15 seed=7", *run_command(cli, LARGE_BASIS_RUN)
    ))
    entries.update(command_entries(
        "sweep example2 N=5,15 seed=3", *run_command(cli, STRIDE_SWEEP)
    ))
    entries.update(command_entries(
        "run example2 N=5 seed=3", *run_command(cli, STRIDE_RUN)
    ))
    for problem in (example1_problem(), example2_problem()):
        for method in METHODS:
            result = run_markovian_iteration(
                problem, SolverConfig(method=method, **CHECKPOINT_RUN)
            )
            label = f"{problem.name} {method}"
            checkpoint = Path(workdir) / f"{problem.name}-{method}.jsonl"
            write_checkpoint(result, checkpoint)
            entries[f"checkpoint {label}"] = sha256(checkpoint.read_bytes())
            entries[f"final_paths {label}"] = paths_digest(result.final_paths)
    grid_files = workloads.WORKLOADS["diagnose-grid"].files
    for name, constants in constant_sets(grid_files).items():
        entries[f"diagnose {name}"] = sha256(
            report_to_json(check_conditions(constants))
        )
    return entries


def provenance():
    import numpy

    import fbsdekit
    import fbsdekit.brownian
    import fbsdekit.regression

    gate = getattr(fbsdekit.brownian, "_producer_allowed", None)
    regression = fbsdekit.regression
    if hasattr(regression, "_BLAS_POOL"):
        pool = regression._BLAS_POOL
    else:  # sources that kept the pool in a one-entry dict
        pool = getattr(regression, "_BLAS_POOLS", {}).get("numpy")
    package = Path(fbsdekit.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "FBSDE_THREADS": os.environ.get("FBSDE_THREADS"),
        "fbsdekit_sources": digest.hexdigest(),
        "blas_pins": {"numpy": pool is not None},
        "blas_threads": pool[0]() if pool else None,
        "draw_producer": bool(gate and gate()),
    }
    with contextlib.suppress(ImportError):
        import scipy

        info["scipy"] = scipy.__version__
    return info


def write_manifest(out):
    with tempfile.TemporaryDirectory() as workdir:
        entries = manifest_entries(workdir)
    manifest = {"provenance": provenance(), "outputs": entries}
    Path(out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} entries written to {out}")
    return 0


def compare(first, second):
    """Print the entries that differ between two manifests; 1 if any do."""
    a, b = (json.loads(Path(p).read_text()) for p in (first, second))
    for key in sorted(set(a["provenance"]) | set(b["provenance"])):
        if a["provenance"].get(key) != b["provenance"].get(key):
            print(f"# {key}: {a['provenance'].get(key)} | {b['provenance'].get(key)}")
    outputs_a, outputs_b = a["outputs"], b["outputs"]
    names = sorted(set(outputs_a) | set(outputs_b))
    differing = [n for n in names if outputs_a.get(n) != outputs_b.get(n)]
    for name in differing:
        only = ("" if name in outputs_a and name in outputs_b
                else f" (only in {first if name in outputs_a else second})")
        print(name + only)
    print(f"{len(differing)} of {len(names)} entries differ")
    return 1 if differing else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="manifest to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("give OUT.json or --compare A B")
    return write_manifest(args.out)


if __name__ == "__main__":
    sys.exit(main())
