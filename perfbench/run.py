"""Run one workload of the fbsde benchmark and print its metrics.

    python3 perfbench/run.py --workload e1-fit [--seed 7] [--seconds 25] [--trace 0]

Run from the root of a source checkout; the program is imported from its
``src/``.  The workload's ``fbsde`` commands run in this process through
``fbsdekit.cli.main``, in whole rounds, until ``--seconds`` have passed.
Every command's output is then checked outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``run_s`` (mean wall time of the run's rounds,
that is their total time divided by their number),
``setup_s`` (median time from the start of a fresh interpreter to
``fbsdekit.cli`` imported, over ``SETUP_SAMPLES`` interpreters started
between rounds at even intervals of the run) and ``peak_rss_mb``
(peak resident memory of this process).  With ``--trace 1`` traced rounds
run until ``--seconds`` have passed, then one untraced round; the line
holds the per-layer metrics of the traced rounds (medians), and
``trace.overhead_s`` is the traced round time minus that of the untraced
round.  Results, with the machine and
software versions, are appended to ``perfbench/out/results.jsonl``; the
spans of the last traced round go to ``perfbench/out/spans-*.tsv``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
SETUP_CHILD = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "import fbsdekit.cli; print(time.monotonic())")


@dataclass
class Op:
    """One ``fbsde`` command as run: exit code, output, wall time."""

    argv: list
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    captured: list


def _set_thread_env():
    """Cap every pool at the core count; inherited caps would override it."""
    for var in THREAD_CAPS:
        os.environ.pop(var, None)
    os.environ["FBSDE_THREADS"] = str(len(os.sched_getaffinity(0)))


def setup_probe():
    """Seconds from a fresh interpreter's start to ``fbsdekit.cli`` ready."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


@contextlib.contextmanager
def capture_returns(module, attr, sink):
    """Append every return value of ``module.attr`` to ``sink``."""
    if attr is None:
        yield
        return
    inner = getattr(module, attr)

    def tap(*args, **kwargs):
        result = inner(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, tap)
    try:
        yield
    finally:
        setattr(module, attr, inner)


def run_round(cli, commands, capture):
    """Run each command once; return the round's wall seconds and its ops."""
    ops = []
    round_start = time.perf_counter()
    for argv in commands:
        out, err, captured = io.StringIO(), io.StringIO(), []
        start = time.perf_counter()
        with capture_returns(cli, capture, captured), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # counted as a failed operation, run goes on
                traceback.print_exc()
                rc = -1
        ops.append(Op(argv, rc, out.getvalue(), err.getvalue(),
                      time.perf_counter() - start, captured))
    return time.perf_counter() - round_start, ops


def src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """The checkout's commit, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    import numpy
    import scipy

    return {
        "machine": platform.platform(), "arch": platform.machine(),
        "cores": len(os.sched_getaffinity(0)),
        "fbsde_threads": os.environ["FBSDE_THREADS"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(), "src_sha256": src_digest(),
    }


def check_ops(workload, seed, rounds, rows_file):
    """Problems per op, round by round; an op fails if it has any."""
    import workloads

    reference = None
    if rows_file.is_file():
        reference = json.loads(rows_file.read_text())
    verdicts = []
    for ops in rounds:
        problems = [[f"exit code {op.rc}: {op.stderr[-500:]}"] if op.rc != 0 else []
                    for op in ops]
        if all(op.rc == 0 for op in ops):
            try:
                checked = workload.check(seed, ops)
            except (KeyError, IndexError, ValueError) as exc:
                checked = [[f"output not understood: {exc!r}"]] * len(ops)
            problems = [p + c for p, c in zip(problems, checked)]
        lines = [workloads.stable_lines(op.stdout) for op in ops]
        if reference is None:
            reference = lines
        for i, (got, want) in enumerate(zip(lines, reference)):
            if got != want:
                problems[i].append("CSV rows differ from another run with this seed")
        verdicts.append(problems)
    if not rows_file.is_file() and not any(p for ps in verdicts for p in ps):
        tmp = rows_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(reference))
        os.replace(tmp, rows_file)
    return verdicts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fbsdekit" / "cli.py").is_file():
        print(f"error: no fbsdekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    _set_thread_env()  # before numpy is imported
    sys.path.insert(0, str(SRC))
    import fbsdekit.cli as cli
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(ROOT, workdir)
    commands = workload.commands(args.seed)
    info = provenance()

    start = time.perf_counter()
    rounds, times, setup = [], [], []
    traced, spans = [], None
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    try:
        while not rounds or time.perf_counter() - start < args.seconds:
            # probe k is due once k / SETUP_SAMPLES of the run has passed
            due = (time.perf_counter() - start) * SETUP_SAMPLES / args.seconds
            if not tr and len(setup) <= min(due, SETUP_SAMPLES - 1):
                setup.append(setup_probe())
            seconds, ops = run_round(cli, commands, workload.capture)
            rounds.append(ops)
            if tr:
                spans = tr.take_spans()
                traced.append(tracer.per_layer_metrics(spans, seconds))
            else:
                times.append(seconds)
    finally:
        if tr:
            tr.uninstall()
    if tr:  # one untraced round: the overhead and the traced/untraced rows
        seconds, ops = run_round(cli, commands, workload.capture)
        rounds.append(ops)
        times.append(seconds)
    while not tr and len(setup) < SETUP_SAMPLES:
        setup.append(setup_probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # keyed on the commands too, so a resized workload is not held to old rows
    key = hashlib.sha256((info["src_sha256"] + json.dumps(commands)).encode())
    rows_file = OUT / f"rows-{args.workload}-s{args.seed}-{key.hexdigest()[:12]}.json"
    verdicts = check_ops(workload, args.seed, rounds, rows_file)
    attempted = sum(len(ops) for ops in rounds)
    failures = [(r, i, p) for r, problems in enumerate(verdicts)
                for i, p in enumerate(problems) if p]

    if args.trace:
        metrics = {name: {"value": statistics.median(m[name][0] for m in traced),
                          "unit": unit}
                   for name, (_, unit) in traced[0].items()}
        metrics["trace.overhead_s"] = {
            "value": metrics["trace.run_s"]["value"] - times[-1], "unit": "s"}
        spans_file = OUT / f"spans-{args.workload}-s{args.seed}.tsv"
        with open(spans_file, "w") as handle:
            handle.write("id\tparent\tname\tt0\tt1\tself_s\tcount\n")
            for span in spans:
                handle.write("\t".join(map(str, span)) + "\n")
    else:
        metrics = {
            "run_s": {"value": statistics.fmean(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "round_s": times, "setup_s": setup,
              "provenance": info,
              "failures": [f"round {r} op {i}: {'; '.join(p)}" for r, i, p in failures],
              **result}
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    for line in record["failures"]:
        print("FAILED", line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"round_s {[round(t, 3) for t in times]}, {info['cores']} cores, "
          f"FBSDE_THREADS={info['fbsde_threads']}, numpy {info['numpy']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
