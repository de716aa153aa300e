"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py sets
    python3 perfbench/report.py trace
    python3 perfbench/report.py full-default

``sets`` runs every workload once per seed 1-10, in two sets one after the
other, each run in its own ``perfbench/run.py`` process.  It prints per set
and metric the median, the quartiles and the quartile spread as a share of
the median, and how far each set's median lies above the other's.
``trace`` runs each workload traced at seed 7 and prints the self time of
every layer as a share of the traced round.  ``full-default`` runs the default ``fbsde run``
(example1 and example2, 15000 paths, fine_n 20480) traced, once; it takes
several minutes.  Raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEEDS = range(1, 11)
SETS = 2
TRACE_SEED = 7


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=900)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def cmd_sets():
    results = {w: [] for w in WORKLOADS}
    for set_index in range(SETS):
        for workload in WORKLOADS:
            runs = []
            for seed in SEEDS:
                started = time.time()
                runs.append(run_once(workload, seed, 0))
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{time.time() - started:.1f} s wall", file=sys.stderr)
            results[workload].append(runs)
    out = HERE / "out" / f"sets-{int(time.time())}.json"
    out.write_text(json.dumps(results))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print("| workload | metric | set | median | Q1 | Q3 | spread | bound | failed/attempted |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---:|")
    for workload, sets in results.items():
        for name in bounds:
            medians = []
            for k, runs in enumerate(sets, start=1):
                med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                print(f"| {workload} | {name} | {k} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                      f"| {rel:.3f} | {bounds[name]} | {failed}/{attempted} |")
            print(f"| {workload} | {name} | 2 vs 1 | {medians[1] / medians[0] - 1:+.3f} "
                  f"| | | | | |")
            print(f"| {workload} | {name} | 1 vs 2 | {medians[0] / medians[1] - 1:+.3f} "
                  f"| | | | | |")


def cmd_trace():
    layers = ("brownian", "reference", "problems", "solver", "regression",
              "fields", "diagnostics", "cli")
    print("| workload | traced round s | overhead s | "
          + " | ".join(layers) + " | coverage |")
    print("|---|---:|---:|" + "---:|" * (len(layers) + 1))
    for workload in WORKLOADS:
        result = run_once(workload, TRACE_SEED, 1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        shares = [f"{m[f'{layer}.self_s'] / m['trace.run_s']:.1%}" for layer in layers]
        print(f"| {workload} | {m['trace.run_s']:.3f} | {m['trace.overhead_s']:+.3f} | "
              + " | ".join(shares) + f" | {m['trace.coverage']:.4f} |")
        (HERE / "out" / f"trace-{workload}-s{TRACE_SEED}.json").write_text(json.dumps(result))


def cmd_full_default():
    sys.path.insert(0, str(HERE))
    import run

    run._set_thread_env()
    sys.path.insert(0, str(run.SRC))
    import contextlib
    import io

    import fbsdekit.cli as cli
    import tracer

    for problem in ("example1", "example2"):
        tr = tracer.Tracer()
        tr.install()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", "--problem", problem])
            wall = time.perf_counter() - start
        finally:
            tr.uninstall()
        table = tracer.summarize(tr.spans)
        reference = table["reference.simulate_reference"][1]
        solver = table["solver.run_markovian_iteration"][1]
        print(f"{problem}: exit {rc}, traced wall {wall:.1f} s, "
              f"simulate_reference {reference:.1f} s ({reference / wall:.1%}), "
              f"run_markovian_iteration {solver:.1f} s ({solver / wall:.1%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = {"sets": cmd_sets, "trace": cmd_trace, "full-default": cmd_full_default}
    parser.add_argument("command", choices=commands)
    commands[parser.parse_args().command]()


if __name__ == "__main__":
    main()
