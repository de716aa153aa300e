"""Tests for the experiment CLI."""

import json
import os

import pytest

from fbsdekit import cli, regression
from fbsdekit.brownian import make_time_grid, sample_fine_increments
from fbsdekit.errors import NumericalFailure
from fbsdekit.problems import decoupled_test_problem, example1_problem
from fbsdekit.reference import compute_errors, simulate_reference
from fbsdekit.solver import SolverConfig, run_markovian_iteration

from conftest import THREAD_CAP_VARS

FAST = [
    "--paths", "400", "--fine-n", "64", "--seed", "5",
]


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall(csv_text):
    lines = []
    for line in csv_text.strip().splitlines():
        if line.startswith("#") or line == cli.CSV_HEADER:
            lines.append(line)
        else:
            lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


class TestRun:
    def test_constant_problem_tiny_error(self, capsys):
        code, out, _ = run_cli(
            capsys, ["run", "--problem", "constant", "--N", "4", "--M", "1"] + FAST
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == cli.CSV_HEADER
        fields = row.split(",")
        assert fields[0] == "differentiation"
        assert fields[1] == "constant"
        assert float(fields[8]) < 1e-8  # err_y
        assert fields[2:7] == ["4", "1", "400", "5", "64"]

    def test_deterministic_rows(self, capsys):
        argv = ["run", "--problem", "example2", "--N", "4", "--M", "2"] + FAST
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert strip_wall(out1) == strip_wall(out2)

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            (["--f-mode", "implicit-yz"], None, "--f-mode"),
            (["--fresh-noise"], None, "--fresh-noise"),
            ([], {"f_mode": "explicit-ynext"}, "f_mode"),
            ([], {"fresh_noise": True}, "fresh_noise"),
            (["--ridge", "1e-10"], None, "--ridge"),
            (["--inner-iters", "3"], None, "--inner-iters"),
            ([], {"ridge": 1e-10}, "ridge"),
            ([], {"inner_iters": 3}, "inner_iters"),
        ],
        ids=["flag-f-mode", "flag-fresh-noise", "config-f_mode",
             "config-fresh_noise", "flag-ridge", "flag-inner-iters",
             "config-ridge", "config-inner_iters"],
    )
    def test_removed_options_exit_one(self, capsys, tmp_path, flags, config,
                                      named):
        # the method alone fixes the fit, every iteration runs on the
        # store's increments, and the fits' ridge and solve count are
        # constants: none of these is settable any more
        argv = ["run", "--problem", "constant", "--N", "2", "--M", "1"] + FAST
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        code, _, err = run_cli(capsys, argv + flags)
        assert code == 1
        assert named in err

    def test_out_file_appends_with_single_header(self, capsys, tmp_path):
        path = tmp_path / "runs.csv"
        argv = [
            "run", "--problem", "constant", "--N", "2", "--M", "1",
            "--out", str(path),
        ] + FAST
        run_cli(capsys, argv)
        run_cli(capsys, argv)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 3
        assert lines[1].count(",") == lines[2].count(",") == 11

    @pytest.mark.parametrize("command", [
        ["run", "--N", "2"],
        ["sweep", "--sweep", "N", "--values", "2,4"],
    ], ids=["run", "sweep"])
    def test_unopenable_out_exits_one_before_the_reference(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # a directory for --out used to fail with a traceback after the
        # reference and every solve
        def no_reference(*args):
            raise AssertionError("reference simulated")

        monkeypatch.setattr(cli, "simulate_reference", no_reference)
        code, out, err = run_cli(capsys, command + [
            "--problem", "constant", "--M", "1", "--out", str(tmp_path),
        ] + FAST)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot open --out {tmp_path}")
        assert "Traceback" not in err

    def test_config_file_precedence(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": "constant", "N": 4, "M": 1,
                                      "paths": 300, "fine_n": 16, "seed": 3}))
        code, out, _ = run_cli(capsys, ["run", "--config", str(config), "--N", "2"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[1] == "constant"
        assert row[2] == "2"  # flag beats config
        assert row[4] == "300"  # config beats default

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, ["run", "--config", str(config)])
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize(
        "key, value", [("horizon", "x"), ("dim", 2.5), ("N", "4")],
        ids=["string-for-float", "float-for-int", "string-for-int"],
    )
    def test_config_value_of_the_wrong_type_exits_one(self, capsys, tmp_path,
                                                      key, value):
        config = {"problem": "example1", "N": 4, "M": 1, "paths": 400,
                  "fine_n": 64}
        config[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, ["run", "--config", str(path)])
        assert code == 1
        assert f"config key {key!r}" in err

    def test_config_takes_integers_for_float_keys(self, capsys, tmp_path):
        base = ["run", "--problem", "example2", "--N", "4", "--M", "1"] + FAST
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"x0": 1, "horizon": 1}))
        code, from_config, _ = run_cli(capsys, base + ["--config", str(path)])
        _, from_flags, _ = run_cli(capsys, base + ["--x0", "1", "--horizon", "1"])
        assert code == 0
        assert strip_wall(from_config) == strip_wall(from_flags)

    def test_invalid_flag_value_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--method", "bogus"])
        assert code == 1
        assert "method" in err

    def test_incompatible_grid_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["run", "--problem", "constant", "--N", "3", "--M", "1"] + FAST,
        )
        assert code == 1
        assert "divisible" in err

    def test_numerical_failure_exits_two(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalFailure("boom", iteration=2, step=3)

        monkeypatch.setattr(cli, "run_markovian_iteration", explode)
        code, _, err = run_cli(
            capsys, ["run", "--problem", "constant", "--N", "2", "--M", "1"] + FAST
        )
        assert code == 2
        assert "iteration 2" in err and "step 3" in err

    def test_out_file_keeps_the_rows_before_a_failing_value(self, capsys,
                                                            monkeypatch,
                                                            tmp_path):
        calls = []

        def second_run_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalFailure("boom", iteration=1, step=0)
            return run_markovian_iteration(*args, **kwargs)

        monkeypatch.setattr(cli, "run_markovian_iteration", second_run_fails)
        path = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, [
            "sweep", "--sweep", "N", "--values", "2,4", "--problem", "constant",
            "--M", "1", "--paths", "300", "--fine-n", "16", "--out", str(path),
        ])
        assert code == 2
        header, row = out.strip().splitlines()
        assert path.read_text() == f"{header}\n{row}\n"
        assert header == cli.CSV_HEADER and row.split(",")[2] == "2"

    def test_numerical_failure_names_only_the_labels_it_has(self, capsys,
                                                            monkeypatch):
        # a reference failure has a step and a path but no iteration
        def explode(*args, **kwargs):
            raise NumericalFailure("non-finite reference state", step=3, path=5)

        monkeypatch.setattr(cli, "simulate_reference", explode)
        code, _, err = run_cli(
            capsys, ["run", "--problem", "constant", "--N", "2", "--M", "1"] + FAST
        )
        assert code == 2
        assert "(step 3, path 5)" in err and "None" not in err


class TestProblemFlags:
    @pytest.mark.parametrize(
        "flags, make_problem",
        [
            (["--problem", "example1", "--kappa-y", "0.2", "--kappa-z", "0.05",
              "--sigma-bar", "0.8", "--rate", "0.5", "--dim", "2",
              "--horizon", "0.5", "--x0", "0.3"],
             lambda: example1_problem(kappa_y=0.2, kappa_z=0.05, sigma_bar=0.8,
                                      rate=0.5, dim=2, horizon=0.5,
                                      x0_scalar=0.3)),
            (["--problem", "brownian-linear", "--horizon", "0.5"],
             lambda: decoupled_test_problem("brownian-linear", horizon=0.5)),
        ],
        ids=["example1", "brownian-linear"],
    )
    def test_flags_reach_the_factory(self, capsys, flags, make_problem):
        # the row equals the library's, on the problem the factory builds
        code, out, _ = run_cli(capsys, ["run", "--N", "4", "--M", "2"] + flags + FAST)
        assert code == 0
        problem = make_problem()
        cfg = SolverConfig(n_steps=4, num_iterations=2, num_paths=400, seed=5,
                           fine_n=64)
        grid = make_time_grid(problem.horizon, 4)
        store = sample_fine_increments(5, 400, 64, problem.dim_w, problem.horizon)
        result = run_markovian_iteration(problem, cfg, store=store)
        report = compute_errors(
            result.final_paths, simulate_reference(problem, store, grid), grid
        )
        row = [cfg.method, problem.name, "4", "2", "400", "5", "64"] + [
            repr(v) for v in (report.err_x, report.err_y, report.err_z, report.total)
        ]
        assert strip_wall(out) == cli.CSV_HEADER + "\n" + ",".join(row)

    @pytest.mark.parametrize(
        "problem, ignored",
        [("example2", ["--kappa-y", "0.2", "--dim", "3"]),
         ("constant", ["--x0", "2", "--dim", "5", "--kappa-z", "3"])],
    )
    def test_flags_the_factory_does_not_take_are_ignored(self, capsys, problem,
                                                         ignored):
        base = ["run", "--problem", problem, "--N", "4", "--M", "2"] + FAST
        _, plain, _ = run_cli(capsys, base)
        code, flagged, _ = run_cli(capsys, base + ignored)
        assert code == 0
        assert strip_wall(flagged) == strip_wall(plain)


class TestSweep:
    def test_n_sweep_rows_and_rate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--sweep", "N", "--values", "2,4,8",
             "--problem", "brownian-linear", "--M", "1"] + FAST,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 5
        assert lines[-1].startswith("# rate_total,")
        assert [line.split(",")[2] for line in lines[1:4]] == ["2", "4", "8"]

    def test_n_sweep_over_one_distinct_n_has_no_rate(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--sweep", "N", "--values", "4,4",
             "--problem", "brownian-linear", "--M", "1"] + FAST,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["4", "4"]
        assert not any(line.startswith("#") for line in lines)

    @pytest.mark.parametrize("values, n, flags", [
        ("4,8", "8", FAST),
        # N = 5 strides the 15-step reference, by three: its node times
        # must be the 5-step grid's own to the last bit
        ("5,15", "5", ["--paths", "300", "--fine-n", "15", "--seed", "3"]),
    ], ids=["largest", "stride-3"])
    def test_sweep_row_matches_single_run(self, capsys, values, n, flags):
        base = ["--problem", "example2", "--M", "2"] + flags
        _, sweep_out, _ = run_cli(
            capsys, ["sweep", "--sweep", "N", "--values", values] + base
        )
        _, run_out, _ = run_cli(capsys, ["run", "--N", n] + base)
        sweep_rows = {
            line.split(",")[2]: strip_wall(line)
            for line in sweep_out.strip().splitlines()
            if line[0].isalpha()
        }
        run_row = strip_wall(run_out.strip().splitlines()[1])
        assert sweep_rows[n] == run_row
        # a run is the one-value N sweep: same output, no rate line
        _, one_value_out, _ = run_cli(
            capsys, ["sweep", "--sweep", "N", "--values", n] + base
        )
        assert strip_wall(one_value_out) == strip_wall(run_out)
        assert "#" not in run_out

    def test_m_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--sweep", "M", "--values", "1,2,3",
             "--problem", "example2", "--N", "4"] + FAST,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["1", "2", "3"]
        assert not any(line.startswith("#") for line in lines)

    def test_non_chain_sweep_rows_match_single_runs(self, capsys):
        # 4 does not divide 6, so each N simulates its own reference
        base = ["--problem", "example2", "--M", "2", "--paths", "300",
                "--fine-n", "48", "--seed", "3"]
        code, sweep_out, _ = run_cli(
            capsys, ["sweep", "--sweep", "N", "--values", "4,6"] + base
        )
        assert code == 0
        sweep_rows = [
            line for line in strip_wall(sweep_out).splitlines()
            if line[0].isalpha() and line != cli.CSV_HEADER
        ]
        run_rows = [
            strip_wall(run_cli(capsys, ["run", "--N", n] + base)[1]).splitlines()[1]
            for n in ("4", "6")
        ]
        assert sweep_rows == run_rows

    def test_bad_values_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, ["sweep", "--sweep", "N", "--values", "2,soup"] + FAST
        )
        assert code == 1
        assert "values" in err

    @pytest.mark.parametrize("n", ["3", "0"])
    def test_bad_n_has_one_message_for_run_and_sweeps(self, capsys, n):
        tail = ["--problem", "constant"] + FAST
        argvs = [["run", "--N", n],
                 ["sweep", "--sweep", "M", "--values", "1", "--N", n]]
        if n != "0":  # --values takes positive integers only
            argvs.append(["sweep", "--sweep", "N", "--values", n])
        outcomes = {run_cli(capsys, argv + tail)[::2] for argv in argvs}
        assert len(outcomes) == 1
        code, err = outcomes.pop()
        assert code == 1 and err.startswith("error: ")

    @pytest.fixture
    def reference_grids(self, monkeypatch):
        """The step count of each grid ``fbsde`` simulates a reference on."""
        grids = []

        def recording(problem, store, grid):
            grids.append(grid.n)
            return simulate_reference(problem, store, grid)

        monkeypatch.setattr(cli, "simulate_reference", recording)
        return grids

    def test_every_config_checked_before_the_reference(self, capsys,
                                                       reference_grids):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--sweep", "N", "--values", "2,4", "--M", "0",
             "--problem", "constant"] + FAST,
        )
        assert code == 1 and err.startswith("error: ")
        assert reference_grids == []

    @pytest.mark.parametrize("values, simulated", [
        ("2,4,8,16,32", [32]),
        ("2,4,6", [6, 4]),  # 6 is no multiple of 4; 2 strides the 6-step one
        ("3,4,6,12", [12]),
    ], ids=["powers-of-two", "two-simulated", "divisors-of-12"])
    def test_a_reference_only_where_no_larger_n_is_a_multiple(
        self, capsys, reference_grids, values, simulated
    ):
        code, _, _ = run_cli(
            capsys,
            ["sweep", "--sweep", "N", "--values", values, "--M", "1",
             "--problem", "constant", "--paths", "50", "--fine-n", "96"],
        )
        assert code == 0
        assert reference_grids == simulated

    def test_nondivisor_value_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["sweep", "--sweep", "N", "--values", "3",
             "--problem", "constant"] + FAST,
        )
        assert code == 1
        assert "divide" in err


CONSTANTS_TEXT = """\
k_b = 0.0
k_f = -1.0
K = 1.0
b_y = 0.0
b_z = 0.0
sigma_y = 0.0
sigma_x = 0.5
f_x = 1.0
f_z = 0.5
g_x = 1.0
b_0 = 0.0
sigma_0 = 0.0
f_0 = 1.0
g_0 = 1.0
Sigma = 1.0
T = 1.0
"""


class TestDiagnose:
    def test_table_and_json(self, capsys, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text(CONSTANTS_TEXT)
        code, out, _ = run_cli(capsys, ["diagnose", "--constants", str(path)])
        assert code == 0
        assert "conditionL0" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["conditionL0"] is True
        assert payload["conditionC1"] is True
        assert payload["conditionC2"] is True

    def test_json_out_file(self, capsys, tmp_path):
        src = tmp_path / "constants.txt"
        src.write_text(CONSTANTS_TEXT)
        dst = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, ["diagnose", "--constants", str(src), "--out", str(dst)]
        )
        assert code == 0
        payload = json.loads(dst.read_text())
        assert "c2_at_L1L1" in payload
        assert "{" not in out  # table only on stdout when writing a file

    def test_unopenable_out_exits_one(self, capsys, tmp_path):
        src = tmp_path / "constants.txt"
        src.write_text(CONSTANTS_TEXT)
        code, out, err = run_cli(
            capsys, ["diagnose", "--constants", str(src), "--out", str(tmp_path)]
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot open --out {tmp_path}")

    def test_repeated_constant_exits_one(self, capsys, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text(CONSTANTS_TEXT + "k_b = 0.5\n")
        code, out, err = run_cli(capsys, ["diagnose", "--constants", str(path)])
        assert (code, out) == (1, "")
        assert "'k_b' already set on line 1" in err

    def test_missing_key_named(self, capsys, tmp_path):
        path = tmp_path / "constants.txt"
        path.write_text(CONSTANTS_TEXT.replace("Sigma = 1.0\n", ""))
        code, _, err = run_cli(capsys, ["diagnose", "--constants", str(path)])
        assert code == 1
        assert "Sigma" in err

    @pytest.mark.parametrize("key", ["b_z", "T"])
    def test_nan_constant_exits_one_naming_it(self, capsys, tmp_path, key):
        path = tmp_path / "constants.txt"
        path.write_text(
            CONSTANTS_TEXT.replace(f"\n{key} = ", f"\n{key} = nan  # was ")
        )
        code, out, err = run_cli(capsys, ["diagnose", "--constants", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key} must")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["diagnose", "--constants", str(tmp_path / "nope.txt")]
        )
        assert code == 1


class TestNoScipy:
    def test_cli_commands_do_not_import_scipy(self, run_child):
        # the package needs numpy alone; scipy is a test dependency
        probe = (
            "import sys\n"
            "from fbsdekit import cli\n"
            "assert cli.main(['run', '--problem', 'example2', '--N', '4',\n"
            "                 '--M', '2', '--paths', '200', '--fine-n', '16']) == 0\n"
            "assert cli.main(['diagnose', '--constants',\n"
            "                 'demos/constants_weak_coupling.txt']) == 0\n"
            "print('scipy' in sys.modules)"
        )
        assert run_child(["-c", probe], "1").stdout.splitlines()[-1] == "False"


class TestThreadIndependence:
    # numpy's OpenBLAS pool size after import; OpenBLAS caps it at the cores.
    # With ``numpy_first`` the child imports numpy before ``fbsdekit``, so
    # numpy starts the pool an inherited cap asks for.
    @staticmethod
    def pool_probe(numpy_first):
        return (
            ("import numpy; " if numpy_first else "")
            + "import sys; from fbsdekit import cli, regression; "
            "pool = regression._BLAS_POOL; "
            "print(pool[0]() if pool else 0, file=sys.stderr); "
            "sys.exit(cli.main(sys.argv[1:]))"
        )

    def test_rows_identical_across_thread_caps(self, run_child):
        # the second run fits 136 features, a basis whose Cholesky factor
        # OpenBLAS would split across threads; at FBSDE_THREADS=4 numpy is
        # loaded first under an inherited cap of 4, so only the per-solve
        # pin keeps the pool at one thread in the solves
        runs = [
            ["--problem", "example2", "--N", "4", "--M", "2",
             "--paths", "500", "--fine-n", "64", "--seed", "5"],
            ["--problem", "example1", "--dim", "15", "--N", "2", "--M", "2",
             "--paths", "3000", "--fine-n", "4", "--seed", "7"],
        ]
        children = [("1", False, None),
                    ("4", True, {"OPENBLAS_NUM_THREADS": "4"})]
        for run in runs:
            outputs, pools = [], []
            for threads, numpy_first, inherit in children:
                child = run_child(["-c", self.pool_probe(numpy_first), "run", *run],
                                  threads, inherit)
                outputs.append(strip_wall(child.stdout))
                pools.append(int(child.stderr.split()[0]))
            compared = f"{pools[0]} against {pools[1]} threads"
            if regression._BLAS_POOL:
                assert pools[0] == 1, f"fbsdekit imported first ran {compared}"
                if (os.cpu_count() or 1) >= 2:
                    assert pools[1] > 1, f"numpy imported first ran {compared}"
            assert outputs[0] == outputs[1], f"{run}: {compared}"

    # every walk crosses the lowered gate; stderr ends with the fork count
    PRODUCER_PROBE = (
        "import os, sys; from fbsdekit import brownian, cli; "
        "brownian._FORK_NORMALS = 1; fork, forks = os.fork, []; "
        "os.fork = lambda: forks.append(1) or fork(); "
        "rc = cli.main(sys.argv[1:]); print(len(forks), file=sys.stderr); "
        "sys.exit(rc)"
    )

    def test_rows_identical_with_and_without_the_producer(self, run_child):
        # FBSDE_THREADS=1 keeps the draws in process; at 2 a forked
        # producer draws them wherever a second core is usable
        runs = [
            ["run", "--problem", "example1", "--N", "4", "--M", "2",
             "--paths", "300", "--fine-n", "256", "--seed", "5"],
            ["sweep", "--sweep", "N", "--values", "2,4,8", "--problem", "example2",
             "--M", "2", "--paths", "500", "--fine-n", "64", "--seed", "5"],
        ]
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        for run in runs:
            outputs, forks = [], []
            for threads in ("1", "2"):
                child = run_child(["-c", self.PRODUCER_PROBE, *run], threads)
                outputs.append(strip_wall(child.stdout))
                forks.append(int(child.stderr.split()[-1]))
            assert forks[0] == 0
            if cores > 1 and hasattr(os, "fork"):
                assert forks[1] == 1, f"{run}: one walk, one producer"
            assert outputs[0] == outputs[1], run

    CAPS_PROBE = (
        "import json, os, fbsdekit.cli; "
        f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_CAP_VARS!r}}}))"
    )

    def test_inherited_caps_do_not_override_fbsde_threads(self, run_child,
                                                          monkeypatch):
        for var in THREAD_CAP_VARS:
            monkeypatch.setenv(var, "4")
        for threads in ("4", None):
            seen = json.loads(run_child(["-c", self.CAPS_PROBE], threads).stdout)
            assert seen == dict.fromkeys(THREAD_CAP_VARS, "1"), threads

    def test_fbsde_threads_overrides_a_cap_the_child_inherits(self, run_child):
        inherited = dict.fromkeys(THREAD_CAP_VARS, "4")
        for threads in ("4", None):
            seen = json.loads(
                run_child(["-c", self.CAPS_PROBE], threads, inherit=inherited).stdout
            )
            assert seen == dict.fromkeys(THREAD_CAP_VARS, "1"), threads

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one core: the pools start no threads anyway")
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_fbsde_threads_caps_the_pools_after_import(self, run_child):
        probe = (
            "import fbsdekit.cli; "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('Threads:')))"
        )
        inherited = dict.fromkeys(THREAD_CAP_VARS, "4")
        for threads in ("1", "4", None):
            child = run_child(["-c", probe], threads, inherit=inherited)
            assert child.stdout.strip() == "1", threads

    # two commands, so that the second walk forks after the first one's
    # solves have used BLAS; stderr ends with the thread count at each fork
    FORK_THREADS_PROBE = (
        "import os, sys; from fbsdekit import brownian, cli; "
        "brownian._FORK_NORMALS = 1; fork, seen = os.fork, []; "
        "count = lambda: next(line.split()[1] for line in "
        "open('/proc/self/status') if line.startswith('Threads:')); "
        "os.fork = lambda: seen.append(count()) or fork(); "
        "rc = [cli.main(sys.argv[1:] + ['--seed', s]) for s in ('5', '6')]; "
        "print('forks at', *seen, file=sys.stderr); sys.exit(max(rc))"
    )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status")
    def test_producer_forks_from_a_one_thread_process(self, run_child):
        # so Python's warning on a fork with other threads alive (3.12 on)
        # cannot fire; it would be an error here
        run = ["run", "--problem", "example1", "--N", "4", "--M", "2",
               "--paths", "300", "--fine-n", "256"]
        inherited = dict.fromkeys(THREAD_CAP_VARS, "4")
        child = run_child(["-W", "error:This process:DeprecationWarning", "-c",
                           self.FORK_THREADS_PROBE, *run], "4", inherit=inherited)
        last = child.stderr.splitlines()[-1]
        assert last.startswith("forks at")
        seen = last.split()[2:]
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        if cores > 1:
            assert len(seen) == 2, "one producer per command"
        assert seen == ["1"] * len(seen)
