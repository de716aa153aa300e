"""Tests of the benchmark's outside-in tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import io
import sys

import pytest

import tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def installed():
    tr = tracer.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def _fbsdekit_namespaces():
    return [(name, vars(module)) for name, module in sys.modules.items()
            if name == "fbsdekit" or name.startswith("fbsdekit.")]


def test_no_module_namespace_keeps_an_unwrapped_traced_function(installed):
    originals = {id(fn): fn for fn, _ in installed.originals.values()}
    assert len(originals) == len(tracer.traced_targets())
    leftovers = [
        f"{module}.{attr}"
        for module, namespace in _fbsdekit_namespaces()
        for attr, value in namespace.items()
        if originals.get(id(value)) is value
    ]
    assert leftovers == []
    for _, owner, attr in tracer.traced_targets():
        assert originals.get(id(vars(owner)[attr])) is not vars(owner)[attr]


def test_names_bound_at_import_are_wrapped_and_restored():
    import fbsdekit
    import fbsdekit.cli
    import fbsdekit.fields
    import fbsdekit.regression

    eval_u = fbsdekit.fields.eval_u
    simulate = fbsdekit.cli.simulate_reference
    tr = tracer.Tracer()
    tr.install()
    try:
        for bound in (fbsdekit.regression.eval_u, fbsdekit.eval_u, fbsdekit.fields.eval_u):
            assert bound is not eval_u and bound.__wrapped__ is eval_u
        assert fbsdekit.cli.simulate_reference.__wrapped__ is simulate
    finally:
        tr.uninstall()
    assert fbsdekit.regression.eval_u is eval_u and fbsdekit.eval_u is eval_u
    assert fbsdekit.cli.simulate_reference is simulate


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_t()
        clock.now += 1.0

    def root():
        clock.now += 3.0
        middle_t()
        middle_t()
        clock.now += 0.5

    leaf_t = tr.wrap("x.leaf", leaf)
    middle_t = tr.wrap("x.middle", middle)
    tr.wrap("x.root", root)()

    table = tracer.summarize(tr.spans)
    assert table["x.leaf"][:3] == [2, 4.0, 4.0]
    assert table["x.middle"][:3] == [2, 8.0, 4.0]
    assert table["x.root"][:3] == [1, 11.5, 3.5]
    by_id = {span[0]: span for span in tr.spans}
    for span in tr.spans:
        if span[2] == "x.leaf":
            assert by_id[span[1]][2] == "x.middle"
        if span[2] == "x.root":
            assert span[1] == -1
    assert sum(span[5] for span in tr.spans) == 11.5


def test_traced_run_matches_untraced_and_covers_the_round(installed):
    import fbsdekit.cli

    argv = ["run", "--problem", "example2", "--N", "4", "--M", "2",
            "--paths", "300", "--fine-n", "64", "--seed", "3"]

    def rows():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert fbsdekit.cli.main(argv) == 0
        return [line.rsplit(",", 1)[0] for line in out.getvalue().splitlines()]

    traced_rows = rows()
    spans = installed.take_spans()
    round_s = max(s[4] for s in spans) - min(s[3] for s in spans)
    installed.uninstall()
    assert rows() == traced_rows

    metrics = tracer.per_layer_metrics(spans, round_s)
    assert metrics["trace.coverage"][0] == pytest.approx(1.0, abs=1e-9)
    assert metrics["reference.path_fine_steps"][0] == 300 * 64
    assert metrics["brownian.normals"][0] == 300 * 64
    assert metrics["regression.fits"][0] == 4 * 2
    assert metrics["problems.coeff_calls"][0] > 4 * 64
    assert metrics["brownian.coarse_cache_hit_ratio"][0] == 1.0
    assert metrics["diagnostics.check_conditions_s"][0] == 0.0
