"""Tests of the benchmark itself: tracer, generators and output checks.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import contextlib
import copy
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _binding(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def test_restore_leaves_every_binding_identical():
    before = {}
    for m, a, _ in tracer.BINDINGS:
        owner, leaf = _binding(m, a)
        before[(m, a)] = vars(owner)[leaf]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        for (m, a), original in before.items():
            owner, leaf = _binding(m, a)
            assert vars(owner)[leaf] is not original, f"{m}.{a} was not wrapped"
    finally:
        tr.restore()
    for (m, a), original in before.items():
        owner, leaf = _binding(m, a)
        assert vars(owner)[leaf] is original, f"{m}.{a} not restored"


def test_spans_record_parent_and_operation():
    import agreelab.cli

    dart = ROOT / "src" / "agreelab" / "data" / "dart.graph"
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.op = "spectrum"
        with contextlib.redirect_stdout(io.StringIO()):
            assert agreelab.cli.main(["spectrum", str(dart)]) == 0
    finally:
        tr.restore()
    names = [s[tracer.SPAN_NAME] for s in tr.spans]
    assert names == ["cli.main", "graph.modal_transform"]
    main, modal = tr.spans
    assert main[tracer.SPAN_PARENT] == -1 and modal[tracer.SPAN_PARENT] == 0
    assert main[tracer.SPAN_START] <= modal[tracer.SPAN_START] <= modal[tracer.SPAN_END] <= main[tracer.SPAN_END]
    assert {s[tracer.SPAN_OP] for s in tr.spans} == {"spectrum"}


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, "op", attrs]


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0, 100, -1),
        _span("sim.ensemble", 10, 60, 0, {"paths": 30}),
        _span("kernels.noise", 15, 35, 1, {"n": 5, "steps": 10, "m": 5}),
        _span("sim.rk4_transition", 40, 45, 1),
        _span("sim.member", 70, 90, 0),
        _span("kernels.noise", 72, 88, 4, {"n": 5, "steps": 10, "m": 5}),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx([x / 1e9 for x in (30, 25, 20, 5, 4, 16)])
    m = tracer.layer_metrics(spans, requested_paths=30)
    assert m["cli.self_s"] == pytest.approx(30e-9)
    # run_ensemble minus its kernel spans keeps the table set-up child
    assert m["sim.ensemble_self_s"] == pytest.approx(30e-9)
    assert m["sim.paths_integrated"] == 31
    assert m["sim.useful_path_ratio"] == pytest.approx(30 / 31)
    assert m["kernels.noise_calls"] == 2 and m["kernels.noise_state_steps"] == 100
    assert set(m) | {"trace.overhead_s"} == {name for name, _, _ in tracer.LAYER_METRICS}


@pytest.mark.parametrize("seed", range(40))
def test_generated_graphs_are_connected(seed):
    from agreelab.graph import Graph, is_connected

    for n, chords in ((60, 60), (6, seed % 6)):
        edges = workloads.seeded_graph(workloads.derived_rng(seed, 2), n, chords)
        assert len(edges) == n - 1 + chords
        assert workloads.is_connected(n, edges)
        assert is_connected(Graph(n, [tuple(e) for e in edges]))


def _summary(name, seed, workdir):
    workdir.mkdir()
    return WORKLOADS[name].prepare(seed, workdir)["summary"]


@pytest.mark.parametrize("seed", range(10))
def test_search_target_has_two_automorphisms(seed, tmp_path):
    summary = _summary("synthesis", seed, tmp_path / "s")["seeded"]
    assert workloads.automorphisms(summary["n"], summary["edges"]) == 2
    assert workloads.is_connected(summary["n"], summary["edges"])


@pytest.mark.parametrize("name", ["noise-ensemble", "large-network", "synthesis"])
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    first = _summary(name, 3, tmp_path / "a")
    assert first == _summary(name, 3, tmp_path / "b")
    assert first != _summary(name, 4, tmp_path / "c")
    assert _summary(name, DEFAULT_SEED, tmp_path / "d") == REFERENCE[name]["inputs"]


def _problems(name, outputs, seed=DEFAULT_SEED):
    w = WORKLOADS[name]
    return w.check(REFERENCE[name]["inputs"], outputs, seed, REFERENCE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_recorded_outputs_pass_their_checks(name):
    assert _problems(name, REFERENCE[name]["outputs"]) == []
    assert _problems(name, REFERENCE[name]["outputs"], seed=DEFAULT_SEED + 1) == []


def _set_line(lines, key, value):
    return [f"{key} {value}" if ln.split(" ", 1)[0] == key else ln for ln in lines]


def _scale_metric(op, key, factor):
    def mutate(out):
        out[op]["metrics"][key] *= factor
    return mutate


def _scale(op, key, factor):
    def mutate(out):
        out[op][key] *= factor
    return mutate


def _assign(path, value):
    def mutate(out):
        target = out
        for k in path[:-1]:
            target = target[k]
        target[path[-1]] = value
    return mutate


PERTURBATIONS = [
    # (workload, seed, operation that must be flagged, change)
    ("noise-ensemble", DEFAULT_SEED, "simulate-classic", _scale_metric("simulate-classic", "drift_slope", 1.0001)),
    ("noise-ensemble", 7, "simulate-twodof",
     lambda out: out["simulate-twodof"].update(stdout=_set_line(out["simulate-twodof"]["stdout"], "final_consensus", "0.5"))),
    ("noise-ensemble", 7, "simulate-twodof", _scale_metric("simulate-twodof", "drift_slope", 1e4)),
    ("noise-ensemble", 7, "simulate-classic", _assign(("simulate-classic", "rc"), 2)),
    ("deterministic-scenarios", 7, "read-dist-classic", _scale("read-dist-classic", "gap_at_60", 1 + 1e-9)),
    ("deterministic-scenarios", 7, "read-nominal-twodof", _scale("read-nominal-twodof", "final_consensus", 1 + 1e-9)),
    ("deterministic-scenarios", 7, "reproduce-dist-pi", _scale_metric("reproduce-dist-pi", "ramp_slope_ratio", 1.001)),
    ("large-network", 7, "integrate-classic", _scale("integrate-classic", "final_mean", 1 + 1e-6)),
    ("large-network", 7, "integrate-twodof", _scale("integrate-twodof", "final_gap", 1e3)),
    ("large-network", 7, "noise-variance", _scale("noise-variance", "value", 1.001)),
    ("large-network", 7, "check-twodof",
     lambda out: out["check-twodof"].update(stdout=["agreement FAIL"] + out["check-twodof"]["stdout"][1:])),
    ("large-network", DEFAULT_SEED, "integrate-twodof", _scale("integrate-twodof", "final_mean", 1.001)),
    ("synthesis", 7, "design-infeasible", _assign(("design-infeasible", "rc"), 0)),
    ("synthesis", 7, "design-dart",
     lambda out: out["design-dart"].update(stdout=_set_line(out["design-dart"]["stdout"], "h2_drift", "0.001"))),
    ("synthesis", 7, "design-worst-case",
     lambda out: out["design-worst-case"]["stdout"].__setitem__(4, "alpha -1 unstable")),
    ("synthesis", 7, "spectrum-dart",
     lambda out: out["spectrum-dart"].update(stdout=_set_line(out["spectrum-dart"]["stdout"], "connected", "false"))),
    ("synthesis", 7, "search-seeded", lambda out: out["search-seeded"]["matches"].append([[1, 2]])),
    ("synthesis", 7, "search-dart", lambda out: out["search-dart"].update(matches=[])),
]


@pytest.mark.parametrize("name,seed,op,mutate", PERTURBATIONS,
                         ids=[f"{p[0]}-{p[2]}-{i}" for i, p in enumerate(PERTURBATIONS)])
def test_checks_reject_a_perturbed_output(name, seed, op, mutate):
    outputs = copy.deepcopy(REFERENCE[name]["outputs"])
    mutate(outputs)
    assert op in {flagged for flagged, _ in _problems(name, outputs, seed)}


def test_missing_output_is_a_failure():
    outputs = copy.deepcopy(REFERENCE["synthesis"]["outputs"])
    del outputs["search-dart"]
    assert ("search-dart", "no output") in _problems("synthesis", outputs)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "synthesis", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
