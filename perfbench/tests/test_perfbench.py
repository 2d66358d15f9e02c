"""Tests of the benchmark's own machinery: span arithmetic, tracing, inputs, checks.

    python3 -m pytest perfbench/tests -q
"""

import copy
import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

import checks
import run
import tracer as tracing
import workloads
from tracer import Span


def test_self_time_subtracts_union_of_overlapping_pool_children():
    # Parent on the main thread; three children on two pool threads, two of
    # them overlapping in [3, 5]; one grandchild below the first child.
    spans = [
        Span(1, 0, "lab.run_experiment", 100, 0.0, 10.0),
        Span(2, 1, "a", 201, 1.0, 5.0),
        Span(3, 1, "b", 202, 3.0, 8.0),
        Span(4, 1, "a", 201, 9.0, 9.5),
        Span(5, 2, "c", 201, 2.0, 3.0),
    ]
    stats = tracing.summarize_spans(spans)
    parent = stats["lab.run_experiment"]
    # Children cover [1, 8] and [9, 9.5]: 7.5 of the parent's 10 seconds.
    assert parent.self_s == pytest.approx(2.5)
    assert parent.child_s == pytest.approx(4.0 + 5.0 + 0.5)
    assert parent.child_s / parent.total_s == pytest.approx(0.95)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(4.5)
    assert stats["a"].self_s == pytest.approx(3.5)  # [1, 5] minus the grandchild [2, 3], plus [9, 9.5]
    assert stats["c"].self_s == pytest.approx(1.0)


def test_decompositions_are_counted_outside_in():
    spans = [
        Span(1, None, "bench.stability", 1, 0.0, 10.0),
        Span(2, 1, "spectral.operator_norm", 1, 1.0, 2.0),
        Span(3, 2, "linalg.eigvalsh", 1, 1.2, 1.8),  # inside a counted decomposition
        Span(4, 1, "density.density_operator", 1, 3.0, 4.0),
        Span(5, 4, "spectral.eigh", 1, 3.1, 3.9),
        Span(6, 5, "linalg.eigh", 1, 3.2, 3.8),
        Span(7, None, "linalg.eigh", 1, 11.0, 12.0),  # outside any root
    ]
    assert tracing.decompositions_under(spans, ["bench.stability"]) == {"bench.stability": 2}


def test_density_operator_runs_exactly_one_eigh_and_tracer_restores_bindings():
    from covdensity import density, entropy

    original_eigh, original_density = np.linalg.eigh, density.density_operator
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert entropy.density_operator is density.density_operator  # both bindings patched
        assert density.density_operator is not original_density
        density.density_operator(np.diag([1.0, 2.0, 3.0]), 1.0)
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is original_eigh
    assert density.density_operator is original_density
    assert entropy.density_operator is original_density
    names = [span.name for span in tracer.spans]
    assert names.count("linalg.eigh") == 1
    assert names.count("linalg.eigvalsh") == 0
    by_id = {span.sid: span for span in tracer.spans}
    eigh_span = next(span for span in tracer.spans if span.name == "linalg.eigh")
    chain = []
    parent = by_id.get(eigh_span.parent)
    while parent is not None:
        chain.append(parent.name)
        parent = by_id.get(parent.parent)
    assert chain == ["spectral.eigh", "density.density_operator"]


def _inputs(name, seed, work):
    steps = workloads.build(name, seed, str(work))
    files = {}
    for root, _, names in os.walk(work):
        for fname in names:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    argv = [[arg.replace(str(work), "<work>") for arg in step.argv] for step in steps]
    return argv, files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_a_function_of_the_seed(tmp_path, name):
    first = _inputs(name, 3, tmp_path / "a")
    assert first == _inputs(name, 3, tmp_path / "b")
    assert first == _inputs(name, 3 + workloads.N_VARIANTS, tmp_path / "c")
    assert first != _inputs(name, 4, tmp_path / "d")


def test_train_inputs_have_the_documented_shape(tmp_path):
    train, predict = workloads.supervised_data(0)
    assert train.shape == (workloads.TRAIN_ROWS, workloads.FEATURES + 1)
    assert predict.shape == (workloads.PREDICT_ROWS, workloads.FEATURES)
    assert set(np.unique(train[:, -1])) == {0.0, 1.0}
    path = tmp_path / "t.csv"
    workloads.write_csv(path, train[:3])
    assert np.array_equal(np.loadtxt(path, delimiter=","), train[:3])


@pytest.fixture(scope="module")
def lipschitz_outputs(tmp_path_factory):
    from covdensity import cli

    out_dir = tmp_path_factory.mktemp("lipschitz")
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert cli.main(["lipschitz", "--seed", "1", "--trials", "50", "--output-dir", str(out_dir)]) == 0
    with open(out_dir / "summary.json") as fh:
        return stdout.getvalue(), json.load(fh)


def test_check_accepts_roundoff_and_rejects_a_perturbed_summary(lipschitz_outputs):
    stdout, summary = lipschitz_outputs
    reference = checks.fingerprint("lipschitz", stdout, summary)
    assert checks.compare(reference, checks.fingerprint("lipschitz", stdout, summary)) == []

    label = sorted(summary["groups"])[7]
    roundoff = copy.deepcopy(summary)
    roundoff["groups"][label]["ratio"] *= 1 + 1e-13
    assert checks.compare(reference, checks.fingerprint("lipschitz", stdout, roundoff)) == []

    wrong = copy.deepcopy(summary)
    wrong["groups"][label]["ratio"] *= 1.001
    problems = checks.compare(reference, checks.fingerprint("lipschitz", stdout, wrong))
    assert problems and "ratio" in problems[0]

    swapped = copy.deepcopy(summary)
    a, b = sorted(summary["groups"])[:2]
    swapped["groups"][a]["alpha"], swapped["groups"][b]["alpha"] = summary["groups"][b]["alpha"], summary["groups"][a]["alpha"]
    assert checks.compare(reference, checks.fingerprint("lipschitz", stdout, swapped))

    missing = copy.deepcopy(summary)
    del missing["groups"][label]
    assert checks.compare(reference, checks.fingerprint("lipschitz", stdout, missing))


@pytest.mark.parametrize(
    "actual, ok",
    [
        ("auc_naive=0.5504 n=100", True),
        ("auc_naive=0.5505 n=100", True),  # one unit in the last printed digit
        ("auc_naive=0.5510 n=100", False),
        ("auc_naive=0.5504 n=101", False),  # integers are exact
        ("auc_vne=0.5504 n=100", False),
    ],
)
def test_printed_numbers_are_compared_to_their_precision(actual, ok):
    assert (checks.compare_text("auc_naive=0.5504 n=100", actual) == []) is ok


def test_predicted_labels_tolerate_only_rare_flips():
    rows = ["0", "1"] * 2000
    reference = checks.fingerprint("predict", "\n".join(rows) + "\n", {"rows": 4000, "task": "classification"})
    flipped = list(rows)
    for i in range(4):
        flipped[i] = "1" if flipped[i] == "0" else "0"
    few = checks.fingerprint("predict", "\n".join(flipped) + "\n", {"rows": 4000, "task": "classification"})
    assert checks.compare(reference, few) == []
    for i in range(4, 40):
        flipped[i] = "1" if flipped[i] == "0" else "0"
    many = checks.fingerprint("predict", "\n".join(flipped) + "\n", {"rows": 4000, "task": "classification"})
    assert checks.compare(reference, many)


def test_benchmark_json_declares_exactly_the_emitted_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_covers_every_variant_and_call(tmp_path):
    reference = checks.load_reference()
    assert reference["n_variants"] == workloads.N_VARIANTS
    for name in workloads.WORKLOADS:
        labels = {step.label for step in workloads.build(name, 0, str(tmp_path / name))}
        variants = reference["workloads"][name]
        assert sorted(variants, key=int) == [str(v) for v in range(workloads.N_VARIANTS)]
        assert all(set(calls) == labels for calls in variants.values())
