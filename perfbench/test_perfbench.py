"""Self-test of the benchmark: every workload at a toy size, same code path.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

import json

import numpy as np
import pytest

import run

run.prepare()

import moikit  # noqa: E402  (after prepare puts the checkout's src first)
import workloads  # noqa: E402
from moikit import cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric(name):
    record = run.run_workload(name, SEED, 0.0, trace=False, toy=True)
    assert record["correct"] and record["failed"] == 0
    metrics = record["metrics"]
    assert metrics["failed_ratio"]["value"] == 0.0
    for key, m in metrics.items():
        assert m["unit"] and m["samples"] >= 1, key
    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())
    for group in run.GROUPS.get(name, ()):
        assert metrics[f"{group}_s"]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(name):
    record = run.run_workload(name, SEED, 0.0, trace=True, toy=True)
    assert record["correct"]
    line = run.result_line(record)
    assert {k: m["unit"] for k, m in line["metrics"].items()} == declared("per_layer")
    layer = {k: m["value"] for k, m in line["metrics"].items()}
    if name == "spectral":
        assert layer["moi.tuples"] == 0
        assert layer["scalar_functions.dd_calls"] == 0
        assert layer["spectral.jacobi_calls"] > 0
    if name == "derivative":
        assert layer["moi.tuples"] > 0
        assert layer["frechet.perm_evals"] > 1
    if name == "verify":
        assert layer["verify.checks"] > 0
    assert layer["trace.spans"] > 0


def test_gated_workloads_exist_with_their_reasons():
    for w in SPEC["workloads"]:
        assert workloads.WHY[w["name"]] == w["why"]
        assert w["name"] in run.WORKLOAD_NAMES


def test_trace_restores_moikit():
    original = moikit.hermitian_eigendecompose
    run.run_workload("spectral", SEED, 0.0, trace=True, toy=True)
    assert moikit.hermitian_eigendecompose is original
    assert moikit.moi.hermitian_eigendecompose is original


def _perturb(monkeypatch, module, attr, delta):
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: original(*a, **k) + delta)


def test_perturbed_derivative_counts_as_failed(monkeypatch):
    _perturb(monkeypatch, moikit, "matrix_function_derivative", 1e-6)
    record = run.run_workload("derivative", SEED, 0.0, trace=False, toy=True)
    assert not record["correct"]
    assert record["metrics"]["failed_ratio"]["value"] == 1.0


def test_perturbed_schatten_norm_counts_as_failed(monkeypatch):
    _perturb(monkeypatch, moikit, "schatten_norm", 1e-6)
    record = run.run_workload("spectral", SEED, 0.0, trace=False, toy=True)
    schatten = sum(r.group == "schatten" for r in workloads.spectral_requests(SEED, toy=True))
    assert record["failed"] == schatten * record["passes"] > 0


def test_changed_report_body_counts_as_failed(monkeypatch):
    original = cli.main
    seen, repeats = set(), []

    def main(argv):
        code = original(argv)
        if tuple(argv) in seen:
            repeats.append(argv)
            body = argv[argv.index("--out") + 1] + ".body"
            with open(body, "a") as fh:
                fh.write(" ")
        seen.add(tuple(argv))
        return code

    monkeypatch.setattr(cli, "main", main)
    record = run.run_workload("verify", SEED, 0.0, trace=False, toy=True)
    assert record["failed"] == len(repeats) >= 1


def test_verify_rotates_seeds_and_repeats_one():
    record = run.run_workload("verify", SEED, 0.0, trace=False, toy=True)
    assert record["passes"] == run.MIN_PASSES["verify"]
    counts = sorted(len(v) for v in record["request_s"].values())
    assert len(counts) == workloads.VERIFY_SEEDS and counts[-1] >= 2


def test_block_reference_matches_closed_form():
    rng = np.random.default_rng(SEED)
    a = workloads.random_hermitian(rng, 3, 1.0)
    dirs = [workloads.random_hermitian(rng, 3, 1.0) for _ in range(2)]
    cube = workloads.block_reference(lambda x: x @ x @ x, a, dirs)
    assert workloads.scaled_error(cube, moikit.power_map_derivative(3, a, dirs)) < 1e-13


def test_missing_sources_exit_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
