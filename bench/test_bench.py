"""Tests of the benchmark itself, at toy size.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import run
import spans

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
rp = harness.import_library()

TOY = {
    "proj-small-gap": dict(n=40, d=24, top_rank=6),
    "proj-tall-dense": dict(n=60, d=20, top_rank=5),
    "pcr-sparse": dict(n=200, d=40, top_rank=10, blocks=4),
}


@pytest.fixture
def toy(monkeypatch, tmp_path):
    """Toy-size versions of every workload, writing into a temporary directory."""
    workloads = {name: dataclasses.replace(w, **TOY[name]) for name, w in harness.WORKLOADS.items()}
    monkeypatch.setattr(harness, "WORKLOADS", workloads)
    monkeypatch.setattr(harness, "BENCH_DIR", tmp_path)
    return workloads


def run_main(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(toy, capsys, name, trace):
    lines, result = run_main(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(ln.split()[:3] == [m["name"], f"{got['value']:.6g}", m["unit"]]
                   for ln in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_all_runs_every_workload(toy, capsys):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0.01"]) == 0
    out = capsys.readouterr().out.splitlines()
    results = [json.loads(ln) for ln in out if ln.startswith("{")]
    assert len(results) == len(toy) and all(r["correct"] for r in results)


def traced_query(w, tmp_path, seed=5):
    """One query traced and the same query untraced; returns (q, layer metrics, both outputs)."""
    inputs = harness.make_inputs(w, seed)
    session = harness.Session(rp, w, inputs, harness.write_sources(w, inputs, tmp_path))
    rec = spans.Recorder()
    with spans.instrumented(rec, rp):
        rec.unit_id = -1
        session.setup(0, rec.call)
        rec.unit_id = 0
        traced = session.query(0, rec.call)
    plain = session.query(0)
    layer = spans.layer_metrics(rec, *spans.product_bytes(session.A))
    q, _, _ = session.cfg.resolve(session.stats)
    return q, {name: value for name, (value, _) in layer.items()}, traced, plain


@pytest.mark.parametrize("name", ["proj-small-gap", "proj-tall-dense"])
def test_projection_counts(toy, tmp_path, name):
    q, layer, traced, plain = traced_query(toy[name], tmp_path)
    assert layer["ridge.solves"] == 2 * q + 1
    assert layer["stepfn.outer_iters"] == q
    assert layer["pcr.series_solves"] == 0
    assert traced.tobytes() == plain.tobytes()


def test_regression_counts(toy, tmp_path):
    q, layer, traced, plain = traced_query(toy["pcr-sparse"], tmp_path)
    assert layer["pcr.series_solves"] == q + 1
    assert layer["pcr.proj_stage_s"] > 0 and layer["pcr.series_s"] > 0
    assert layer["fileio.load_s"] > 0 and layer["spectral.power_iters"] > 0
    assert traced.tobytes() == plain.tobytes()


def test_instrumentation_is_removed_on_exit():
    import ridgeproj.project as project

    before = (project.apply_step, rp.DesignMatrix._mv, rp.DesignMatrix._rmv)
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Recorder(), rp):
            raise RuntimeError
    assert (project.apply_step, rp.DesignMatrix._mv, rp.DesignMatrix._rmv) == before


def test_seed_fixes_inputs(toy):
    w = toy["pcr-sparse"]
    a, b, c = (harness.make_inputs(w, s) for s in (7, 7, 8))
    assert all((x != y).nnz == 0 for x, y in zip(a.matrices, b.matrices))
    assert all(np.array_equal(x, y) for x, y in zip(a.queries, b.queries))
    assert (a.matrices[0] != c.matrices[0]).nnz > 0
    assert (a.matrices[0] != a.matrices[1]).nnz > 0
    assert all(m.nnz == w.n * w.d // w.blocks for m in a.matrices)


def test_mtx_round_trip(toy, tmp_path):
    inputs = harness.make_inputs(toy["pcr-sparse"], 2)
    harness.write_mtx(inputs.matrices[0], tmp_path / "a.mtx")
    loaded = rp.load_matrix(tmp_path / "a.mtx")
    assert np.array_equal(loaded.toarray(), inputs.matrices[0].toarray())


def test_fails_without_the_library(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(harness.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out", "work"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "proj-small-gap",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
