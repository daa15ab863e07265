"""Smoke test of the benchmark at a tiny size.

Every metric named in BENCHMARK.json is printed with its unit, the output
checks pass on correct output, and a corrupted output counts as a failure.
"""

import json
from pathlib import Path

import pytest

import bench
import bench_inputs

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"study-train": 2000, "score-listings": 300, "evaluate-roc": 5000}


@pytest.fixture
def isolated(monkeypatch, tmp_path):
    """Tiny inputs; results out of the checkout and thread caps out of other tests."""
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench_inputs, "SIZES", TINY)
    for var, cap in bench.THREAD_CAPS.items():
        monkeypatch.setenv(var, cap)
    return tmp_path


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_unit(isolated, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    if trace and workload == "study-train":
        wanted.update(bench.STUDY_TRAIN_UNITS)
    assert set(result["metrics"]) == set(wanted)
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, wl, name, value, unit = line.split()
            assert wl == workload
            printed[name] = (float(value), unit)
    for name, unit in wanted.items():
        assert result["metrics"][name]["unit"] == unit
        assert printed[name] == (result["metrics"][name]["value"], unit)
    assert printed["failed_ratio"] == (0.0, "ratio")

    saved = json.loads((isolated / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    env = saved["environment"]
    assert env["seed"] == 3 and env["records"] == TINY[workload]
    assert {"python", "numpy", "scipy", "nproc", "thread_caps", "git_sha"} <= set(env)
    if trace and workload == "score-listings":
        assert result["metrics"]["textfeatures.tokenize_per_record"]["value"] == 2.0


def _generate(workload: str, out: Path, monkeypatch) -> Path:
    monkeypatch.syspath_prepend(str(bench.SRC))
    assert bench_inputs.main([workload, "5", str(out), "--n", str(TINY[workload])]) == 0
    return out


def test_corrupted_probability_fails(tmp_path, monkeypatch):
    data = _generate("score-listings", tmp_path, monkeypatch)
    workload = bench.ScoreListings(data, 5, TINY["score-listings"])
    assert workload.run() == 0 and workload.verify()

    scores = data / "scores.jsonl"
    rows = scores.read_text(encoding="utf-8").splitlines()
    first = json.loads(rows[0])
    first["probability"] += 1e-9
    scores.write_text("\n".join([json.dumps(first)] + rows[1:]) + "\n", encoding="utf-8")
    assert not workload.verify()
    assert not bench.ScoreListings(data, 5, TINY["score-listings"]).verify()


def test_corrupted_report_byte_fails(tmp_path, monkeypatch):
    data = _generate("study-train", tmp_path, monkeypatch)
    workload = bench.StudyTrain(data, 5, TINY["study-train"])
    assert workload.run() == 0 and workload.verify()

    report = data / "report.json"
    raw = bytearray(report.read_bytes())
    at = raw.index(b'"probability": 0.') + len(b'"probability": 0.')
    raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
    report.write_bytes(bytes(raw))
    assert not workload.verify()
    assert not bench.StudyTrain(data, 5, TINY["study-train"]).verify()


def test_unreadable_output_fails_only_its_operation(tmp_path, monkeypatch):
    data = _generate("score-listings", tmp_path, monkeypatch)
    workload = bench.ScoreListings(data, 5, TINY["score-listings"])
    assert workload.run() == 0 and workload.verify()

    (data / "scores.jsonl").unlink()
    assert not workload.verify()
    assert workload.run() == 0 and workload.verify()
