import ast
import contextlib
import csv
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from gamiscreen.cli import main
from gamiscreen.evaluation import calibration_strata, calibration_to_dict, roc_auc
from gamiscreen.logit import load_model
from gamiscreen.pipeline import (
    SCORE_CHUNK,
    Dataset,
    ingest,
    read_records,
    run_study,
    score_records,
)

from conftest import stdin_text, synthetic_corpus

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def corpus_csv(tmp_path_factory):
    import gamiscreen as g
    ds = synthetic_corpus(g.pretrained_model(), g.pretrained_grouping(), n=700, seed=31)
    path = tmp_path_factory.mktemp("cli") / "corpus.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=["id", "store", "title", "description",
                                           "gamification_label"])
        w.writeheader()
        for r in ds.records:
            w.writerow({"id": r.id, "store": r.store, "title": r.title,
                        "description": r.description,
                        "gamification_label": r.gamification_label})
    return path


def test_ingest_train_evaluate_report(corpus_csv, tmp_path, capsys):
    ds_path = tmp_path / "dataset.json"
    assert main(["ingest", str(corpus_csv), "--out", str(ds_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_records"] == 700

    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    assert main(["train", "--dataset", str(ds_path), "--seed", "17",
                 "--out", str(model_path), "--report", str(report_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.5 < out["auc_generation"] <= 1.0

    assert main(["evaluate", "--model", str(model_path), "--dataset", str(ds_path),
                 "--split", "validation"]) == 0
    ev = json.loads(capsys.readouterr().out)
    assert ev["n"] == out["n_validation"]

    svg = tmp_path / "roc.svg"
    csv_out = tmp_path / "roc.csv"
    assert main(["report", "--study", str(report_path), "--roc-svg", str(svg),
                 "--roc-csv", str(csv_out), "--table"]) == 0
    assert svg.read_text().startswith("<svg")
    assert csv_out.read_text().startswith("threshold,fpr,tpr")
    assert "AUC" in capsys.readouterr().out


def test_ingest_counts_once_and_prints_what_it_wrote(corpus_csv, tmp_path, monkeypatch, capsys):
    calls, summary = [], Dataset.summary
    monkeypatch.setattr(Dataset, "summary", lambda self: calls.append(1) or summary(self))
    ds_path = tmp_path / "dataset.json"
    assert main(["ingest", str(corpus_csv), "--out", str(ds_path)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out) == json.loads(ds_path.read_text())["summary"]


def test_score_stdin_uses_bundled_model(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        stdin_text('{"description": "Track your diary quiz"}\n'
                                   '{"description": ""}\n'))
    assert main(["score", "--explain"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = json.loads(lines[0])
    second = json.loads(lines[1])
    assert first["probability"] > 0.99
    assert second["flags"] == ["no_text"]
    assert second["probability"] == pytest.approx(0.0546, abs=5e-4)


def test_score_csv_file(corpus_csv, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    ds_path = tmp_path / "ds.json"
    assert main(["ingest", str(corpus_csv), "--out", str(ds_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--dataset", str(ds_path), "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["score", "--model", str(model_path), "--input", str(corpus_csv)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 700


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    rows = "".join(f"r{i},ios,T,quiz\n" for i in range(1000)).encode()
    for content, message in (
            (b"id,store,title\n1,ios,x\n", "missing required columns: description"),
            # A quoted field over the csv module's 131072-character limit.
            (b'id,store,title,description\n1,ios,x,"' + b"quiz " * 40000 + b'"\n',
             "malformed CSV at line 2"),
            # Invalid UTF-8 past the first 8 KB.
            (b"id,store,title,description\n" + rows + b"z,ios,T,\xff\n", "not valid UTF-8"),
            # A row with more fields than the header, and one with fewer.
            (b"id,store,title,description\n1,ios,My App,Track, play and quiz\n",
             "row 2: 5 fields, but the header has 4"),
            (b"id,store,title,description,gamification_label\n1,ios,T,quiz\n",
             "row 2: 4 fields, but the header has 5"),
            # A read column named twice: a row's dict would keep the last copy.
            (b"id,store,title,description,description\n1,ios,T,quiz game,\n",
             "repeated columns: description"),
            (b"id,store,title,description,id\n1,ios,T,quiz game,2\n", "repeated columns: id"),
            # Text after a closing quote, and a quote never closed: strict CSV refuses both.
            (b'id,store,title,description\n1,ios,"Quiz"x,track\n',
             "malformed CSV at line 2: ',' expected after '\"'"),
            (b'id,store,title,description\n2,ios,T,"quiz', "malformed CSV at line 2"),
            # Record values: `AppRecord` checks them after the reader's conversions.
            (b"id,store,title,description\n,ios,T,quiz\n", "row 2: record id must be nonempty"),
            (b"id,store,title,description,app_type\n1,ios,T,quiz,Health\n",
             "row 2: record '1': app_type must be one of ('breast_cancer', 'health', 'misc')"),
            (b"id,store,title,description,gamification_label\n1,ios,T,quiz, 1\n",
             "row 2: gamification_label must be 0 or 1, got ' 1'")):
        bad.write_bytes(content)
        for argv in (["ingest", str(bad), "--out", str(tmp_path / "o.json")],
                     ["score", "--input", str(bad)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert err.startswith(f"error: {message}") and "Traceback" not in err
            assert out == ""


def test_repeated_json_field_is_input_error(tmp_path, monkeypatch, capsys):
    # `json` keeps the last value of a repeated key, as a CSV row's dict does.
    record = ('{"id": "1", "store": "ios", "title": "", '
              '"description": "quiz game", "description": ""}')
    monkeypatch.setattr("sys.stdin", stdin_text('{"id": "0"}\n' + record + "\n"))
    assert main(["score"]) == 2
    assert "row 2: repeated fields: description" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text(f"[{record}]", encoding="utf-8")
    for argv in (["ingest", str(bad), "--out", str(tmp_path / "o.json")],
                 ["score", "--input", str(bad)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "repeated fields: description" in err and out == ""
    # A field the reader does not read may repeat.
    monkeypatch.setattr("sys.stdin", stdin_text('{"id": "1", "note": "a", "note": "b"}\n'))
    assert main(["score"]) == 0


def _scipy_modules_probe(steps: str) -> str:
    """A fresh-interpreter script: run `steps`, then print what each `record(...)` saw of scipy."""
    return ("import json, sys\nloaded = {}\n"
            "def record(step):\n"
            "    loaded[step] = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            f"{steps}\nprint(json.dumps(loaded))\n")


def _run_probe(script: str, *args) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _benchmark_setup_code() -> str:
    """`SETUP_CODE` of `perfbench/bench.py`, the line whose fresh-interpreter time is `setup_s`."""
    tree = ast.parse((ROOT / "perfbench" / "bench.py").read_text(encoding="utf-8"))
    return next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "SETUP_CODE")


_SCORING_STEPS = """
setup, listings, model, dataset = sys.argv[1:]
exec(setup)
record("setup")
from gamiscreen import cli
from gamiscreen.evaluation import calibration_strata, roc_auc
assert cli.main(["score", "--explain", "--input", listings]) == 0
record("score --explain")
assert cli.main(["evaluate", "--model", model, "--dataset", dataset, "--split", "all"]) == 0
record("evaluate --split all")
p, y = [0.1, 0.2, 0.2, 0.4, 0.6, 0.7, 0.7, 0.9], [0, 0, 1, 0, 1, 0, 1, 1]
roc_auc(p, y)
calibration_strata(p, y)
record("roc + calibration")
"""


def test_scoring_and_evaluation_load_no_scipy(tmp_path):
    """In a fresh interpreter, set-up, `score`, `evaluate` and ROC + calibration import no scipy."""
    listings = tmp_path / "listings.csv"
    listings.write_text("id,store,title,description\n1,ios,Quiz,Track your quiz progress\n")
    dataset = tmp_path / "dataset.csv"
    rows = ["quiz game", "quiz", "game", "\u00e9toile", "diary", "quiz \u00e9toile", "notes", "game"]
    dataset.write_text("id,store,title,description,gamification_label\n" + "".join(
        f"{i},ios,App,{text},{int(i < 4)}\n" for i, text in enumerate(rows)), encoding="utf-8")
    model = _two_coefficient_model(tmp_path / "model.json")
    loaded = _run_probe(_scipy_modules_probe(_SCORING_STEPS), _benchmark_setup_code(),
                        listings, model, dataset)
    assert loaded == {step: [] for step in (
        "setup", "score --explain", "evaluate --split all", "roc + calibration")}


_TRAIN_STEPS = """
from gamiscreen import cli
assert cli.main(["train", "--dataset", sys.argv[1], "--seed", "1", "--out", sys.argv[2]]) == 0
record("train")
loaded["subpackages"] = [m for m in loaded["train"] if m.count(".") == 1
                         and not m.startswith("scipy._") and hasattr(sys.modules[m], "__path__")]
"""


def test_train_loads_scipy_special_alone(corpus_csv, tmp_path):
    """`train` imports `scipy.special` for its p-values, and no other scipy subpackage."""
    loaded = _run_probe(_scipy_modules_probe(_TRAIN_STEPS), corpus_csv, tmp_path / "model.json")
    assert loaded["subpackages"] == ["scipy.special"]


_HASHLIB_STEPS = """
import json, sys
import numpy
loaded = {"numpy": "hashlib" in sys.modules}
def record(step):
    loaded[step] = "hashlib" in sys.modules
setup, listings, dataset, model = sys.argv[1:]
exec(setup)
record("setup")
from gamiscreen import cli
assert cli.main(["score", "--explain", "--input", listings]) == 0
record("score --explain")
assert cli.main(["train", "--dataset", dataset, "--seed", "1", "--out", model]) == 0
record("train")
print(json.dumps(loaded))
"""


def test_setup_and_score_load_no_hashlib(corpus_csv, tmp_path):
    """In a fresh interpreter, set-up and `score` import no `hashlib`, which only the labeled
    pass of `train` and `evaluate` needs; numpy 1.x loads it itself, through `numpy.random`."""
    listings = tmp_path / "listings.csv"
    listings.write_text("id,store,title,description\n1,ios,Quiz,Track your quiz progress\n")
    loaded = _run_probe(_HASHLIB_STEPS, _benchmark_setup_code(), listings, corpus_csv,
                        tmp_path / "model.json")
    by_numpy = loaded.pop("numpy")
    assert loaded == {"setup": by_numpy, "score --explain": by_numpy, "train": True}


def test_score_reads_the_process_stdin(monkeypatch, capsys):
    """`python -m gamiscreen score` decodes the bytes of its own stdin as `ingest` does."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def score(stdin: bytes):
        return subprocess.run([sys.executable, "-m", "gamiscreen", "score", "--explain"],
                              input=stdin, env=env, capture_output=True)

    text = ('\ufeff{"description": "multiplayer trivia game"}\r\n'
            '{"title": "Quiz", "description": "track your progress"}\r'
            '{"description": "daily diary"}\n')
    run = score(text.encode("utf-8"))
    assert run.returncode == 0 and run.stderr == b""
    monkeypatch.setattr("sys.stdin", stdin_text(text))
    assert main(["score", "--explain"]) == 0
    assert run.stdout.decode("utf-8") == capsys.readouterr().out
    assert len(run.stdout.splitlines()) == 3
    # Line ends are translated: the parser sees `\n` where the line had CRLF.
    run = score(b'{"id": "a"\r\n')
    assert run.returncode == 2 and run.stdout == b""
    assert run.stderr.decode("utf-8").startswith(
        "error: row 1: invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 11)")


def test_statistical_error_exit_code(tmp_path, capsys):
    # labels exactly equal to the Game Labels bit: separation
    path = tmp_path / "sep.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=["id", "store", "title", "description",
                                           "gamification_label"])
        w.writeheader()
        extras = ["quiz", "diary", "track", "story", "progress", "purpose", "quest",
                  "routine", "statistics", "change", "engage", "player", "fun"]
        for i in range(90):
            has_game = i % 3 == 0
            desc = extras[i % len(extras)] + (" game" if has_game else " walk")
            w.writerow({"id": f"s{i}", "store": "ios", "title": "",
                        "description": desc,
                        "gamification_label": int(has_game)})
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "m.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path, capsys):
    assert main(["report", "--study", str(tmp_path / "missing.json")]) == 4


def test_closed_stdout_exits_4(tmp_path):
    """A reader that stops early leaves output undelivered: `score` exits 4 with one line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # 5k listings of about 120 tokens: the `--explain` lines far outgrow a pipe buffer.
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "bench_inputs.py"),
                    "score-listings", "1", str(tmp_path)], env=env, check=True)
    proc = subprocess.Popen([sys.executable, "-m", "gamiscreen", "score", "--explain",
                             "--input", str(tmp_path / "listings.csv")],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b'{"id": "listing000000"')
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 4
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("line", ["[1, 2]", "7", '"text"', "{bad json", '{"id": "a"',
                                  '{"store": 5}', '{"title": ["x"]}', '{"id": ["a"]}',
                                  '{"id": 1.5}', '{"id": true}'])
def test_score_stdin_bad_line_is_input_error(monkeypatch, capsys, line):
    monkeypatch.setattr("sys.stdin", stdin_text('{"description": "quiz"}\n' + line + "\n"))
    assert main(["score"]) == 2
    captured = capsys.readouterr()
    assert "row 2" in captured.err
    assert "Traceback" not in captured.err


def test_python_m_gamiscreen(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_text('{"description": "Track your diary quiz"}\n'))
    monkeypatch.setattr(sys, "argv", ["gamiscreen", "score"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("gamiscreen", run_name="__main__")
    assert exit_info.value.code == 0
    assert json.loads(capsys.readouterr().out)["probability"] > 0.99


@pytest.mark.parametrize("content, message", [
    (b'{"records": [{"id": "a", "store": "ios", "title": "", "description": ""}, 5]}',
     "row 2: record is not an object"),
    (b'{"records": [', "invalid JSON"),
    (b'{"records": [{"id": "a", "store": "ios", "title": "\xff", "description": ""}]}',
     "not valid UTF-8"),
    (b'{"records": 5}', "expected a JSON array of records"),
    (b'"x"', "expected a JSON array of records"),
    (b'{"records": [{"id": "a", "store": "ios", "title": ""}]}',
     "row 1: missing required field 'description'"),
    # Valid records whose bits are all 0: every univariate fit fails, so none is kept.
    (json.dumps({"records": [{"id": f"r{i}", "store": "ios", "title": "", "description": "",
                              "gamification_label": i % 2} for i in range(30)]}).encode(),
     "strict selection kept no variables"),
], ids=["non-object record", "malformed JSON", "invalid UTF-8", "records not an array",
        "document a string", "record without description", "strict selection keeps none"])
def test_train_bad_dataset_file_is_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "dataset.json"
    path.write_bytes(content)
    assert main(["train", "--dataset", str(path), "--select", "strict",
                 "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("select", ["forced", "strict"])
def test_evaluate_reproduces_the_report(corpus_csv, tmp_path, capsys, select):
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7", "--select", select,
                 "--out", str(model), "--report", str(report)]) == 0
    capsys.readouterr()
    study = json.loads(report.read_text(encoding="utf-8"))
    for split in ("validation", "generation"):
        assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv),
                     "--split", split]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        roc = study["roc"][split]
        assert [evaluated[k] for k in ("auc", "auc_ci_low", "auc_ci_high")] == [
            roc["auc"], roc["auc_ci_low"], roc["auc_ci_high"]]
        # the report calibrates the validation group; the generation group the same way
        recs = [r for r in study["records"] if r["group"] == split]
        calibration = calibration_to_dict(calibration_strata(
            np.array([r["probability"] for r in recs]), np.array([r["label"] for r in recs])))
        if split == "validation":
            assert calibration == study["calibration"]
        assert evaluated["calibration"] == calibration


def test_evaluate_all_reproduces_the_report_records(corpus_csv, tmp_path, capsys):
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7",
                 "--out", str(model), "--report", str(report)]) == 0
    capsys.readouterr()
    records = json.loads(report.read_text(encoding="utf-8"))["records"]
    assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv)]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    # Both groups together: every labeled record of the dataset.
    probs = np.array([r["probability"] for r in records])
    labels = np.array([r["label"] for r in records])
    roc = roc_auc(probs, labels)
    assert evaluated["split"] == "all" and evaluated["n"] == len(records) == 700
    assert [evaluated[k] for k in ("auc", "auc_ci_low", "auc_ci_high")] == [
        roc.auc, roc.auc_ci_low, roc.auc_ci_high]
    assert evaluated["calibration"] == calibration_to_dict(calibration_strata(probs, labels))


def test_evaluate_defaults_to_the_model_seed(corpus_csv, tmp_path, capsys):
    # Two models of one dataset, split with different seeds: each is judged on its own groups.
    validation = {}
    for seed in ("7", "8"):
        model, report = tmp_path / f"model{seed}.json", tmp_path / f"report{seed}.json"
        assert main(["train", "--dataset", str(corpus_csv), "--seed", seed,
                     "--out", str(model), "--report", str(report)]) == 0
        capsys.readouterr()
        study = json.loads(report.read_text(encoding="utf-8"))
        for split in ("generation", "validation"):
            assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv),
                         "--split", split]) == 0
            evaluated = json.loads(capsys.readouterr().out)
            roc = study["roc"][split]
            assert evaluated["n"] == study["split"][f"n_{split}"]
            assert [evaluated[k] for k in ("auc", "auc_ci_low", "auc_ci_high")] == [
                roc["auc"], roc["auc_ci_low"], roc["auc_ci_high"]]
        validation[seed] = evaluated
    assert validation["7"]["auc"] != validation["8"]["auc"]


def test_evaluate_refuses_a_dataset_other_than_the_models(corpus_csv, tmp_path, capsys):
    model, unpinned, other = tmp_path / "model.json", tmp_path / "unpinned.json", tmp_path / "o.csv"
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7", "--out", str(model)]) == 0
    capsys.readouterr()
    doc = json.loads(model.read_text(encoding="utf-8"))
    del doc["training"]["n_labeled"], doc["training"]["labeled_ids_sha256"]
    unpinned.write_text(json.dumps(doc), encoding="utf-8")
    with open(corpus_csv, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    swapped = [rows[1], rows[0], *rows[2:]]
    # Each would cut "validation" and "generation" groups other than the study's.
    for changed in (rows[:-1], [*rows, ["extra", "ios", "Quiz", "trivia game", "1"]], swapped):
        with open(other, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *changed])
        for split in ("validation", "generation"):
            argv = ["evaluate", "--dataset", str(other), "--split", split]
            assert main([*argv, "--model", str(model)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: the dataset's {len(changed)} labeled records are not those the model's "
                f"split was cut from, so its {split} group is unknown; use --split all\n")
            # unchecked: a model without the pin, and every labeled record
            assert main([*argv, "--model", str(unpinned)]) == 0
            capsys.readouterr()
        assert main(["evaluate", "--dataset", str(other), "--model", str(model)]) == 0
        capsys.readouterr()


def test_evaluate_of_the_models_dataset_prints_what_an_unpinned_model_does(
        corpus_csv, tmp_path, capsys):
    model, unpinned = tmp_path / "model.json", tmp_path / "unpinned.json"
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7", "--out", str(model)]) == 0
    capsys.readouterr()
    doc = json.loads(model.read_text(encoding="utf-8"))
    assert doc["training"]["n_labeled"] == 700
    del doc["training"]["n_labeled"], doc["training"]["labeled_ids_sha256"]
    unpinned.write_text(json.dumps(doc), encoding="utf-8")
    for split in ("validation", "generation", "all"):
        outputs = []
        for path in (model, unpinned):
            assert main(["evaluate", "--model", str(path), "--dataset", str(corpus_csv),
                         "--split", split]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_each_judged_group_gets_one_tie_table(corpus_csv, tmp_path, monkeypatch, capsys):
    from gamiscreen import evaluation
    model, sizes, tie_table = tmp_path / "model.json", [], evaluation._tie_table
    monkeypatch.setattr(evaluation, "_tie_table",
                        lambda scores, labels: sizes.append(len(scores)) or tie_table(scores, labels))
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7", "--out", str(model)]) == 0
    trained = json.loads(capsys.readouterr().out)
    assert sizes == [trained["n_generation"], trained["n_validation"]]
    for split in ("all", "generation", "validation"):
        sizes.clear()
        assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv),
                     "--split", split]) == 0
        assert sizes == [json.loads(capsys.readouterr().out)["n"]]


def test_evaluate_has_no_seed_option(corpus_csv, capsys):
    bundled = str(resources.files("gamiscreen.data").joinpath("pretrained_model.json"))
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--help"])
    assert exit_info.value.code == 0 and "--seed" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--model", bundled, "--dataset", str(corpus_csv),
              "--split", "validation", "--seed", "8"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert "unrecognized arguments: --seed 8" in err


@pytest.mark.parametrize("split", ["all", "validation"])
def test_evaluate_makes_one_probability_per_pattern(corpus_csv, tmp_path, monkeypatch, capsys,
                                                     split):
    import gamiscreen as g
    from gamiscreen.logit import probabilities
    model = tmp_path / "model.json"
    assert main(["train", "--dataset", str(corpus_csv), "--seed", "7", "--out", str(model)]) == 0
    capsys.readouterr()
    calls = []
    monkeypatch.setattr("gamiscreen.logit.probabilities",
                        lambda m, X: calls.append(X.tolist()) or probabilities(m, X))
    assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv),
                 "--split", split]) == 0
    # one `probabilities` call, on exactly the distinct patterns of the labeled records, which
    # a group split indexes by row
    labeled = [r for r in g.read_records(corpus_csv) if r.gamification_label is not None]
    grouping = g.load_model(model).grouping
    assert len(calls) == 1
    assert sorted(map(tuple, calls[0])) == sorted(
        {g.extract_features(r, grouping).bits for r in labeled})
    assert len(calls[0]) < len(labeled)
    group = g.split(len(labeled), 7)[1] if split == "validation" else labeled
    assert json.loads(capsys.readouterr().out)["n"] == len(group)


def test_evaluate_model_without_seed(corpus_csv, tmp_path, capsys):
    bundled = str(resources.files("gamiscreen.data").joinpath("pretrained_model.json"))
    # A group split is refused before the dataset is opened: a missing one (exit 4) is not reached.
    for dataset in (corpus_csv, tmp_path / "missing.csv"):
        for split in ("validation", "generation"):
            assert main(["evaluate", "--model", bundled, "--dataset", str(dataset),
                         "--split", split]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == (f"error: model records no split seed, so its {split} "
                                         "group is unknown; use --split all\n")
    assert main(["evaluate", "--model", bundled, "--dataset", str(corpus_csv),
                 "--split", "all"]) == 0


def _model_without_keywords(path) -> Path:
    doc = json.loads(resources.files("gamiscreen.data").joinpath("pretrained_model.json")
                     .read_text(encoding="utf-8"))
    for variable in doc["variables"]:
        variable["keywords"] = []
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [
    ["score", "--input"],
    ["evaluate", "--dataset"],
    ["evaluate", "--split", "validation", "--dataset"],
], ids=["score", "evaluate", "evaluate validation"])
def test_model_without_keywords_is_refused(corpus_csv, tmp_path, capsys, command):
    model = _model_without_keywords(tmp_path / "model.json")
    assert main([*command, str(corpus_csv), "--model", str(model)]) == 2
    assert "model carries no keywords" in capsys.readouterr().err


def test_evaluate_model_without_keywords_reads_no_input(tmp_path, capsys):
    model = _model_without_keywords(tmp_path / "model.json")
    # A missing dataset (exit 4 once opened) is not reached.
    for split in (["--split", "all"], ["--split", "validation"]):
        assert main(["evaluate", "--model", str(model),
                     "--dataset", str(tmp_path / "missing.csv"), *split]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: model carries no keywords; cannot score raw text\n"


def test_evaluate_negative_seed_reads_no_input(tmp_path, capsys):
    doc = json.loads(resources.files("gamiscreen.data").joinpath("pretrained_model.json")
                     .read_text(encoding="utf-8"))
    doc["training"]["seed"] = -1
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    # A missing dataset (exit 4 once opened) is not reached.
    assert main(["evaluate", "--model", str(model), "--dataset", str(tmp_path / "missing.csv"),
                 "--split", "validation"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be nonnegative, got -1\n"


def test_train_reads_the_lexicon_before_the_dataset(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_bytes(b"{")
    assert main(["train", "--lexicon", str(lexicon), "--dataset", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "m.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: lexicon file is not valid JSON")
    assert not (tmp_path / "m.json").exists()


def test_train_negative_seed_reads_no_input(tmp_path, capsys):
    # A missing dataset (exit 4 once opened) is not reached.
    assert main(["train", "--dataset", str(tmp_path / "missing.csv"), "--seed", "-1",
                 "--out", str(tmp_path / "m.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "m.json").exists()


def test_evaluate_dataset_without_labels_is_input_error(tmp_path, capsys):
    bundled = str(resources.files("gamiscreen.data").joinpath("pretrained_model.json"))
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("id,store,title,description\na,ios,Quiz,trivia game\n"
                         "b,android,Diary,track your day\n", encoding="utf-8")
    assert main(["evaluate", "--model", bundled, "--dataset", str(unlabeled)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no labeled records to evaluate\n"


@pytest.mark.parametrize("split, seed", [("all", None), ("validation", None),
                                         ("generation", 8)])
def test_evaluate_prints_the_library_document(corpus_csv, tmp_path, capsys, split, seed):
    import gamiscreen as g
    model = tmp_path / "model.json"
    # `seed` is the model's: `train --seed`, or its default when None
    train_seed = [] if seed is None else ["--seed", str(seed)]
    assert main(["train", "--dataset", str(corpus_csv), *train_seed, "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model), "--dataset", str(corpus_csv),
                 "--split", split]) == 0
    doc = g.evaluate(g.load_model(model), g.read_records(corpus_csv), split)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


def test_model_file_with_byte_order_mark(corpus_csv, tmp_path, capsys):
    model, bom = tmp_path / "model.json", tmp_path / "bom.json"
    assert main(["train", "--dataset", str(corpus_csv), "--out", str(model)]) == 0
    bom.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    capsys.readouterr()
    outputs = []
    for path in (model, bom):
        assert main(["score", "--model", str(path), "--input", str(corpus_csv), "--explain"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_score_empty_input_prints_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_text("\n"))
    assert main(["score", "--explain"]) == 0
    header_only = tmp_path / "empty.csv"
    header_only.write_text("id,store,title,description\n", encoding="utf-8")
    assert main(["score", "--explain", "--input", str(header_only)]) == 0
    assert capsys.readouterr().out == ""


def test_score_stdin_duplicate_id_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", stdin_text('{"id": "a"}\n{"id": "a"}\n'))
    assert main(["score"]) == 2
    assert "duplicate record id" in capsys.readouterr().err


def _explained(capsys):
    return [{k: d[k] for k in ("id", "probability", "matched_keywords", "flags")}
            for d in map(json.loads, capsys.readouterr().out.splitlines())]


def test_score_stdin_matches_csv(corpus_csv, monkeypatch, capsys):
    with open(corpus_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    lines = [json.dumps({k: r[k] for k in ("id", "store", "title", "description")})
             for r in rows]
    monkeypatch.setattr("sys.stdin", stdin_text("\n".join(lines) + "\n"))
    assert main(["score", "--explain"]) == 0
    from_stdin = _explained(capsys)
    assert main(["score", "--explain", "--input", str(corpus_csv)]) == 0
    from_csv = _explained(capsys)
    assert len(from_csv) == 700
    assert from_stdin == from_csv


def _two_coefficient_model(path) -> Path:
    # Quiz and Game have one coefficient, so their patterns share a probability but
    # not their contributions; the non-ASCII name and keyword show `ensure_ascii`.
    variables = [("\u00c9toile", ["\u00e9toile"], 0.5), ("Quiz", ["quiz", "quizzes"], 1.5),
                 ("Game", ["game"], 1.5)]
    path.write_bytes(_doc({"format_version": 1, "intercept": -1.0, "variables": [
        {"name": n, "keywords": k, "coefficient": c, "standard_error": 0.5}
        for n, k, c in variables]}))
    return path


def _refuse(*args, **kwargs):
    raise AssertionError("the score command built a ScoreResult")


def _assert_lines_are_the_bytes_of_to_dict(model, listings, capsys, monkeypatch):
    results = score_records(load_model(model), ingest(listings).records)
    assert type(results) is list
    # The command encodes its lines from the chunks, without a result per record.
    monkeypatch.setattr("gamiscreen.pipeline.ScoreResult", _refuse)
    for explain in (False, True):
        assert main(["score", "--model", str(model), "--input", str(listings),
                     *(["--explain"] if explain else [])]) == 0
        assert capsys.readouterr().out == "".join(
            json.dumps(r.to_dict(explain)) + "\n" for r in results)
    return results


def test_score_lines_are_the_bytes_of_to_dict(tmp_path, capsys, monkeypatch):
    model = _two_coefficient_model(tmp_path / "model.json")
    texts = [("q\"1\\\u00fc", "Quiz time"), ("g1", "GAME on"), ("q2", "quizzes, and a quiz"),
             ("e1", "\u00c9toile du QUIZ: game"), ("n1", ""), ("z1", "nothing here"),
             ("e2", "\u00e9toile"), ("g2", "game")]
    listings = tmp_path / "listings.json"
    listings.write_bytes(_doc([{"id": i, "store": "ios", "title": "", "description": d}
                               for i, d in texts]))
    results = _assert_lines_are_the_bytes_of_to_dict(model, listings, capsys, monkeypatch)
    assert results[0].probability == results[1].probability and results[4].flags == ("no_text",)


def test_score_lines_are_the_bytes_of_to_dict_across_chunks(tmp_path, capsys, monkeypatch):
    # Over two chunks and a part: the first chunk's patterns recur in the later ones, one
    # pattern and the only empty listing first appear in the third.
    model = _two_coefficient_model(tmp_path / "model.json")
    texts = ["Quiz time", "GAME on", "quizzes, and a game", "nothing here", "\u00fcber quiz"]
    n = 2 * SCORE_CHUNK + 300
    rows = [(f"r{i}", texts[i % len(texts)]) for i in range(n)]
    rows[2 * SCORE_CHUNK + 5] = ("empty", "")
    rows[2 * SCORE_CHUNK + 9] = ("\u00e9t\u00e9", "\u00c9toile game")
    listings = tmp_path / "listings.csv"
    with open(listings, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "store", "title", "description"])
        w.writerows((i, "ios", "", d) for i, d in rows)
    results = _assert_lines_are_the_bytes_of_to_dict(model, listings, capsys, monkeypatch)
    assert len(results) == n
    assert [r.id for r in results if r.flags] == ["empty"]
    assert {r.bits for r in results[SCORE_CHUNK:]} - {r.bits for r in results[:SCORE_CHUNK]} \
        == {results[2 * SCORE_CHUNK + 9].bits}


@pytest.mark.parametrize("fault, message", [
    ("x,symbian,T,quiz", f"row {SCORE_CHUNK + 12}: unknown store: 'symbian'"
     " (expected android, ios or other)"),
    ("r5,ios,T,quiz", "duplicate record id: 'r5'"),
], ids=["bad row", "duplicate id"])
def test_score_fault_after_the_first_chunk(tmp_path, capsys, fault, message):
    # The lines of every chunk read before the fault are written, then the command exits 2.
    rows = [f"r{i},ios,Quiz,{'track your diary' if i % 3 else 'multiplayer game'}"
            for i in range(SCORE_CHUNK + 10)]
    listings, first_chunk = tmp_path / "listings.csv", tmp_path / "first.csv"
    for path, lines in ((listings, [*rows, fault]), (first_chunk, rows[:SCORE_CHUNK])):
        path.write_text("\n".join(["id,store,title,description", *lines]) + "\n",
                        encoding="utf-8")
    assert main(["score", "--input", str(first_chunk)]) == 0
    expected = capsys.readouterr().out
    assert main(["score", "--input", str(listings)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == expected and len(out.splitlines()) == SCORE_CHUNK


def test_score_model_without_keywords_reads_no_input(tmp_path, monkeypatch, capsys):
    model = _model_without_keywords(tmp_path / "model.json")
    # Neither a missing file (exit 4 once opened) nor a bad stdin line is reached.
    monkeypatch.setattr("sys.stdin", stdin_text("{bad json\n"))
    for source in (str(tmp_path / "missing.csv"), "-"):
        assert main(["score", "--model", str(model), "--input", source, "--explain"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: model carries no keywords; cannot score raw text\n"


def test_first_fault_in_the_file_fails_every_command(tmp_path, capsys):
    # A repeated id before a bad row fails on the id, and a bad row before it on the row.
    bundled = str(resources.files("gamiscreen.data").joinpath("pretrained_model.json"))
    path = tmp_path / "in.csv"
    for rows, message in ((["a,ios,T,quiz,1", "a,ios,T,game,0", "b,symbian,T,x,1"],
                           "duplicate record id: 'a'"),
                          (["a,ios,T,quiz,1", "b,symbian,T,x,1", "a,ios,T,game,0"],
                           "row 3: unknown store: 'symbian'")):
        path.write_text("\n".join(["id,store,title,description,gamification_label", *rows])
                        + "\n", encoding="utf-8")
        for argv in (["ingest", str(path), "--out", str(tmp_path / "o.json")],
                     ["train", "--dataset", str(path), "--out", str(tmp_path / "m.json")],
                     ["evaluate", "--model", bundled, "--dataset", str(path)],
                     ["score", "--input", str(path)]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {message}")


def _listings(path, n: int) -> Path:
    """n listings of about 80 tokens each, drawing on a few keyword patterns."""
    filler = " ".join(f"word{j}" for j in range(75))
    keywords = ["", "quiz", "track your diary", "multiplayer game", "daily fun story"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "store", "title", "description"])
        w.writerows((f"app{i:05d}", "ios", "Sample App", f"{filler} {keywords[i % 5]}")
                    for i in range(n))
    return path


def test_score_memory_is_flat_in_n(tmp_path):
    # The tracemalloc peak may grow by the id set and the encoded patterns only, well under
    # 0.5 KB for each extra record; holding every record and result costs several KB.
    peaks = {}
    for n in (1_000, 10_000):
        listings = _listings(tmp_path / f"listings-{n}.csv", n)
        with open(tmp_path / "scores.jsonl", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(["score", "--explain", "--input", str(listings)]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "scores.jsonl").read_bytes().splitlines()) == n
    assert peaks[10_000] - peaks[1_000] < 512 * 9_000


def test_train_memory_is_flat_in_text_length(tmp_path, capsys):
    # `train` keeps each labeled listing's id, label and bits, not its text: two inputs of
    # the same listings, one with about 200 more filler tokens in each description, may
    # differ in tracemalloc peak by a small share of the extra text only.
    import gamiscreen as g
    ds = synthetic_corpus(g.pretrained_model(), g.pretrained_grouping(), n=4_000, seed=31)
    filler = " ".join(f"word{j}" for j in range(200))
    paths = {}
    for tag, extra in (("short", ""), ("long", f" {filler}")):
        paths[tag] = tmp_path / f"{tag}.csv"
        with open(paths[tag], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "store", "title", "description", "gamification_label"])
            w.writerows((r.id, r.store, r.title, r.description + extra, r.gamification_label)
                        for r in ds.records)
    extra_bytes = paths["long"].stat().st_size - paths["short"].stat().st_size
    model = str(tmp_path / "model.json")
    # The first run imports `scipy.special`, which would dominate a cold peak.
    assert main(["train", "--dataset", str(paths["short"]), "--out", model]) == 0
    peaks, outs = {}, {}
    for tag, path in paths.items():
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(["train", "--dataset", str(path), "--out", model]) == 0
            peaks[tag] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outs[tag] = capsys.readouterr().out
    assert outs["short"] == outs["long"]  # the filler matches no keyword
    assert peaks["long"] - peaks["short"] < 0.1 * extra_bytes


@pytest.mark.parametrize("split", ["all", "validation"])
def test_evaluate_memory_is_flat_in_text_length(tmp_path, capsys, split):
    # `evaluate` extracts each labeled listing as it reads it and keeps its label and pattern
    # row, not its text: the twin of the `train` test above, on the same two inputs.
    import gamiscreen as g
    ds = synthetic_corpus(g.pretrained_model(), g.pretrained_grouping(), n=4_000, seed=31)
    filler = " ".join(f"word{j}" for j in range(200))
    paths = {}
    for tag, extra in (("short", ""), ("long", f" {filler}")):
        paths[tag] = tmp_path / f"{tag}.csv"
        with open(paths[tag], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "store", "title", "description", "gamification_label"])
            w.writerows((r.id, r.store, r.title, r.description + extra, r.gamification_label)
                        for r in ds.records)
    extra_bytes = paths["long"].stat().st_size - paths["short"].stat().st_size
    model = str(tmp_path / "model.json")
    assert main(["train", "--dataset", str(paths["short"]), "--out", model]) == 0
    argv = ["evaluate", "--model", model, "--split", split, "--dataset"]
    assert main(argv + [str(paths["short"])]) == 0  # a cold first run would add its imports
    peaks, outs = {}, {}
    for tag, path in paths.items():
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv + [str(path)]) == 0
            peaks[tag] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outs[tag] = capsys.readouterr().out
    assert outs["short"] == outs["long"]  # the filler matches no keyword
    assert peaks["long"] - peaks["short"] < 0.1 * extra_bytes


def test_train_memory_per_record_is_at_most_evaluates(tmp_path, capsys):
    # `train` without `--report` keeps per labeled listing its id, label, pattern row, split
    # position and probability, and no per-record copy of them: from 4k to 8k listings its
    # tracemalloc peak grows per listing by no more than that of `evaluate --split validation`.
    import gamiscreen as g
    ds = synthetic_corpus(g.pretrained_model(), g.pretrained_grouping(), n=8_000, seed=31)
    paths = {n: tmp_path / f"{n}.csv" for n in (4_000, 8_000)}
    for n, path in paths.items():
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "store", "title", "description", "gamification_label"])
            w.writerows((r.id, r.store, r.title, r.description, r.gamification_label)
                        for r in ds.records[:n])
    model = str(tmp_path / "model.json")
    assert main(["train", "--dataset", str(paths[4_000]), "--out", model]) == 0
    # without the pin to its 4k listings, so the model's seed cuts a group of each corpus
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    del doc["training"]["n_labeled"], doc["training"]["labeled_ids_sha256"]
    Path(model).write_text(json.dumps(doc), encoding="utf-8")
    growth = {}
    for argv in (["train", "--out", str(tmp_path / "other.json"), "--dataset"],
                 ["evaluate", "--model", model, "--split", "validation", "--dataset"]):
        assert main(argv + [str(paths[4_000])]) == 0  # a cold first run would add its imports
        peaks = {}
        for n, path in paths.items():
            tracemalloc.start()
            try:
                assert main(argv + [str(path)]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        growth[argv[0]] = (peaks[8_000] - peaks[4_000]) / 4_000
    capsys.readouterr()
    assert growth["train"] <= growth["evaluate"], growth


def test_train_from_csv_matches_dataset_file(corpus_csv, tmp_path, capsys):
    ds_path = tmp_path / "dataset.json"
    assert main(["ingest", str(corpus_csv), "--out", str(ds_path)]) == 0
    outputs = []
    for source, tag in ((corpus_csv, "csv"), (ds_path, "json")):
        model, report = tmp_path / f"model-{tag}.json", tmp_path / f"report-{tag}.json"
        assert main(["train", "--dataset", str(source), "--seed", "5",
                     "--out", str(model), "--report", str(report)]) == 0
        outputs.append((model.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    study = run_study(read_records(corpus_csv), seed=5)
    assert outputs[0][1] == (json.dumps(study.to_dict(), indent=2) + "\n").encode("utf-8")


def _doc(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


_MODEL_VARIABLE = {"name": "A", "coefficient": 1.0, "standard_error": 0.5}
_BAD_KEYWORDS = ("Quiz", "two words", "")  # not casefolded, not one token, empty
_BAD_SEEDS = ("7", True, 7.5, -7)  # not seeds, though `Random` accepts each
_STUDY_DATASET = {"n_records": 4, "n_labeled": 4, "n_positive": 2}
_STUDY_AUC = {"auc": 0.75, "auc_ci_low": 0.5, "auc_ci_high": 1.0}


def _study(**parts) -> bytes:
    """A study report that `report --table` can print, with `parts` replaced."""
    return _doc({"records": [], "dataset": _STUDY_DATASET,
                 "roc": {"generation": _STUDY_AUC, "validation": _STUDY_AUC},
                 "calibration": {"strata": [], "merged": []}, **parts})


@pytest.mark.parametrize("intercept, variable", [
    (False, {"coefficient": True}),
    (-1.0, {"coefficient": True}),
    (-1.0, {"standard_error": False}),
    (-1.0, {"coefficient": math.nan}),
    (-1.0, {"coefficient": math.inf}),
    (-math.inf, {}),
    (-1.0, {"coefficient": 10 ** 400}),
], ids=["intercept false", "coefficient true", "standard error false", "coefficient NaN",
        "coefficient Infinity", "intercept -Infinity", "coefficient beyond float64"])
def test_score_refuses_a_model_number_json_cannot_mean(tmp_path, monkeypatch, capsys,
                                                       intercept, variable):
    # JSON true and false are no numbers, and a NaN probability is no JSON
    path = tmp_path / "model.json"
    path.write_bytes(_doc({"format_version": 1, "intercept": intercept,
                           "variables": [{**_MODEL_VARIABLE, "keywords": ["quiz"], **variable}]}))
    monkeypatch.setattr("sys.stdin", stdin_text('{"id": "a", "description": "quiz"}\n'))
    assert main(["score", "--model", str(path), "--explain"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("value", [[1], "x", {}, None, True])
def test_score_refuses_a_bad_intercept_standard_error(capsys, monkeypatch, tmp_path, value):
    # Present, it is a number like each variable's standard error; absent, it reads as NaN.
    doc = json.loads(resources.files("gamiscreen.data").joinpath("pretrained_model.json")
                     .read_text(encoding="utf-8"))
    monkeypatch.setattr("sys.stdin", stdin_text('{"id": "a", "description": "quiz"}\n'))
    path = tmp_path / "model.json"
    path.write_bytes(_doc({**doc, "intercept_standard_error": value}))
    assert main(["score", "--model", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: model file lacks a valid 'intercept_standard_error'\n")
    del doc["intercept_standard_error"]
    path.write_bytes(_doc(doc))
    assert main(["score", "--model", str(path)]) == 0
    assert math.isnan(load_model(path).standard_errors[0])


_BAD_TRAINING_NUMBERS = [
    ("n_obs", "x"), ("n_obs", True), ("n_obs", -1), ("n_obs", 1.5),
    ("n_labeled", "x"), ("n_labeled", True), ("n_labeled", -1), ("n_labeled", 1.5),
    ("log_likelihood", {"a": 1}), ("log_likelihood", True), ("log_likelihood", "x"),
    ("aic", [1]), ("aic", "x"), ("aic", True),
    pytest.param("aic", 10 ** 400, id="aic beyond float64"),
    ("labeled_ids_sha256", 1),
    pytest.param("labeled_ids_sha256", "A" * 64, id="labeled_ids_sha256 upper case"),
    pytest.param("labeled_ids_sha256", "a" * 63, id="labeled_ids_sha256 63 digits"),
    pytest.param("labeled_ids_sha256", "g" * 64, id="labeled_ids_sha256 not hex"),
]


@pytest.mark.parametrize("name, value", _BAD_TRAINING_NUMBERS)
def test_evaluate_refuses_a_bad_training_number(corpus_csv, tmp_path, capsys, name, value):
    doc = json.loads(resources.files("gamiscreen.data").joinpath("pretrained_model.json")
                     .read_text(encoding="utf-8"))
    doc["training"]["seed"] = 7
    path = tmp_path / "model.json"
    argv = ["evaluate", "--model", str(path), "--dataset", str(corpus_csv), "--split", "validation"]
    path.write_bytes(_doc({**doc, "training": {**doc["training"], name: value}}))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: model training block lacks a valid {name!r}\n")
    # null or absent, it is not known
    for training in ({**doc["training"], name: None},
                     {k: v for k, v in doc["training"].items() if k != name}):
        path.write_bytes(_doc({**doc, "training": training}))
        assert main(argv) == 0
        assert getattr(load_model(path), name) is None
        capsys.readouterr()


def test_report_table_prints_a_minimal_study(tmp_path, capsys):
    path = tmp_path / "study.json"
    path.write_bytes(_study())
    assert main(["report", "--study", str(path), "--table"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "records: 4  labeled: 4  positive: 2",
        "AUC (generation): 0.750 (95% CI 0.500-1.000)",
        "AUC (validation): 0.750 (95% CI 0.500-1.000)"]
    # Its validation group has no records, so it has no ROC curve.
    svg = tmp_path / "roc.svg"
    assert main(["report", "--study", str(path), "--roc-svg", str(svg)]) == 3
    assert not svg.exists()


@pytest.mark.parametrize("records, error", [
    ({}, "study report lacks a valid 'records'"),
    ({"records": [{"group": "validation"}]}, "study record lacks a valid 'label'"),
], ids=["without records", "with a malformed record"])
def test_report_table_reads_no_record(tmp_path, capsys, records, error):
    path, roc = tmp_path / "study.json", tmp_path / "roc.csv"
    study = json.loads(_study())
    del study["records"]
    path.write_bytes(_doc({**study, **records}))
    assert main(["report", "--study", str(path), "--table"]) == 0
    assert capsys.readouterr().out.startswith("records: 4  labeled: 4  positive: 2\n")
    # The ROC is drawn from the records, so they are checked then.
    assert main(["report", "--study", str(path), "--roc-csv", str(roc), "--table"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not roc.exists()


@pytest.mark.parametrize("command, flag, content", [
    ("score", "--model", _doc({"format_version": 1})),
    ("score", "--model", _doc([1])),
    ("score", "--model", _doc({"format_version": 2, "intercept": -1.0,
                               "variables": [{**_MODEL_VARIABLE, "keywords": ["quiz"]}]})),
    ("train", "--lexicon", _doc({"version": 1})),
    ("report", "--study", _doc({"seed": 1})),
    ("score", "--model", b"{"),
    ("train", "--lexicon", b"{"),
    ("report", "--study", b"{"),
    ("score", "--model", b'{"format_version": 1, "intercept": "\xff"}'),
    ("train", "--lexicon", _doc({"keywords": [["quiz"]],
                                 "variables": [{"name": "A", "keywords": ["quiz"]}]})),
    ("train", "--lexicon", _doc({"keywords": ["quiz"],
                                 "variables": [{"name": "A", "keywords": [["quiz"]]}]})),
    ("score", "--model", _doc({"format_version": 1, "intercept": -1.0,
                               "variables": [{**_MODEL_VARIABLE, "keywords": [["quiz"]]}]})),
    ("score", "--model", _doc({"format_version": 1, "intercept": -1.0,
                               "variables": [{**_MODEL_VARIABLE, "keywords": "quiz"}]})),
    *[("score", "--model", _doc({"format_version": 1, "intercept": -1.0,
                                 "variables": [{**_MODEL_VARIABLE, "keywords": [k]}]}))
      for k in _BAD_KEYWORDS],
    *[("train", "--lexicon", _doc({"keywords": ["quiz"],
                                   "variables": [{"name": "A", "keywords": [k]}]}))
      for k in _BAD_KEYWORDS],
    ("score", "--model", _doc({"format_version": 1, "intercept": -1.0,
                               "variables": [{**_MODEL_VARIABLE, "keywords": ["quiz"]},
                                             {**_MODEL_VARIABLE, "keywords": ["game"]}]})),
    ("train", "--lexicon", _doc({"keywords": ["quiz", "game"],
                                 "variables": [{"name": "A", "keywords": ["quiz"]},
                                               {"name": "A", "keywords": ["game"]}]})),
    ("train", "--lexicon", _doc({"keywords": ["quiz", "quiz"],
                                 "variables": [{"name": "A", "keywords": ["quiz"]}]})),
    ("train", "--lexicon", _doc({"keywords": ["quiz"],
                                 "variables": [{"name": "A", "keywords": ["quiz", "game"]}]})),
    ("train", "--lexicon", _doc({"keywords": ["quiz"],
                                 "variables": [{"name": "A", "keywords": []}]})),
    *[("evaluate", "--model", _doc({"format_version": 1, "intercept": -1.0,
                                    "variables": [{**_MODEL_VARIABLE, "keywords": ["quiz"]}],
                                    "training": {"seed": seed}}))
      for seed in _BAD_SEEDS],
    ("report", "--study", _doc({"records": [], "dataset": {}, "roc": {}, "calibration": {}})),
    ("report", "--study", _study(dataset={**_STUDY_DATASET, "n_positive": None})),
    ("report", "--study", _study(roc={"generation": _STUDY_AUC})),
    ("report", "--study", _study(roc={"generation": _STUDY_AUC,
                                      "validation": {**_STUDY_AUC, "auc_ci_high": "1"}})),
    ("report", "--study", _study(roc={"generation": _STUDY_AUC,
                                      "validation": {**_STUDY_AUC, "auc_ci_low": 10 ** 400}})),
    ("report", "--study", _study(calibration={"strata": []})),
    ("report", "--study", _study(calibration={"strata": [{"label": "Q1"}], "merged": []})),
    ("report", "--study", _study(calibration={"strata": ["Q1"], "merged": []})),
], ids=["model without variables", "model not an object", "model format_version 2",
        "lexicon without keywords",
        "study without dataset", "model not JSON", "lexicon not JSON", "study not JSON",
        "model not UTF-8", "lexicon keyword not a string",
        "lexicon variable keyword not a string", "model variable keyword not a string",
        "model variable keywords not a list",
        *[f"model variable keyword {k!r}" for k in _BAD_KEYWORDS],
        *[f"lexicon variable keyword {k!r}" for k in _BAD_KEYWORDS],
        "model with duplicate variable names", "lexicon with duplicate variable names",
        "lexicon with duplicate keywords", "lexicon variable keyword not in the lexicon",
        "lexicon variable without keywords",
        *[f"model training seed {seed!r}" for seed in _BAD_SEEDS],
        "study dataset without counts", "study dataset count null",
        "study without validation ROC", "study AUC bound not a number",
        "study AUC bound beyond float64",
        "study calibration without merged", "study stratum without counts",
        "study stratum not an object"])
def test_malformed_json_file_is_input_error(corpus_csv, tmp_path, monkeypatch, capsys,
                                            command, flag, content):
    path = tmp_path / "file.json"
    path.write_bytes(content)
    argv = [command, flag, str(path)]
    if command == "report":
        argv.append("--table")
    if command == "train":
        argv += ["--dataset", str(corpus_csv), "--out", str(tmp_path / "m.json")]
    if command == "evaluate":
        argv += ["--dataset", str(corpus_csv), "--split", "validation"]
    monkeypatch.setattr("sys.stdin", stdin_text('{"description": "quiz"}\n'))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "error" in err
    assert out == ""
