"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them)."""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from importlib import resources

import numpy as np
import pytest

import gamiscreen as g
from gamiscreen.cli import main
from gamiscreen.evaluation import calibration_strata, cohen_kappa, roc_auc
from gamiscreen.logit import (
    fit_logistic,
    gradient,
    hessian,
    log_likelihood,
    predict,
    pretrained_model,
)
from gamiscreen.textfeatures import AppRecord, extract_features

from conftest import synthetic_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


def _report(name, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nPASS: {name}{timing}")


def _pretrained_doc():
    text = resources.files("gamiscreen.data").joinpath(
        "pretrained_model.json").read_text(encoding="utf-8")
    return json.loads(text)


def test_criterion_01_frozen_model_fidelity():
    t0 = time.perf_counter()
    model = pretrained_model()
    doc = _pretrained_doc()
    coefs = dict(zip(model.feature_names, model.coefficients[1:]))
    for v in doc["variables"]:
        beta = coefs[v["name"]]
        assert abs(math.exp(beta) - v["odds_ratio"]) <= 0.01, v["name"]
        midpoint = (v["ci_low"] + v["ci_high"]) / 2
        assert abs(beta - midpoint) <= 0.05, v["name"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 1: frozen-model fidelity", elapsed)


def test_criterion_02_scoring_regression():
    t0 = time.perf_counter()
    p = predict(pretrained_model(), [0] * 14)
    assert abs(p - 0.0546) <= 0.0005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 2: all-zero scoring regression", elapsed)


def test_criterion_03_quartile_replay():
    t0 = time.perf_counter()
    predicted = np.array([0.048] * 204 + [0.096] * 62 + [0.620] * 87)
    labels = np.array([1] * 9 + [0] * 195 + [1] * 9 + [0] * 53 + [1] * 53 + [0] * 34,
                      dtype=float)
    report = calibration_strata(predicted, labels)
    assert [s.n_obs for s in report.strata] == [204, 62, 87]
    expected_obs = [9 / 204, 9 / 62, 53 / 87]
    printed_obs = [0.044, 0.145, 0.609]
    printed_pred = [0.048, 0.096, 0.620]
    for s, exact, obs, pred in zip(report.strata, expected_obs, printed_obs, printed_pred):
        assert s.observed_rate == pytest.approx(exact, abs=1e-15)
        assert abs(s.observed_rate - obs) < 5e-4
        assert abs(s.mean_predicted - pred) <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 3: quartile calibration replay", elapsed)


def test_criterion_04_estimator_recovery():
    t0 = time.perf_counter()
    model = pretrained_model()
    truth = model.coefficients
    rng = np.random.default_rng(99)
    n, k = 20_000, 14
    successes = 0
    for _ in range(100):
        X = (rng.random((n, k)) < 0.12).astype(float)
        eta = truth[0] + X @ truth[1:]
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        fitted = fit_logistic(X, y, names=model.feature_names)
        if np.all(np.abs(fitted.coefficients - truth) <= 3 * fitted.standard_errors):
            successes += 1
    elapsed = time.perf_counter() - t0
    assert successes >= 95, f"only {successes}/100 repetitions recovered all coefficients"
    assert elapsed < 60.0
    _report(f"criterion 4: estimator recovery ({successes}/100)", elapsed)


def test_criterion_05_auc_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if len(set(labels.tolist())) < 2:
            continue
        scores = rng.integers(0, 10, n).astype(float) if rng.random() < 0.5 else rng.random(n)
        roc = roc_auc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        brute = (np.sum(pos[:, None] > neg[None, :])
                 + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (len(pos) * len(neg))
        assert abs(roc.auc - brute) < 1e-12
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 5: AUC oracle equivalence (1000 instances)", elapsed)


def test_criterion_06_closed_form_logit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b, c, d = rng.integers(5, 200, size=4)
        x = np.r_[np.ones(a + b), np.zeros(c + d)][:, None]
        y = np.r_[np.ones(a), np.zeros(b), np.ones(c), np.zeros(d)]
        m = fit_logistic(x, y, names=("f",))
        assert abs(m.coefficients[1] - math.log(a * d / (b * c))) < 1e-6
        assert abs(m.standard_errors[1] - math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 6: closed-form 2x2 logit (100 tables)", elapsed)


def test_criterion_07_kappa_checks():
    a = [1] * 40 + [1] * 10 + [0] * 10 + [0] * 40
    b = [1] * 40 + [0] * 10 + [1] * 10 + [0] * 40
    r = cohen_kappa(a, b)
    assert r.observed_agreement == pytest.approx(0.8, abs=1e-15)
    assert r.expected_agreement == pytest.approx(0.5, abs=1e-15)
    assert r.kappa == pytest.approx(0.6, abs=1e-15)
    assert cohen_kappa([0, 1, 2, 1, 0], [0, 1, 2, 1, 0]).kappa == 1.0
    assert abs(cohen_kappa([0, 0, 1, 1], [0, 1, 0, 1]).kappa) < 1e-12
    _report("criterion 7: kappa hand examples")


def test_criterion_08_numerical_hygiene():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(80), (rng.random((80, 4)) < 0.4).astype(float)])
    y = (rng.random(80) < 0.4).astype(float)
    h = 1e-5
    for _ in range(50):
        beta = rng.normal(scale=1.0, size=5)
        grad = gradient(beta, X, y)
        hess = hessian(beta, X, y)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd_g = (log_likelihood(beta + e, X, y) - log_likelihood(beta - e, X, y)) / (2 * h)
            assert abs(fd_g - grad[j]) <= 1e-4 * max(1.0, abs(grad[j]))
            fd_h = (gradient(beta + e, X, y) - gradient(beta - e, X, y)) / (2 * h)
            denom = np.maximum(1.0, np.abs(hess[j]))
            assert np.all(np.abs(fd_h - hess[j]) <= 1e-4 * denom)

    m = fit_logistic(X[:, 1:], y)
    from scipy.special import expit
    p = expit(m.intercept + X[:, 1:] @ m.coefficients[1:])
    ll = float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
    k = len(m.coefficients)
    assert abs((2 * k - 2 * ll) - m.aic) < 1e-9
    _report("criterion 8: gradient/Hessian finite differences + AIC identity")


def _criterion_09_corpus(tmp_path):
    ds = synthetic_corpus(pretrained_model(), g.pretrained_grouping(), n=600, seed=90)
    csv_path = tmp_path / "corpus.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=["id", "store", "title", "description",
                                           "gamification_label"])
        w.writeheader()
        for r in ds.records:
            w.writerow({"id": r.id, "store": r.store, "title": r.title,
                        "description": r.description,
                        "gamification_label": r.gamification_label})
    return csv_path


def test_criterion_09_train_determinism(tmp_path, capsys):
    csv_path = _criterion_09_corpus(tmp_path)
    outputs = []
    for run in ("a", "b"):
        model_path = tmp_path / f"model_{run}.json"
        report_path = tmp_path / f"report_{run}.json"
        assert main(["train", "--dataset", str(csv_path), "--seed", "123",
                     "--out", str(model_path), "--report", str(report_path)]) == 0
        outputs.append((model_path.read_bytes(), report_path.read_bytes()))
    capsys.readouterr()
    assert outputs[0][0] == outputs[1][0], "model files differ between runs"
    assert outputs[0][1] == outputs[1][1], "report files differ between runs"
    _report("criterion 9: byte-identical train outputs")


# Runs train, evaluate and score in one process, each command's stdout into a file of its own
# beside the files it writes: argv is the corpus and the output directory.
_COMMANDS_INTO_FILES = """
import contextlib, sys
from pathlib import Path
from gamiscreen.cli import main
corpus, out = sys.argv[1], Path(sys.argv[2])
for select in ("forced", "strict"):
    model = str(out / f"{select}.json")
    for name, argv in (
            ("train", ["train", "--dataset", corpus, "--seed", "123", "--select", select,
                       "--out", model, "--report", str(out / f"{select}-report.json")]),
            ("evaluate", ["evaluate", "--model", model, "--dataset", corpus,
                          "--split", "validation"]),
            ("score", ["score", "--explain", "--model", model, "--input", corpus])):
        with open(out / f"{select}-{name}.out", "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                assert main(argv) == 0, argv
"""


def test_criterion_09_across_hash_seeds(tmp_path):
    # Criterion 9's reruns share one process and so one str hash seed; the bytes must not
    # depend on it, as they would through the iteration order of a set of strings.
    csv_path = _criterion_09_corpus(tmp_path)
    outs = {hash_seed: tmp_path / f"hash-seed-{hash_seed}" for hash_seed in ("0", "1")}
    for hash_seed, out in outs.items():
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", _COMMANDS_INTO_FILES, str(csv_path),
                               str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    first, second = outs.values()
    names = sorted(p.name for p in first.iterdir())
    assert len(names) == 10 and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    _report("criterion 9: byte-identical train, evaluate and score under two hash seeds")


# (description, expected set of variables switched on)
FEATURE_FIXTURES = [
    ("Track your progress!", {"Activity Tracking", "Progress"}),
    ("", set()),
    ("gamer community", set()),
    ("GAME night", {"Game Labels"}),
    ("games, games, games!!!", {"Game Labels"}),
    ("gamify your life", {"Game Labels"}),
    ("gaming-themed diary", {"Game Labels", "Diary"}),
    ("gamesmanship", set()),
    ("log your meals", {"Activity Tracking"}),
    ("LOGGING enabled", {"Activity Tracking"}),
    ("logbook", set()),
    ("monitor & measure", {"Activity Tracking"}),
    ("untracked", set()),
    ("tracking;monitor", {"Activity Tracking"}),
    ("Have fun!", {"Entertainment"}),
    ("funny stories", {"Entertainment"}),  # "stories" is not a variable keyword
    ("entertaining quiz", {"Entertainment", "Quizzes"}),
    ("play now", {"Entertainment"}),
    ("player vs player", {"Player Aspects"}),
    ("multiplayer TRIVIA", {"Player Aspects", "Quizzes"}),
    ("join a team", {"Player Aspects"}),
    ("teams—and engagement", {"Player Aspects", "Engagement"}),
    ("engage. engaging. engagement.", {"Engagement"}),
    ("engaged", set()),
    ("quizzes", set()),  # plural not in the lexicon; only quiz/trivia count
    ("Quiz Time", {"Quizzes"}),
    ("dear diary", {"Diary"}),
    ("diaries", set()),
    ("change your habits", {"Change"}),
    ("changing rooms", set()),
    ("a story of hope", {"Story"}),
    ("short storybook", set()),
    ("track progress toward your purpose", {"Activity Tracking", "Progress", "Purpose"}),
    ("side-quest", {"Quest"}),
    ("quests await", set()),  # "quests" is a lexicon word but not a Quest member
    ("daily routine", {"Routine"}),
    ("statistics dashboard", {"Statistics"}),
    ("statistical analysis", set()),
    ("badges and points", set()),  # lexicon words outside every variable group
    ("Fun&games—QUIZ time", {"Entertainment", "Game Labels", "Quizzes"}),
]


def test_criterion_10_feature_extraction_suite(grouping):
    assert len(FEATURE_FIXTURES) >= 30
    for description, expected_on in FEATURE_FIXTURES:
        record = AppRecord(id="f", store="other", title="", description=description)
        fv = extract_features(record, grouping)
        expected_bits = tuple(1 if n in expected_on else 0 for n in grouping.names)
        assert fv.bits == expected_bits, description
    _report(f"criterion 10: feature fixtures ({len(FEATURE_FIXTURES)} descriptions)")
