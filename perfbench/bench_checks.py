"""Output checks, run outside the timed region against the generators' ground truth.

Each check returns a list of problems; an empty list means the output is
correct. The references are computed here, independently of the package:
closed-form 2x2 odds ratios, ``expit`` over the ground-truth bits, and a
Mann-Whitney AUC from ``scipy.stats.rankdata``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import expit
from scipy.stats import rankdata

PROB_TOL = 1e-12   # probability vs expit(intercept + beta . bits)
AUC_TOL = 1e-9     # package AUC vs Mann-Whitney AUC
OR_RTOL = 1e-6     # Newton univariate odds ratio vs closed form


def mann_whitney_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels) == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def expected_probabilities(intercept, beta, bits: np.ndarray) -> np.ndarray:
    return expit(intercept + bits.astype(float) @ np.asarray(beta, dtype=float))


def check_study(model_path, report_path, truth: Path, names) -> list[str]:
    """A `train` run on the study-train dataset."""
    bits = np.load(truth / "bits.npy")
    labels = np.load(truth / "labels.npy")
    n = len(labels)
    with open(model_path, encoding="utf-8") as fh:
        model = json.load(fh)
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []

    records = report["records"]
    idx = np.array([int(r["id"][3:]) for r in records])
    gen = np.array([r["group"] == "generation" for r in records])
    if sorted(idx.tolist()) != list(range(n)) or int(gen.sum()) != round(2 * n / 3):
        problems.append("split is not a 2/3 : 1/3 partition of the dataset")
        return problems
    if any(r["label"] != labels[i] for r, i in zip(records, idx)):
        problems.append("report labels differ from the generated labels")

    if [v["name"] for v in model["variables"]] != list(names):
        problems.append("model variables differ from the grouping")
        return problems
    probs = np.array([r["probability"] for r in records])
    want = expected_probabilities(model["intercept"],
                                  [v["coefficient"] for v in model["variables"]], bits[idx])
    worst = float(np.abs(probs - want).max())
    if worst > PROB_TOL:
        problems.append(f"report probability off by {worst:.3g}")

    x_gen, y_gen = bits[idx[gen]], labels[idx[gen]]
    for j, u in enumerate(report["univariate"]):
        if u["error"] is not None:
            continue
        x = x_gen[:, j] == 1
        a, b = int((x & (y_gen == 1)).sum()), int((x & (y_gen == 0)).sum())
        c, d = int((~x & (y_gen == 1)).sum()), int((~x & (y_gen == 0)).sum())
        closed = a * d / (b * c) if b * c else math.inf
        if not math.isclose(u["odds_ratio"], closed, rel_tol=OR_RTOL):
            problems.append(f"univariate {u['variable']}: odds ratio {u['odds_ratio']!r} "
                            f"!= closed form {closed!r}")

    for group, mask in (("generation", gen), ("validation", ~gen)):
        ref = mann_whitney_auc(probs[mask], labels[idx[mask]])
        got = report["roc"][group]["auc"]
        if abs(got - ref) > AUC_TOL:
            problems.append(f"{group} AUC {got!r} != Mann-Whitney {ref!r}")
    return problems


def check_scores(output_path, truth: Path, model, names) -> list[str]:
    """`score --explain` JSON lines on the score-listings input."""
    bits = np.load(truth / "bits.npy")
    empty = np.load(truth / "empty.npy")
    with open(truth / "keywords.json", encoding="utf-8") as fh:
        keywords = json.load(fh)
    with open(output_path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    if len(rows) != len(bits):
        return [f"{len(rows)} scored records for {len(bits)} listings"]
    beta = [float(c) for c in model.coefficients[1:]]
    want = expected_probabilities(model.intercept, beta, bits)
    problems = []
    for i, row in enumerate(rows):
        expected_contrib = {name: beta[j] if bits[i, j] else 0.0 for j, name in enumerate(names)}
        if (row["id"] != f"listing{i:06d}"
                or row["matched_keywords"] != keywords[i]
                or row["contributions"] != expected_contrib
                or row["flags"] != (["no_text"] if empty[i] else [])
                or not abs(row["probability"] - want[i]) <= PROB_TOL):
            problems.append(f"record {i} ({row['id']}) differs from the ground truth")
            if len(problems) >= 5:
                break
    return problems


def check_evaluation(roc, calibration, probs, labels, reference_auc: float) -> list[str]:
    """`roc_auc` + `calibration_strata` on the evaluate-roc pairs."""
    problems = []
    if abs(roc.auc - reference_auc) > AUC_TOL:
        problems.append(f"AUC {roc.auc!r} != Mann-Whitney {reference_auc!r}")
    if sum(s.n_obs for s in calibration.strata) != len(probs):
        problems.append("calibration strata do not cover every record")
    if sum(s.n_pos for s in calibration.strata) != int(labels.sum()):
        problems.append("calibration strata do not cover every positive")
    return problems
