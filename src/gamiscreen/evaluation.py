"""Discrimination, calibration, model comparison and agreement statistics.

`tally` gives the study and its evaluation their sufficient statistics: the
distinct keys ascending with the records and positives at each, from one
sort of the keys and one of the positives' keys. The study tallies its
pattern rows; ROC and calibration tally the scores into a tie table, and
every later step is O(#distinct scores). The AUC is computed twice from
those counts, by trapezoid and by tie-corrected pair counting, and a
disagreement raises. The DeLong variance of its CI is weighted by count over
the tie groups, within which the structural components are constant (the
single-sort form of Sun & Xu, 2014). Calibration cuts the table at its
inverted-CDF quartiles by counting: a stratum is a slice of the table, its
counts differences of cumulative counts, its mean one correctly rounded sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateAgreementError,
    IncomparableModelsError,
    InputError,
    OneClassError,
    TooFewRecordsError,
    require_fields,
)

Z95 = 1.96  # two-sided 95% normal multiplier (DeLong, Wald and kappa intervals)
CALIBRATION_MIN_POSITIVES = 5  # calibration merges strata with fewer positives


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep: (fpr, tpr) from (0,0) to (1,1), plus AUC and CI."""

    points: tuple[tuple[float, float], ...]
    thresholds: tuple[float, ...]  # parallel to points; +inf for (0, 0)
    auc: float
    auc_ci_low: float
    auc_ci_high: float
    n_pos: int
    n_neg: int


def _pair_count_auc(pos: np.ndarray, neg_below: np.ndarray, n_pos: int, n_neg: int) -> float:
    """Tie-corrected pair counting: concordant plus half-tied (pos, neg) pairs."""
    return float(pos @ neg_below) / (n_pos * n_neg)


def _weighted_var(values: np.ndarray, weights: np.ndarray, total: int) -> float:
    """Sample variance (ddof=1) of `values`, each repeated `weights` times."""
    if total < 2:
        return 0.0
    mean = (weights @ values) / total
    return float(weights @ (values - mean) ** 2) / (total - 1)


def tally(keys, positive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct `keys` ascending, with the number of records and of `positive` ones at each.

    One sorted copy of the keys gives the distinct values and counts from its first-of-run
    mask; it is freed before the positives' keys are sorted in place and searched at them."""
    ordered = np.sort(keys, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]  # the operator: `np.not_equal` has no void loop
    if ordered.dtype.kind == "f":  # NaN sorts last and is one key, as in `np.unique`
        first[np.searchsorted(ordered, np.nan) + 1:] = False
    starts = np.flatnonzero(first)
    values = ordered[starts]
    count = np.diff(starts, append=ordered.size)
    del ordered, first
    pos = keys.compress(positive)
    pos.sort()
    return values, count, np.diff(np.searchsorted(pos, values, side="right"), prepend=0)


def _tie_table(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scores' `tally`: distinct scores ascending, with the positives and negatives at each."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise InputError("scores and labels must be equal-length 1-d arrays")
    positive = labels == 1.0
    if np.count_nonzero(positive) + np.count_nonzero(labels == 0.0) != labels.size:
        raise InputError("labels must be binary (0/1)")
    values, count, pos = tally(scores, positive)
    if np.isnan(values[-1:]).any():  # NaN sorts last
        raise InputError("scores must not be NaN")
    return values, pos, count - pos


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve with trapezoidal AUC and a DeLong 95% CI.

    Scores with identical values are grouped at a single threshold, so
    the curve is invariant to any strictly increasing score transform.
    Any non-NaN score is accepted, ±inf included. Cost: one sort of the
    scores and one of the positives' scores, then O(#distinct scores).
    """
    values, pos, neg = _tie_table(scores, labels)
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise OneClassError()

    # Thresholds from the highest distinct score down; a record is called
    # positive when its score is at or above the threshold.
    tpr = np.r_[0.0, np.cumsum(pos[::-1]) / n_pos]
    fpr = np.r_[0.0, np.cumsum(neg[::-1]) / n_neg]
    thresholds = (math.inf,) + tuple(values[::-1].tolist())

    auc_trap = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))

    # Per distinct score: negatives below it and positives above it, ties counting half.
    neg_below = np.cumsum(neg) - 0.5 * neg
    pos_above = n_pos - np.cumsum(pos) + 0.5 * pos
    auc_pairs = _pair_count_auc(pos, neg_below, n_pos, n_neg)
    if not abs(auc_trap - auc_pairs) < 1e-12:
        raise RuntimeError(
            f"trapezoid AUC {auc_trap!r} disagrees with pair-count AUC {auc_pairs!r}")

    # DeLong's structural components are constant within a tie group: V10
    # of a positive is neg_below / n_neg, V01 of a negative pos_above / n_pos.
    var = (_weighted_var(neg_below / n_neg, pos, n_pos) / n_pos
           + _weighted_var(pos_above / n_pos, neg, n_neg) / n_neg)
    half = Z95 * math.sqrt(max(var, 0.0))
    return RocCurve(
        points=tuple(zip(fpr.tolist(), tpr.tolist())),
        thresholds=thresholds,
        auc=auc_trap,
        auc_ci_low=max(0.0, auc_trap - half),
        auc_ci_high=min(1.0, auc_trap + half),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def roc_csv(curve: RocCurve) -> str:
    lines = ["threshold,fpr,tpr"]
    for t, (f, tp) in zip(curve.thresholds, curve.points):
        tt = "inf" if math.isinf(t) else repr(t)
        lines.append(f"{tt},{f!r},{tp!r}")
    return "\n".join(lines) + "\n"


def roc_svg(curve: RocCurve) -> str:
    """Sensitivity vs 1-specificity with a diagonal reference line, on a 480 px square."""
    size, pad = 480, 50
    w = size - 2 * pad

    def px(f, t):
        return pad + f * w, pad + (1.0 - t) * w

    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (px(f, t) for f, t in curve.points))
    x0, y0 = px(0, 0)
    x1, y1 = px(1, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect x="{pad}" y="{pad}" width="{w}" height="{w}" fill="none" stroke="black"/>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        'stroke="grey" stroke-dasharray="4 4"/>',
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>',
        f'<text x="{size / 2:.0f}" y="{size - 12}" text-anchor="middle">1 - Specificity</text>',
        f'<text x="14" y="{size / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {size / 2:.0f})">Sensitivity</text>',
        f'<text x="{size / 2:.0f}" y="30" text-anchor="middle">'
        f'ROC (AUC = {curve.auc:.3f}, 95% CI {curve.auc_ci_low:.3f}-{curve.auc_ci_high:.3f})</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Model comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonEntry:
    index: int        # position in the input list
    auc: float
    aic: float


@dataclass(frozen=True)
class ModelComparison:
    ranked: tuple[ComparisonEntry, ...]  # best first
    conflict: bool                       # AUC and AIC orderings disagree somewhere

    @property
    def selected(self) -> ComparisonEntry:
        return self.ranked[0]


def aic_compare(models_and_rocs) -> ModelComparison:
    """Rank candidate models: higher AUC first, lower AIC as tie-break.

    `models_and_rocs` is a sequence of (FittedModel, RocCurve) pairs all
    fitted on the same observations. Flags a conflict whenever one model
    beats another on AUC but loses on AIC.
    """
    entries = []
    n_obs = None
    for i, (model, roc) in enumerate(models_and_rocs):
        if model.aic is None or model.n_obs is None:
            raise IncomparableModelsError(f"model {i} carries no AIC/n_obs")
        if n_obs is None:
            n_obs = model.n_obs
        elif model.n_obs != n_obs:
            raise IncomparableModelsError(
                f"models fitted on different sample sizes: {n_obs} vs {model.n_obs}")
        entries.append(ComparisonEntry(index=i, auc=roc.auc, aic=float(model.aic)))
    if not entries:
        raise IncomparableModelsError("no models to compare")

    ranked = tuple(sorted(entries, key=lambda e: (-e.auc, e.aic)))
    conflict = any(
        (a.auc > b.auc and a.aic > b.aic) or (b.auc > a.auc and b.aic > a.aic)
        for i, a in enumerate(entries) for b in entries[i + 1:]
    )
    return ModelComparison(ranked=ranked, conflict=conflict)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stratum:
    label: str          # "Q1", "Q1-Q2", ...
    n_obs: int
    n_pos: int
    observed_rate: float
    mean_predicted: float


@dataclass(frozen=True)
class CalibrationReport:
    strata: tuple[Stratum, ...]
    merged: tuple[str, ...]  # labels of strata produced by merging quartiles


def calibration_strata(predicted, labels,
                       min_positives: int = CALIBRATION_MIN_POSITIVES) -> CalibrationReport:
    """Observed vs mean predicted event rates per predicted-probability quartile.

    A distinct predicted value is in quartile k + 1 when at least k/4 of the
    records lie strictly below it (the inverted-CDF quartiles, Hyndman & Fan
    type 1), so records sharing a value are never split and the strata do
    not move when every record is repeated. An empty quartile folds into its
    predecessor, and adjacent strata are merged while any stratum holds
    fewer than `min_positives` positive labels. Predicted values must lie
    in [0, 1]. Cost: one sort of the predictions and one of the positives'
    predictions, then O(#distinct predictions).
    """
    values, pos_at, neg_at = _tie_table(predicted, labels)
    n_at = pos_at + neg_at
    cum = np.r_[0, np.cumsum(n_at)]  # cum[j]: records strictly below values[j]
    cum_pos = np.r_[0, np.cumsum(pos_at)]
    n = int(cum[-1])
    if n < 4:
        raise TooFewRecordsError(f"need at least 4 records, got {n}")
    if values[0] < 0.0 or values[-1] > 1.0:
        raise InputError("predicted probabilities must lie in [0, 1]")

    # Quartile q covers values[cut[q]:cut[q + 1]]; Q1 is never empty.
    cut = np.r_[0, np.searchsorted(4 * cum, [n, 2 * n, 3 * n]), len(values)].tolist()
    # Stratum i is quartiles bounds[i] to bounds[i + 1] - 1. An empty quartile
    # (its ties fell into a lower one) joins the stratum before it.
    bounds = [q for q in range(4) if cut[q] < cut[q + 1]] + [4]

    def positives(i):
        return int(cum_pos[cut[bounds[i + 1]]] - cum_pos[cut[bounds[i]]])

    # Merge low-event strata forward (into the next stratum; backward for the last).
    while len(bounds) > 2:
        low = next((i for i in range(len(bounds) - 1) if positives(i) < min_positives), None)
        if low is None:
            break
        del bounds[min(low + 1, len(bounds) - 2)]

    # Each value x count as four exact products, the value's Veltkamp halves
    # (26 bits each) times the count's halves at 2**26, so one `fsum` per
    # stratum is the correctly rounded sum over its records.
    top = values * 134217729.0  # 2**27 + 1
    top -= top - values
    tail = values - top
    count_top, count_low = (n_at >> 26 << 26).astype(float), (n_at & 0x3FFFFFF).astype(float)
    terms = np.column_stack([top * count_top, top * count_low, tail * count_top, tail * count_low])
    strata = []
    for i, (first, end) in enumerate(zip(bounds, bounds[1:])):
        lo, hi = cut[first], cut[end]
        count, pos = int(cum[hi] - cum[lo]), positives(i)
        strata.append(Stratum(
            label=f"Q{first + 1}" if end == first + 1 else f"Q{first + 1}-Q{end}",
            n_obs=count,
            n_pos=pos,
            observed_rate=pos / count,
            mean_predicted=math.fsum(terms[lo:hi].ravel().tolist()) / count,
        ))
    merged = tuple(s.label for s in strata if "-" in s.label)
    return CalibrationReport(strata=tuple(strata), merged=merged)


def calibration_text(report: CalibrationReport) -> str:
    rows = [("Stratum", "N", "Observed", "Predicted")]
    for s in report.strata:
        rows.append((s.label, str(s.n_obs), f"{s.observed_rate:.3f}", f"{s.mean_predicted:.3f}"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    if report.merged:
        lines.append(f"(merged quartiles: {', '.join(report.merged)})")
    return "\n".join(lines) + "\n"


def calibration_to_dict(report: CalibrationReport) -> dict:
    return {
        "strata": [asdict(s) for s in report.strata],
        "merged": list(report.merged),
    }


def calibration_from_dict(doc) -> CalibrationReport:
    """Inverse of `calibration_to_dict`; a malformed `doc` raises InputError."""
    strata = require_fields(doc, "calibration", strata=list, merged=list[str])["strata"]
    fields = dict(label=str, n_obs=int, n_pos=int, observed_rate=(int, float),
                  mean_predicted=(int, float))
    strata = [require_fields(s, "calibration stratum", **fields) for s in strata]
    return CalibrationReport(strata=tuple(Stratum(**{f: s[f] for f in fields}) for s in strata),
                             merged=tuple(doc["merged"]))


# ---------------------------------------------------------------------------
# Inter-rater agreement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaResult:
    kappa: float
    standard_error: float
    ci_low: float
    ci_high: float
    observed_agreement: float
    expected_agreement: float


def cohen_kappa(rater_a, rater_b) -> KappaResult:
    """Two-rater Cohen's kappa with the large-sample standard error.

    SE = sqrt(po (1 - po) / (n (1 - pe)^2)); 95% CI clamped to [-1, 1].
    """
    a = list(rater_a)
    b = list(rater_b)
    if len(a) != len(b):
        raise InputError("rating vectors differ in length")
    n = len(a)
    if n < 2:
        raise InputError("need at least 2 rated items")

    categories = sorted(set(a) | set(b), key=str)
    idx = {c: i for i, c in enumerate(categories)}
    k = len(categories)
    table = np.zeros((k, k))
    for ai, bi in zip(a, b):
        table[idx[ai], idx[bi]] += 1

    po = float(np.trace(table)) / n
    pe = float(table.sum(axis=1) @ table.sum(axis=0)) / n ** 2
    if pe >= 1.0:
        raise DegenerateAgreementError()

    kappa = (po - pe) / (1.0 - pe)
    se = math.sqrt(po * (1.0 - po) / (n * (1.0 - pe) ** 2))
    return KappaResult(
        kappa=kappa,
        standard_error=se,
        ci_low=max(-1.0, kappa - Z95 * se),
        ci_high=min(1.0, kappa + Z95 * se),
        observed_agreement=po,
        expected_agreement=pe,
    )


def kappa_text(result: KappaResult) -> str:
    return (
        f"kappa              {result.kappa:.3f}\n"
        f"standard error     {result.standard_error:.3f}\n"
        f"95% CI             {result.ci_low:.3f} - {result.ci_high:.3f}\n"
        f"observed agreement {result.observed_agreement:.3f}\n"
        f"expected agreement {result.expected_agreement:.3f}\n"
    )
