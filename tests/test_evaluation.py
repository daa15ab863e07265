import json
import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import expit
from scipy.stats import rankdata

from gamiscreen import evaluation
from gamiscreen.errors import (
    DegenerateAgreementError,
    IncomparableModelsError,
    InputError,
    OneClassError,
    TooFewRecordsError,
)
from gamiscreen.evaluation import (
    Z95,
    RocCurve,
    aic_compare,
    calibration_from_dict,
    calibration_strata,
    calibration_text,
    calibration_to_dict,
    cohen_kappa,
    kappa_text,
    roc_auc,
    roc_csv,
    roc_svg,
    tally,
)
from gamiscreen.logit import fit_logistic


def pair_counting_auc(scores, labels):
    """Brute-force oracle: concordant + half-tied over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def _sample_var(v):
    return v.var(ddof=1) if len(v) > 1 else 0.0


def _delong_ci(auc, v10, v01):
    half = Z95 * math.sqrt(_sample_var(v10) / len(v10) + _sample_var(v01) / len(v01))
    return max(0.0, auc - half), min(1.0, auc + half)


def brute_force_delong_ci(scores, labels):
    """Oracle: DeLong structural components from every (positive, negative) pair."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    psi = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
    return _delong_ci(psi.mean(), psi.mean(axis=1), psi.mean(axis=0))


def per_record_roc(scores, labels):
    """Per-record reference: sorted threshold sweep and midrank DeLong variance."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    last = np.r_[np.where(np.diff(s))[0], len(s) - 1]  # last index of each tie group
    tpr = np.r_[0.0, np.cumsum(y)[last] / n_pos]
    fpr = np.r_[0.0, np.cumsum(1 - y)[last] / n_neg]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    pos, neg = scores[labels == 1], scores[labels == 0]
    ranks = rankdata(np.concatenate([pos, neg]))
    v10 = (ranks[:n_pos] - rankdata(pos)) / n_neg
    v01 = 1.0 - (ranks[n_pos:] - rankdata(neg)) / n_pos
    points = tuple(zip(fpr.tolist(), tpr.tolist()))
    thresholds = (math.inf,) + tuple(s[last].tolist())
    return points, thresholds, auc, _delong_ci(auc, v10, v01)


def per_record_calibration(predicted, labels, n_strata=4, min_positives=5):
    """Per-record reference: strata as boolean masks over the records."""
    predicted = np.asarray(predicted, dtype=float)
    labels = np.asarray(labels, dtype=float)
    edges = np.quantile(predicted, [k / n_strata for k in range(1, n_strata)],
                        method="inverted_cdf")
    bin_of = np.searchsorted(edges, predicted, side="left")
    groups = []  # (quartile indices, member mask)
    for q in range(n_strata):
        mask = bin_of == q
        if not mask.any():
            if groups:
                groups[-1][0].append(q)
            else:
                groups.append(([q], mask))
            continue
        if groups and groups[-1][1].sum() == 0:
            prev_q, _ = groups.pop()
            groups.append((prev_q + [q], mask))
        else:
            groups.append(([q], mask))
    groups = [(qs, m) for qs, m in groups if m.sum() > 0]
    while len(groups) > 1:
        counts = [labels[m].sum() for _, m in groups]
        low = next((i for i, c in enumerate(counts) if c < min_positives), None)
        if low is None:
            break
        a, b = sorted((low, low + 1 if low + 1 < len(groups) else low - 1))
        groups[a:b + 1] = [(groups[a][0] + groups[b][0], groups[a][1] | groups[b][1])]
    return [(f"Q{qs[0] + 1}" if len(qs) == 1 else f"Q{qs[0] + 1}-Q{qs[-1] + 1}",
             int(m.sum()), int(labels[m].sum()), float(labels[m].mean()),
             float(predicted[m].mean())) for qs, m in groups]


def inverted_cdf_quartile(predicted):
    """Per-record reference: each record's quartile, 0-3, at the inverted-CDF edges.

    A record equal to an edge falls in the lower quartile.
    """
    edges = np.quantile(predicted, [0.25, 0.5, 0.75], method="inverted_cdf")
    return np.searchsorted(edges, predicted, side="left")


def unique_bincount_roc(scores, labels):
    """Per-record reference: the np.unique + bincount grouping roc_auc had before its tie table."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    values, group = np.unique(scores, return_inverse=True)
    pos = np.bincount(group, weights=labels, minlength=len(values))
    neg = np.bincount(group, minlength=len(values)) - pos
    tpr = np.r_[0.0, np.cumsum(pos[::-1]) / n_pos]
    fpr = np.r_[0.0, np.cumsum(neg[::-1]) / n_neg]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    neg_below = np.cumsum(neg) - 0.5 * neg
    pos_above = n_pos - np.cumsum(pos) + 0.5 * pos

    def weighted_var(v, w, total):
        if total < 2:
            return 0.0
        mean = (w @ v) / total
        return float(w @ (v - mean) ** 2) / (total - 1)

    var = (weighted_var(neg_below / n_neg, pos, n_pos) / n_pos
           + weighted_var(pos_above / n_pos, neg, n_neg) / n_neg)
    half = Z95 * math.sqrt(max(var, 0.0))
    return RocCurve(points=tuple(zip(fpr.tolist(), tpr.tolist())),
                    thresholds=(math.inf,) + tuple(values[::-1].tolist()),
                    auc=auc, auc_ci_low=max(0.0, auc - half), auc_ci_high=min(1.0, auc + half),
                    n_pos=n_pos, n_neg=n_neg)


@st.composite
def tied_pairs(draw, pool, min_size):
    """(scores, labels) drawing every score from 1-4 distinct values of `pool`."""
    values = draw(st.lists(pool, min_size=1, max_size=4))
    n = draw(st.integers(min_size, 60))
    scores = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return scores, labels


# ±inf and both signed zeros among rounded values: ROC accepts any non-NaN score.
ROC_SCORES = st.one_of(st.sampled_from([-math.inf, -0.0, 0.0, math.inf]),
                       st.floats(-3, 3).map(lambda x: round(x, 1)))
PROBABILITIES = st.one_of(st.integers(0, 20).map(lambda i: i / 20),
                          st.integers(0, 1000).map(lambda i: i / 1000))


def two_classes(labels):
    return 0 < sum(labels) < len(labels)


class TestRoc:
    def test_perfect(self):
        roc = roc_auc([0, 0, 1, 1], [0, 0, 1, 1])
        assert roc.auc == 1.0

    def test_all_tied(self):
        roc = roc_auc([0.3] * 6, [0, 1, 0, 1, 1, 0])
        assert roc.auc == 0.5
        assert roc.points == ((0.0, 0.0), (1.0, 1.0))

    def test_hand_example(self):
        roc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert roc.auc == 0.75

    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(0)
        roc = roc_auc(rng.random(50), rng.integers(0, 2, 50))
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)
        fpr = [p[0] for p in roc.points]
        tpr = [p[1] for p in roc.points]
        assert fpr == sorted(fpr)
        assert tpr == sorted(tpr)

    def test_one_class(self):
        with pytest.raises(OneClassError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_nan_score_rejected(self):
        with pytest.raises(InputError, match="NaN"):
            roc_auc([0.1, float("nan"), 0.3, 0.9], [0, 1, 0, 1])

    @pytest.mark.parametrize("scores, labels", [
        ([0.1, 0.9], [0, 1, 1]), ([[0.1, 0.9]], [[0, 1]]),
    ], ids=["unequal length", "2-d"])
    def test_scores_and_labels_shape_rejected(self, scores, labels):
        with pytest.raises(InputError) as exc:
            roc_auc(scores, labels)
        assert str(exc.value) == "scores and labels must be equal-length 1-d arrays"

    def test_auc_cross_check_raises(self, monkeypatch):
        pair_count = evaluation._pair_count_auc
        monkeypatch.setattr(evaluation, "_pair_count_auc", lambda *a: pair_count(*a) + 1e-9)
        with pytest.raises(RuntimeError, match="disagrees"):
            roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 1)), min_size=2, max_size=40))
    def test_pair_counting_oracle(self, data):
        scores = [s for s, _ in data]
        labels = [y for _, y in data]
        if len(set(labels)) < 2:
            return
        roc = roc_auc(scores, labels)
        assert abs(roc.auc - pair_counting_auc(scores, labels)) < 1e-12

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1)),
                    min_size=4, max_size=40))
    def test_rank_invariance(self, data):
        # scores on a grid so affine/exp transforms stay strictly increasing
        # in floating point as well
        scores = np.array([s for s, _ in data]) / 1000.0
        labels = [y for _, y in data]
        if len(set(labels)) < 2:
            return
        base = roc_auc(scores, labels).auc
        assert roc_auc(3 * scores + 1, labels).auc == base
        assert roc_auc(np.exp(scores), labels).auc == base

    def test_negation_antisymmetry(self):
        rng = np.random.default_rng(1)
        scores = rng.integers(0, 10, 80).astype(float)
        labels = rng.integers(0, 2, 80)
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        a = roc_auc(scores, labels).auc
        b = roc_auc(-scores, labels).auc
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestDeLong:
    def _synthetic(self, n, rng):
        y = rng.integers(0, 2, n)
        s = rng.normal(size=n) + y
        return s, y

    def test_ci_contains_point(self):
        rng = np.random.default_rng(2)
        s, y = self._synthetic(200, rng)
        roc = roc_auc(s, y)
        assert roc.auc_ci_low <= roc.auc <= roc.auc_ci_high

    def test_width_shrinks_like_sqrt_n(self):
        rng = np.random.default_rng(3)
        widths = {}
        for n in (100, 400, 1600):
            w = []
            for _ in range(30):
                s, y = self._synthetic(n, rng)
                roc = roc_auc(s, y)
                w.append(roc.auc_ci_high - roc.auc_ci_low)
            widths[n] = np.mean(w)
        assert widths[400] < widths[100]
        assert widths[1600] < widths[400]
        # quadrupling n should roughly halve the width
        assert 1.5 < widths[100] / widths[400] < 2.7
        assert 1.5 < widths[400] / widths[1600] < 2.7

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=2, max_size=40))
    def test_brute_force_oracle_tied(self, data):
        self._check_oracle(data)

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.integers(0, 1)),
                    min_size=2, max_size=40, unique_by=lambda t: t[0]))
    def test_brute_force_oracle_untied(self, data):
        self._check_oracle(data)

    def _check_oracle(self, data):
        scores = [s for s, _ in data]
        labels = [y for _, y in data]
        if len(set(labels)) < 2:
            return
        roc = roc_auc(scores, labels)
        low, high = brute_force_delong_ci(scores, labels)
        assert abs(roc.auc_ci_low - low) < 1e-12
        assert abs(roc.auc_ci_high - high) < 1e-12

    def test_matches_per_record_reference(self):
        rng = np.random.default_rng(10)
        n = 100_000
        scores = rng.integers(0, 400, n) / 400.0  # heavily tied
        labels = (rng.random(n) < 0.05 + 0.5 * scores).astype(float)
        roc = roc_auc(scores, labels)
        points, thresholds, auc, (low, high) = per_record_roc(scores, labels)
        assert roc.points == points
        assert roc.thresholds == thresholds
        assert abs(roc.auc - auc) < 1e-12
        assert abs(roc.auc_ci_low - low) < 1e-12
        assert abs(roc.auc_ci_high - high) < 1e-12

    def test_degenerate_zero_variance(self):
        roc = roc_auc([0, 0, 1, 1], [0, 0, 1, 1])
        assert roc.auc_ci_low == roc.auc_ci_high == 1.0


def sorted_dict_tally(keys, positive):
    """Brute-force oracle for `tally`: (key, records, positives) per distinct key, ascending."""
    counts = {}
    for key, is_pos in zip(keys, positive):
        n, n_pos = counts.get(key, (0, 0))
        counts[key] = (n + 1, n_pos + is_pos)
    return [(key, n, n_pos) for key, (n, n_pos) in sorted(counts.items())]


@st.composite
def bit_rows(draw):
    """(rows, positive, width): 0/1 rows of one width in 1-4, and a label per row."""
    width = draw(st.integers(1, 4))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width),
                         min_size=n, max_size=n))
    return rows, draw(st.lists(st.booleans(), min_size=n, max_size=n)), width


# The keys `tally` packs into one sort: no sign bit, no NaN; the extremes of the float64 range.
PACKED_KEYS = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                                         1.7976931348623157e308, math.inf]),
                        st.floats(0, 1).map(abs))  # abs: never -0.0


def two_sort_tally(keys, positive):
    """`tally` of `keys` through its two-sort path: a leading -inf key keeps it off the packed
    one, and its entry is dropped."""
    values, count, pos = tally(np.append(-math.inf, keys), np.append(False, positive))
    return values[1:], count[1:], pos[1:]


def spy_packed_tally(monkeypatch) -> list:
    """A list that gets, per call of `tally`'s one-sort path, True when it took the keys."""
    took, packed = [], evaluation._packed_tally

    def spy(*args):
        table = packed(*args)
        took.append(table is not None)
        return table

    monkeypatch.setattr(evaluation, "_packed_tally", spy)
    return took


def assert_same_tally(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


class TestTally:
    @settings(max_examples=150)
    @given(tied_pairs(ROC_SCORES, min_size=0))
    def test_float_keys_equal_sorted_dict_count(self, data):
        scores, labels = data
        keys, positive = np.array(scores, dtype=float), np.array(labels) == 1
        values, count, pos = tally(keys, positive)
        # -0.0 and 0.0 are one key for both; == does not tell them apart
        assert list(zip(values.tolist(), count.tolist(), pos.tolist())) == \
            sorted_dict_tally(scores, positive.tolist())

    @settings(max_examples=150)
    @given(bit_rows())
    def test_void_row_keys_equal_sorted_dict_count(self, data):
        rows, positive, width = data
        bits = np.array(rows, dtype=np.uint8).reshape(len(rows), width)
        keys = bits.view(np.dtype((np.void, width))).ravel()
        values, count, pos = tally(keys, np.array(positive, dtype=bool))
        distinct = [tuple(r) for r in values.view(np.uint8).reshape(-1, width).tolist()]
        assert list(zip(distinct, count.tolist(), pos.tolist())) == \
            sorted_dict_tally(map(tuple, rows), positive)

    @settings(max_examples=150)
    @given(st.lists(st.tuples(st.integers(0, 6), st.booleans()), max_size=60))
    def test_intp_keys_equal_sorted_dict_count(self, pairs):
        # `run_study` tallies the generation group's pattern rows, intp indices
        keys = np.array([k for k, _ in pairs], dtype=np.intp)
        positive = np.array([p for _, p in pairs], dtype=bool)
        values, count, pos = tally(keys, positive)
        assert (values.dtype, count.dtype, pos.dtype) == (np.intp, np.intp, np.intp)
        assert list(zip(values.tolist(), count.tolist(), pos.tolist())) == \
            sorted_dict_tally(keys.tolist(), positive.tolist())

    @settings(max_examples=150)
    @given(tied_pairs(PACKED_KEYS, min_size=1))
    def test_packed_keys_equal_sorted_dict_count_and_two_sorts(self, data):
        scores, labels = data
        keys, positive = np.array(scores, dtype=float), np.array(labels) == 1
        with pytest.MonkeyPatch.context() as monkeypatch:
            took = spy_packed_tally(monkeypatch)
            got = tally(keys, positive)
        assert took == [True]
        assert list(zip(got[0].tolist(), got[1].tolist(), got[2].tolist())) == \
            sorted_dict_tally(scores, positive.tolist())
        assert_same_tally(got, two_sort_tally(keys, positive))

    @pytest.mark.parametrize("pool", [[0.5], [0.0, 0.25, 1.0], [5e-324, math.inf]],
                             ids=["one key", "three keys", "extremes"])
    def test_many_tied_keys_equal_unique(self, pool):
        rng = np.random.default_rng(17)
        keys = rng.choice(pool, 2**17 + 3)
        positive = rng.random(keys.size) < 0.3
        values, count, pos = tally(keys, positive)
        unique, unique_count = np.unique(keys, return_counts=True)
        pos_unique, pos_count = np.unique(keys[positive], return_counts=True)
        assert values.tobytes() == unique.tobytes()
        assert count.tolist() == unique_count.tolist()
        assert pos.tolist() == [dict(zip(pos_unique.tolist(), pos_count.tolist())).get(v, 0)
                                for v in unique.tolist()]
        assert_same_tally((values, count, pos), two_sort_tally(keys, positive))

    @pytest.mark.parametrize("n", [300, 2**17 + 3], ids=["in the first chunk", "in a later chunk"])
    @pytest.mark.parametrize("extra", [-0.0, -0.5, -math.inf, math.nan])
    def test_signed_or_nan_keys_keep_the_two_sort_path(self, monkeypatch, extra, n):
        rng = np.random.default_rng(5)
        keys = np.append(rng.integers(0, 4, n) / 4, extra)
        positive = rng.random(keys.size) < 0.5
        took = spy_packed_tally(monkeypatch)
        values, count, pos = tally(keys, positive)
        assert took == [False]
        unique, unique_count = np.unique(keys, return_counts=True)
        assert values.tobytes() == unique.tobytes()  # -0.0 and 0.0 one key, as it sorts
        assert count.tolist() == unique_count.tolist()
        assert pos.tolist() == [sum(p for k, p in zip(keys.tolist(), positive.tolist())
                                    if k == v or (v != v and k != k)) for v in unique.tolist()]
        assert (values.dtype, count.dtype, pos.dtype) == (np.float64, np.intp, np.intp)

    @pytest.mark.parametrize("void", [False, True], ids=["float", "void"])
    def test_inputs_are_left_unchanged(self, void):
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 5, 200).astype(float)
        if void:
            bits = rng.integers(0, 2, (200, 3)).astype(np.uint8)
            keys = bits.view(np.dtype((np.void, 3))).ravel()
        positive = rng.random(200) < 0.4
        keys_before, positive_before = keys.copy(), positive.copy()
        tally(keys, positive)
        assert keys.tobytes() == keys_before.tobytes()
        assert positive.tobytes() == positive_before.tobytes()

    def test_nan_keys_are_one_key_as_in_unique(self):
        nan = float("nan")
        keys = np.array([0.5, nan, -0.0, nan, 0.5, 0.0, nan, 1.0])
        positive = np.array([1, 1, 0, 0, 1, 1, 1, 0], dtype=bool)
        values, count, pos = tally(keys, positive)
        unique, unique_count = np.unique(keys, return_counts=True)
        assert values.tobytes() == unique.tobytes()  # one NaN; the zero as it sorts
        assert count.tolist() == unique_count.tolist() == [2, 2, 1, 3]
        assert pos.tolist() == [1, 2, 0, 2]
        assert count.dtype == unique_count.dtype and pos.dtype == np.intp

    def test_empty_keys_give_empty_arrays(self):
        values, count, pos = tally(np.array([], dtype=float), np.array([], dtype=bool))
        assert (values.dtype, count.dtype, pos.dtype) == (np.float64, np.intp, np.intp)
        assert values.size == count.size == pos.size == 0


def cut_into_pieces(monkeypatch, cores, chunk=None):
    """Let `tally` cut n keys into min(cores, n) pieces, `chunk` keys packed per step."""
    monkeypatch.setattr(evaluation, "_CORES", cores)
    monkeypatch.setattr(evaluation, "_MIN_PIECE", 1)
    if chunk is not None:
        monkeypatch.setattr(evaluation, "_PACK_CHUNK", chunk)


def spy_pieces(monkeypatch) -> list:
    """A list that gets (lo, hi, thread) per piece `_packed_tally` packs."""
    seen, packed_runs = [], evaluation._packed_runs

    def spy(bits, labels, packed, lo, hi):
        seen.append((lo, hi, threading.current_thread()))
        return packed_runs(bits, labels, packed, lo, hi)

    monkeypatch.setattr(evaluation, "_packed_runs", spy)
    return seen


def one_piece_tally(keys, labels):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(evaluation, "_CORES", 1)
        return tally(keys, labels)


class TestTallyPieces:
    @settings(max_examples=100)
    @given(tied_pairs(PACKED_KEYS, min_size=1), st.integers(1, 4), st.sampled_from([None, 1, 3]))
    def test_pieces_equal_sorted_dict_count_and_one_piece(self, data, cores, chunk):
        scores, labels = data
        keys = np.array(scores, dtype=float)
        with pytest.MonkeyPatch.context() as monkeypatch:
            cut_into_pieces(monkeypatch, cores, chunk)
            took, seen = spy_packed_tally(monkeypatch), spy_pieces(monkeypatch)
            got = tally(keys, np.array(labels, dtype=float))
        assert took == [True]
        assert [(lo, hi) for lo, hi, _ in sorted(seen, key=lambda s: s[0])] == \
            [(len(keys) * i // len(seen), len(keys) * (i + 1) // len(seen))
             for i in range(len(seen))]
        assert len(seen) == min(cores, len(keys))
        assert list(zip(got[0].tolist(), got[1].tolist(), got[2].tolist())) == \
            sorted_dict_tally(scores, [y == 1 for y in labels])
        assert_same_tally(got, one_piece_tally(keys, np.array(labels) == 1))

    def test_first_piece_runs_in_the_caller_and_no_thread_outlives_the_call(self, monkeypatch):
        cut_into_pieces(monkeypatch, 3)
        seen = spy_pieces(monkeypatch)
        before = threading.active_count()
        tally(np.array([0.5, 0.25, 0.5, 1.0, 0.25, 0.5]), np.array([1, 0, 0, 1, 1, 0]))
        assert threading.active_count() == before
        by_piece = {lo: thread for lo, _, thread in seen}
        assert sorted(by_piece) == [0, 2, 4]
        assert by_piece[0] is threading.current_thread()
        assert threading.current_thread() not in (by_piece[2], by_piece[4])

    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_runs_straddling_piece_boundaries_are_merged(self, monkeypatch, cores):
        # 12 keys in runs of 4: with 3 or 4 pieces a run crosses a boundary, and with
        # 2 the 0.5 run is cut in half
        keys = np.repeat([0.25, 0.5, 0.75], 4)
        labels = np.array([0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1], dtype=float)
        cut_into_pieces(monkeypatch, cores)
        got = tally(keys, labels)
        assert list(zip(got[0].tolist(), got[1].tolist(), got[2].tolist())) == \
            [(0.25, 4, 2), (0.5, 4, 2), (0.75, 4, 1)]
        assert_same_tally(got, one_piece_tally(keys, labels))

    def test_key_positive_in_one_piece_and_negative_in_another(self, monkeypatch):
        keys = np.array([0.5, 0.5, 0.1, 0.1, 0.1, 0.5, 0.9, 0.5])
        labels = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=float)
        cut_into_pieces(monkeypatch, 2)  # pieces [0, 4) and [4, 8)
        got = tally(keys, labels)
        assert list(zip(got[0].tolist(), got[1].tolist(), got[2].tolist())) == \
            [(0.1, 3, 1), (0.5, 4, 2), (0.9, 1, 1)]
        assert_same_tally(got, one_piece_tally(keys, labels))

    @pytest.mark.parametrize("statistic", [roc_auc, calibration_strata])
    @pytest.mark.parametrize("bad", [2.0, 0.5, math.nan], ids=["2", "0.5", "NaN"])
    def test_bad_label_only_in_the_last_piece_is_refused(self, monkeypatch, statistic, bad):
        scores = np.tile([0.1, 0.2, 0.3, 0.4], 4)
        labels = np.tile([0.0, 1.0], 8)
        labels[-1] = bad
        cut_into_pieces(monkeypatch, 4, chunk=2)
        with pytest.raises(InputError) as exc:
            statistic(scores, labels)
        assert str(exc.value) == "labels must be binary (0/1)"
        # also where the first piece finds a NaN score and returns None
        scores[0] = math.nan
        with pytest.raises(InputError) as exc:
            statistic(scores, labels)
        assert str(exc.value) == "labels must be binary (0/1)"

    def test_bad_label_in_the_first_piece_wins_over_a_nan_score_in_the_last(self, monkeypatch):
        scores, labels = np.tile([0.1, 0.2, 0.3, 0.4], 4), np.tile([0.0, 1.0], 8)
        scores[-1], labels[0] = math.nan, 3.0
        cut_into_pieces(monkeypatch, 4)
        with pytest.raises(InputError) as exc:
            roc_auc(scores, labels)
        assert str(exc.value) == "labels must be binary (0/1)"

    @pytest.mark.parametrize("extra", [-0.0, -0.5, math.nan])
    def test_signed_or_nan_key_only_in_the_last_piece_takes_the_unique_path(
            self, monkeypatch, extra):
        rng = np.random.default_rng(23)
        keys = np.append(rng.integers(0, 4, 39) / 4, extra)
        positive = rng.random(keys.size) < 0.5
        cut_into_pieces(monkeypatch, 4, chunk=4)
        took = spy_packed_tally(monkeypatch)
        got = tally(keys, positive)
        assert took == [False]
        unique, unique_count = np.unique(keys, return_counts=True)
        assert got[0].tobytes() == unique.tobytes()
        assert got[1].tolist() == unique_count.tolist()
        assert got[2].tolist() == [sum(p for k, p in zip(keys.tolist(), positive.tolist())
                                       if k == v or (v != v and k != k)) for v in unique.tolist()]
        if extra != extra:
            with pytest.raises(InputError) as exc:
                roc_auc(keys, positive)
            assert str(exc.value) == "scores must not be NaN"

    @pytest.mark.parametrize("failing", [1, 3], ids=["second piece", "last piece"])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, failing):
        cut_into_pieces(monkeypatch, 4)
        seen, packed_runs = [], evaluation._packed_runs

        def fail_in_one_piece(bits, labels, packed, lo, hi):
            seen.append(threading.current_thread())
            if lo == failing * 2:
                raise MemoryError(f"piece at {lo}")
            return packed_runs(bits, labels, packed, lo, hi)

        monkeypatch.setattr(evaluation, "_packed_runs", fail_in_one_piece)
        before = threading.active_count()
        with pytest.raises(MemoryError, match=f"^piece at {failing * 2}$"):
            tally(np.linspace(0, 1, 8), np.tile([0, 1], 4))
        assert threading.active_count() == before
        assert len(seen) == 4 and len(set(seen)) == 4

    def test_a_thread_that_cannot_start_leaves_none_running(self, monkeypatch):
        started = []

        class ThirdFails(threading.Thread):
            def start(self):
                if len(started) == 2:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        cut_into_pieces(monkeypatch, 4)
        monkeypatch.setattr(threading, "Thread", ThirdFails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            tally(np.linspace(0, 1, 8), np.tile([0, 1], 4))
        assert threading.active_count() == before
        assert len(started) == 2 and not any(thread.is_alive() for thread in started)

    def test_more_pieces_than_cores_under_frequent_switches(self, monkeypatch):
        # the pieces write disjoint slices of one array and their own result slots; a lost
        # or misplaced write would change a count
        rng = np.random.default_rng(29)
        keys = rng.integers(0, 40, 4000) / 40
        labels = (rng.random(keys.size) < keys).astype(float)
        expected = one_piece_tally(keys, labels)
        cut_into_pieces(monkeypatch, 16, chunk=64)
        monkeypatch.setattr(evaluation, "_MIN_PIECE", 100)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                assert_same_tally(tally(keys, labels), expected)
        finally:
            sys.setswitchinterval(interval)

    def test_default_pieces_equal_one_piece(self):
        # at the real piece size: two or more pieces on a multi-core machine, one on one core
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 3000, 2 * evaluation._MIN_PIECE + 5) / 3000
        labels = (rng.random(keys.size) < keys).astype(float)
        got = tally(keys, labels)
        assert_same_tally(got, one_piece_tally(keys, labels))
        unique, unique_count = np.unique(keys, return_counts=True)
        assert got[0].tobytes() == unique.tobytes()
        assert got[1].tolist() == unique_count.tolist()
        assert got[2].tolist() == np.bincount(np.searchsorted(unique, keys[labels == 1]),
                                              minlength=unique.size).tolist()

    def test_cores_are_those_the_process_may_run_on(self):
        if hasattr(os, "sched_getaffinity"):
            assert evaluation._CORES == len(os.sched_getaffinity(0))
        else:
            assert evaluation._CORES == (os.cpu_count() or 1)

    def test_labels_may_be_bool_or_numbers_and_must_be_binary(self):
        keys = np.array([0.5, 0.25, 0.5, 1.0])
        labels = np.array([1, 0, 0, 1])
        expected = tally(keys, labels == 1)
        for same in (labels, labels.astype(np.uint8), labels.astype(float)):
            assert_same_tally(tally(keys, same), expected)
        for bad_keys in (keys, keys.astype(np.intp)):  # the packed and the unique path
            with pytest.raises(InputError, match=r"^labels must be binary \(0/1\)$"):
                tally(bad_keys, np.array([1, 0, 2, 1]))

    def test_tie_table_tallies_bool_and_number_labels_as_they_are(self, monkeypatch):
        # A copy of the study's uint8 labels to float64 would cost as much as packing them.
        scores = np.array([0.5, 0.25, 0.5, 1.0])
        labels = np.array([1, 0, 0, 1])
        expected = evaluation._tie_table(scores, labels.astype(float))
        seen = []
        monkeypatch.setattr(evaluation, "tally", lambda k, y: seen.append(y) or tally(k, y))
        for same in (labels == 1, labels.astype(np.uint8), labels, labels.astype(np.float32)):
            assert_same_tally(evaluation._tie_table(scores, same), expected)
            assert seen.pop() is same
        for text in (["1", "0", "0", "1"], np.array(["1", "0", "0", "1"])):
            assert_same_tally(evaluation._tie_table(scores, text), expected)
            assert seen.pop().dtype == np.float64


class TestTieTableRoc:
    @settings(max_examples=150)
    @given(tied_pairs(ROC_SCORES, min_size=2))
    def test_equals_unique_bincount_reference(self, data):
        scores, labels = data
        assume(two_classes(labels))
        assert roc_auc(scores, labels) == unique_bincount_roc(scores, labels)

    def test_equals_unique_bincount_reference_n4_single_value(self):
        for scores in ([0.3] * 4, [math.inf] * 4, [-0.0, 0.0, 0.0, -0.0]):
            labels = [0, 1, 1, 0]
            assert roc_auc(scores, labels) == unique_bincount_roc(scores, labels)

    @settings(max_examples=80)
    @given(tied_pairs(ROC_SCORES, min_size=2), st.integers(2, 5))
    def test_replication_invariance(self, data, k):
        scores, labels = data
        assume(two_classes(labels))
        base = roc_auc(scores, labels)
        rep = roc_auc(np.repeat(scores, k), np.repeat(labels, k))
        assert (rep.auc, rep.points, rep.thresholds) == (base.auc, base.points, base.thresholds)
        assert (rep.n_pos, rep.n_neg) == (k * base.n_pos, k * base.n_neg)


class TestOrderInvariance:
    @settings(max_examples=150)
    @given(tied_pairs(PROBABILITIES, min_size=4), st.data())
    def test_roc_and_calibration_depend_only_on_the_pairs(self, pairs, data):
        scores, labels = pairs
        assume(two_classes(labels))
        order = data.draw(st.permutations(range(len(scores))))
        shuffled = [scores[i] for i in order], [labels[i] for i in order]
        assert roc_auc(*shuffled) == roc_auc(scores, labels)
        for min_positives in (1, 5):
            assert (calibration_strata(*shuffled, min_positives=min_positives)
                    == calibration_strata(scores, labels, min_positives=min_positives))


class TestAicCompare:
    def _fit_pair(self, cols):
        rng = np.random.default_rng(4)
        X = (rng.random((400, 3)) < 0.4).astype(float)
        eta = -1 + X @ np.array([1.5, 0.8, 0.0])
        y = (rng.random(400) < 1 / (1 + np.exp(-eta))).astype(float)
        m = fit_logistic(X[:, cols], y)
        from scipy.special import expit
        p = expit(m.intercept + X[:, cols] @ m.coefficients[1:])
        return m, roc_auc(p, y)

    def test_tie_is_stable(self):
        pair = self._fit_pair([0, 1])
        cmp = aic_compare([pair, pair])
        assert [e.index for e in cmp.ranked] == [0, 1]
        assert not cmp.conflict

    def test_full_model_beats_null_like(self):
        small = self._fit_pair([2])
        full = self._fit_pair([0, 1, 2])
        cmp = aic_compare([small, full])
        assert cmp.selected.index == 1
        assert not cmp.conflict

    def test_conflict_flagged(self):
        m, roc = self._fit_pair([0, 1])
        better_auc_worse_aic = m.__class__(
            variable_names=m.variable_names,
            coefficients=m.coefficients,
            standard_errors=m.standard_errors,
            aic=m.aic + 50,
            n_obs=m.n_obs,
            log_likelihood=m.log_likelihood,
        )
        boosted = roc.__class__(points=roc.points, thresholds=roc.thresholds,
                                auc=min(1.0, roc.auc + 0.05),
                                auc_ci_low=roc.auc_ci_low, auc_ci_high=roc.auc_ci_high,
                                n_pos=roc.n_pos, n_neg=roc.n_neg)
        cmp = aic_compare([(m, roc), (better_auc_worse_aic, boosted)])
        assert cmp.selected.index == 1  # AUC wins lexicographically
        assert cmp.conflict

    def test_different_n_obs_incomparable(self):
        a = self._fit_pair([0])
        rng = np.random.default_rng(5)
        X = (rng.random((100, 1)) < 0.4).astype(float)
        y = (rng.random(100) < 0.5).astype(float)
        m = fit_logistic(X, y)
        from scipy.special import expit
        p = expit(m.intercept + X @ m.coefficients[1:])
        with pytest.raises(IncomparableModelsError):
            aic_compare([a, (m, roc_auc(p, y))])

    def test_model_without_aic_incomparable(self):
        m, roc = self._fit_pair([0])
        with pytest.raises(IncomparableModelsError) as exc:
            aic_compare([(m, roc), (replace(m, aic=None), roc)])
        assert str(exc.value) == "model 1 carries no AIC/n_obs"

    def test_no_models_incomparable(self):
        with pytest.raises(IncomparableModelsError) as exc:
            aic_compare([])
        assert str(exc.value) == "no models to compare"


class TestCalibration:
    def test_published_shape_fixture(self):
        predicted = np.array([0.048] * 204 + [0.096] * 62 + [0.620] * 87)
        labels = np.array([1] * 9 + [0] * 195 + [1] * 9 + [0] * 53 + [1] * 53 + [0] * 34,
                          dtype=float)
        report = calibration_strata(predicted, labels)
        assert [s.label for s in report.strata] == ["Q1-Q2", "Q3", "Q4"]
        assert [s.n_obs for s in report.strata] == [204, 62, 87]
        obs = [s.observed_rate for s in report.strata]
        assert obs == pytest.approx([9 / 204, 9 / 62, 53 / 87], abs=1e-15)
        assert obs == pytest.approx([0.044, 0.145, 0.609], abs=5e-4)
        assert [s.mean_predicted for s in report.strata] == pytest.approx(
            [0.048, 0.096, 0.620], abs=1e-12)
        assert report.merged == ("Q1-Q2",)

    def test_well_calibrated_synthetic(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, 10000)
        y = (rng.random(10000) < p).astype(float)
        report = calibration_strata(p, y)
        for s in report.strata:
            assert abs(s.observed_rate - s.mean_predicted) < 0.02

    def test_all_identical_predictions(self):
        y = np.array([0, 1, 0, 1, 1, 0, 0, 0], dtype=float)
        report = calibration_strata(np.full(8, 0.4), y, min_positives=1)
        assert len(report.strata) == 1
        assert report.strata[0].label == "Q1-Q4"
        assert report.strata[0].observed_rate == pytest.approx(y.mean())

    def test_conservation(self):
        rng = np.random.default_rng(7)
        p = rng.random(500)
        y = (rng.random(500) < 0.3).astype(float)
        report = calibration_strata(p, y)
        total = sum(s.n_obs for s in report.strata)
        weighted = sum(s.n_obs * s.observed_rate for s in report.strata) / total
        assert total == 500
        assert weighted == pytest.approx(y.mean(), abs=1e-12)

    def test_mean_predicted_monotone(self):
        rng = np.random.default_rng(8)
        p = rng.random(800)
        y = (rng.random(800) < p).astype(float)
        report = calibration_strata(p, y)
        means = [s.mean_predicted for s in report.strata]
        assert means == sorted(means)

    def test_too_few(self):
        with pytest.raises(TooFewRecordsError):
            calibration_strata([0.1, 0.2], [0, 1])

    def test_invalid_input_rejected(self):
        with pytest.raises(InputError, match="NaN"):
            calibration_strata([0.1, float("nan"), 0.3, 0.4], [0, 1, 0, 1])
        with pytest.raises(InputError, match="binary"):
            calibration_strata([0.1, 0.2, 0.3, 0.4], [0, 2, 0, 1])

    @pytest.mark.parametrize("statistic", [roc_auc, calibration_strata])
    def test_labels_summing_to_a_binary_count_are_refused(self, statistic):
        # their sum, 2, and mean, 0.5, look binary; only a check of each label refuses them
        for labels in ([2, -1, 1, 0], [math.nan, 1, 0, 1], [math.inf, 1, 0, 1],
                       [-math.inf, 1, 0, 1], [0.5, 0.5, 1, 0]):
            with pytest.raises(InputError, match="^labels must be binary"):
                statistic([0.1, 0.2, 0.3, 0.4], labels)
        # -0.0 equals 0.0, so it is a negative label
        assert (statistic([0.1, 0.2, 0.3, 0.4], [-0.0, 1, 0, 1])
                == statistic([0.1, 0.2, 0.3, 0.4], [0.0, 1, 0, 1]))

    def test_text_rendering(self):
        report = calibration_strata(np.linspace(0, 1, 40),
                                    (np.linspace(0, 1, 40) > 0.5).astype(float),
                                    min_positives=1)
        text = calibration_text(report)
        assert "Stratum" in text and "Observed" in text

    @settings(max_examples=80)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), min_size=4, max_size=200),
           st.sampled_from([1, 5]))
    def test_matches_per_record_reference_tied(self, data, min_positives):
        self._check_reference(np.array([p for p, _ in data]) / 10.0,
                              np.array([y for _, y in data], dtype=float), min_positives)

    def test_matches_per_record_reference_large(self):
        rng = np.random.default_rng(11)
        predicted = rng.integers(1, 3000, 200_000) / 3000.0
        self._check_reference(predicted, (rng.random(200_000) < predicted).astype(float), 5)

    @settings(max_examples=150)
    @given(tied_pairs(PROBABILITIES, min_size=4), st.sampled_from([1, 5]))
    def test_matches_per_record_reference_few_values(self, data, min_positives):
        scores, labels = data
        self._check_reference(np.array(scores), np.array(labels, dtype=float), min_positives)

    def test_single_value_n4(self):
        report = calibration_strata([0.7] * 4, [1, 0, 1, 1], min_positives=1)
        assert [(s.label, s.n_obs, s.n_pos) for s in report.strata] == [("Q1-Q4", 4, 3)]
        assert report.strata[0].mean_predicted == 0.7

    @settings(max_examples=80)
    @given(tied_pairs(PROBABILITIES, min_size=4), st.integers(2, 4))
    def test_replication_invariance(self, data, k):
        # min_positives=1 merges a stratum exactly when it has no positives, at any k.
        scores, labels = data
        base = calibration_strata(scores, labels, min_positives=1)
        rep = calibration_strata(np.repeat(scores, k), np.repeat(labels, k), min_positives=1)
        assert rep.merged == base.merged
        assert [(s.label, s.n_obs, s.n_pos, s.observed_rate) for s in rep.strata] == [
            (s.label, k * s.n_obs, k * s.n_pos, s.observed_rate) for s in base.strata]
        for s, r in zip(base.strata, rep.strata):
            assert r.mean_predicted == pytest.approx(s.mean_predicted, rel=1e-15)

    def test_replication_invariance_n6(self):
        # 0, 0.1, ..., 0.5: Q3 starts at 0.3 (3 of 6 below it) and Q4 at 0.5
        # (5 of 6 below it), for one copy and for two.
        predicted = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        for k in (1, 2):
            report = calibration_strata(np.repeat(predicted, k), [1] * (6 * k), min_positives=1)
            assert [(s.label, s.n_obs) for s in report.strata] == [
                ("Q1", 2 * k), ("Q2", k), ("Q3", 2 * k), ("Q4", k)]
            assert report.merged == ()

    def test_merged_mean_predicted_correctly_rounded(self):
        predicted = [0.53, 0.21, 0.74, 0.39, 0.38, 0.91, 0.39, 0.35, 0.35, 0.48, 0.09, 0.55,
                     0.92]
        labels = [1.0 if p in (0.35, 0.09) else 0.0 for p in predicted]
        report = calibration_strata(predicted, labels, min_positives=2)
        assert [(s.label, s.n_obs, s.n_pos) for s in report.strata] == [("Q1-Q4", 13, 3)]
        assert report.strata[0].mean_predicted == math.fsum(predicted) / 13
        assert report.strata[0].mean_predicted == 0.48384615384615387
        # Each value x count rounded before the sum gave 0.3916173469387755.
        predicted = [0.185] * 102 + [0.875] * 56 + [0.366] * 234
        report = calibration_strata(predicted, [0] * 392, min_positives=1)
        assert [(s.label, s.n_obs) for s in report.strata] == [("Q1-Q4", 392)]
        assert report.strata[0].mean_predicted == math.fsum(predicted) / 392
        assert report.strata[0].mean_predicted == 0.39161734693877553

    @settings(max_examples=150)
    @given(tied_pairs(PROBABILITIES, min_size=4), st.sampled_from([1, 5]))
    def test_mean_predicted_is_fsum_over_members(self, data, min_positives):
        scores, labels = data
        predicted = np.array(scores)
        report = calibration_strata(predicted, labels, min_positives=min_positives)
        quartile = inverted_cdf_quartile(predicted)
        for s in report.strata:
            qs = [int(q[1:]) - 1 for q in s.label.split("-")]
            members = predicted[(quartile >= qs[0]) & (quartile <= qs[-1])]
            assert s.mean_predicted == math.fsum(members.tolist()) / s.n_obs

    def test_mean_predicted_correctly_rounded_at_1m(self):
        rng = np.random.default_rng(13)
        n = 1_000_000
        predicted = expit(rng.normal(-1.0, 1.5, 4000))[rng.integers(0, 4000, n)]
        labels = (rng.random(n) < predicted).astype(float)
        report = calibration_strata(predicted, labels)
        quartile = inverted_cdf_quartile(predicted)
        assert sum(s.n_obs for s in report.strata) == n
        for s in report.strata:
            qs = [int(q[1:]) - 1 for q in s.label.split("-")]
            members = predicted[(quartile >= qs[0]) & (quartile <= qs[-1])]
            exact = math.fsum(members.tolist()) / len(members)
            assert s.mean_predicted == exact, s.label

    def test_out_of_range_rejected(self):
        labels = [0, 1, 0, 1, 1, 0]
        for predicted in ([-3.0, 0.2, 0.3, 0.5, 0.6, 7.0], [0.1, 0.2, 0.3, 0.5, 0.6, math.inf],
                          [-math.inf, 0.2, 0.3, 0.5, 0.6, 0.9], [0.1, 0.2, 0.3, 0.5, 0.6, 1.5]):
            with pytest.raises(InputError, match=r"\[0, 1\]"):
                calibration_strata(predicted, labels)
        report = calibration_strata([0.0, 0.2, 0.3, 0.5, 0.6, 1.0], labels, min_positives=1)
        assert sum(s.n_obs for s in report.strata) == 6

    def _check_reference(self, predicted, labels, min_positives):
        report = calibration_strata(predicted, labels, min_positives=min_positives)
        reference = per_record_calibration(predicted, labels, min_positives=min_positives)
        assert [(s.label, s.n_obs, s.n_pos, s.observed_rate) for s in report.strata] == [
            r[:4] for r in reference]
        assert report.merged == tuple(r[0] for r in reference if "-" in r[0])
        for s, r in zip(report.strata, reference):
            assert abs(s.mean_predicted - r[4]) < 1e-12

    def test_dict_round_trip(self):
        predicted = np.array([0.048] * 204 + [0.096] * 62 + [0.620] * 87)
        labels = np.array([1] * 9 + [0] * 195 + [1] * 9 + [0] * 53 + [1] * 53 + [0] * 34,
                          dtype=float)
        report = calibration_strata(predicted, labels)
        doc = json.loads(json.dumps(calibration_to_dict(report)))
        assert calibration_from_dict(doc) == report


class TestKappa:
    def test_perfect_agreement(self):
        r = cohen_kappa([0, 1, 2, 1], [0, 1, 2, 1])
        assert r.kappa == 1.0

    def test_hand_example(self):
        a = [1] * 40 + [1] * 10 + [0] * 10 + [0] * 40
        b = [1] * 40 + [0] * 10 + [1] * 10 + [0] * 40
        r = cohen_kappa(a, b)
        assert r.observed_agreement == pytest.approx(0.8)
        assert r.expected_agreement == pytest.approx(0.5)
        assert r.kappa == pytest.approx(0.6)
        assert r.ci_low <= r.kappa <= r.ci_high

    def test_chance_level(self):
        # margins independent and realized exactly: po == pe
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        r = cohen_kappa(a, b)
        assert abs(r.kappa) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 3, 60).tolist()
        b = rng.integers(0, 3, 60).tolist()
        assert cohen_kappa(a, b) == cohen_kappa(b, a)

    @given(st.permutations(list(range(12))))
    def test_permutation_invariance(self, perm):
        a = [0, 1, 0, 1, 2, 2, 0, 1, 1, 0, 2, 1]
        b = [0, 1, 1, 1, 2, 0, 0, 1, 2, 0, 2, 1]
        base = cohen_kappa(a, b)
        shuffled = cohen_kappa([a[i] for i in perm], [b[i] for i in perm])
        assert shuffled.kappa == pytest.approx(base.kappa, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateAgreementError):
            cohen_kappa([1, 1, 1], [1, 1, 1])

    @pytest.mark.parametrize("a, b, message", [
        ([0, 1, 1], [0, 1], "rating vectors differ in length"),
        ([1], [1], "need at least 2 rated items"),
    ], ids=["unequal length", "one item"])
    def test_malformed_ratings_rejected(self, a, b, message):
        with pytest.raises(InputError) as exc:
            cohen_kappa(a, b)
        assert str(exc.value) == message

    def test_ci_clamped(self):
        r = cohen_kappa([0, 1] * 3, [0, 1] * 3)
        assert r.ci_high <= 1.0

    def test_text_rendering(self):
        r = cohen_kappa([0, 1, 1, 0], [0, 1, 0, 0])
        assert "kappa" in kappa_text(r)


class TestExports:
    def test_csv(self):
        roc = roc_auc([0.2, 0.8, 0.5], [0, 1, 1])
        text = roc_csv(roc)
        lines = text.strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("inf,")
        assert len(lines) == 1 + len(roc.points)

    def test_csv_thresholds_keep_their_sign(self):
        # a -inf score is the last threshold, and it is written as -inf, not inf
        roc = roc_auc([-math.inf, 0.5, 1.0, 0.2], [0, 1, 1, 0])
        lines = roc_csv(roc).splitlines()
        assert lines[1].startswith("inf,") and lines[-1] == "-inf,1.0,1.0"
        assert [float(line.split(",")[0]) for line in lines[1:]] == list(roc.thresholds)

    def test_svg(self):
        roc = roc_auc([0.2, 0.8, 0.5, 0.1], [0, 1, 1, 0])
        svg = roc_svg(roc)
        assert svg.startswith("<svg")
        assert "Sensitivity" in svg and "polyline" in svg
