import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy.special import expit

from gamiscreen.errors import (
    ArityMismatchError,
    DegenerateColumnError,
    SeparationError,
    SingularMatrixError,
)
from gamiscreen.logit import (
    fit_logistic,
    gradient,
    hessian,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    predict,
    pretrained_grouping,
    pretrained_model,
    univariate_screen,
)
from gamiscreen.textfeatures import extract_features

from conftest import synthetic_corpus


def table_2x2(a, b, c, d):
    """Design for a single binary feature: a=x1y1, b=x1y0, c=x0y1, d=x0y0."""
    x = np.r_[np.ones(a + b), np.zeros(c + d)]
    y = np.r_[np.ones(a), np.zeros(b), np.ones(c), np.zeros(d)]
    return x[:, None], y


def model_design(n, seed, prevalence=0.12):
    """Feature bits at `prevalence`, labels drawn from the bundled model."""
    rng = np.random.default_rng(seed)
    model = pretrained_model()
    X = (rng.random((n, len(model.feature_names))) < prevalence).astype(float)
    y = (rng.random(n) < expit(model.intercept + X @ model.coefficients[1:])).astype(float)
    return X, y


class TestFit:
    def test_intercept_only_closed_form(self):
        # prevalence 170/823 -> beta0 = logit(170/823)
        y = np.r_[np.ones(170), np.zeros(653)]
        m = fit_logistic(np.empty((823, 0)), y)
        assert m.coefficients[0] == pytest.approx(math.log(170 / 653), abs=1e-3)
        assert m.coefficients[0] == pytest.approx(-1.346, abs=1e-3)

    def test_2x2_closed_form(self):
        a, b, c, d = 30, 20, 25, 60
        X, y = table_2x2(a, b, c, d)
        m = fit_logistic(X, y, names=("f",))
        assert m.coefficients[1] == pytest.approx(math.log(a * d / (b * c)), abs=1e-6)
        assert m.standard_errors[1] == pytest.approx(
            math.sqrt(1 / a + 1 / b + 1 / c + 1 / d), abs=1e-6)

    def test_gradient_zero_at_optimum(self):
        rng = np.random.default_rng(3)
        X = (rng.random((400, 3)) < 0.4).astype(float)
        y = (rng.random(400) < 0.3).astype(float)
        m = fit_logistic(X, y)
        Xd = np.column_stack([np.ones(len(y)), X])
        assert np.abs(gradient(m.coefficients, Xd, y)).max() < 1e-8

    def test_score_equations(self):
        from scipy.special import expit
        rng = np.random.default_rng(4)
        X = (rng.random((300, 4)) < 0.3).astype(float)
        y = (rng.random(300) < 0.35).astype(float)
        m = fit_logistic(X, y)
        p = expit(m.intercept + X @ m.coefficients[1:])
        assert abs(np.sum(y - p)) < 1e-7
        for j in range(4):
            assert abs(np.sum(X[:, j] * (y - p))) < 1e-7

    def test_nested_likelihood_monotone(self):
        rng = np.random.default_rng(5)
        X = (rng.random((500, 5)) < 0.3).astype(float)
        eta = -1.0 + X @ np.array([0.8, -0.5, 0.3, 0.0, 1.1])
        y = (rng.random(500) < 1 / (1 + np.exp(-eta))).astype(float)
        small = fit_logistic(X[:, :3], y)
        full = fit_logistic(X, y)
        assert full.log_likelihood >= small.log_likelihood - 1e-6

    def test_aic_identity(self):
        rng = np.random.default_rng(6)
        X = (rng.random((200, 2)) < 0.5).astype(float)
        y = (rng.random(200) < 0.4).astype(float)
        m = fit_logistic(X, y)
        assert m.aic == pytest.approx(2 * 3 - 2 * m.log_likelihood, abs=1e-12)

    def test_perfect_predictor_raises_separation(self):
        rng = np.random.default_rng(7)
        x = (rng.random(100) < 0.4).astype(float)
        with pytest.raises(SeparationError) as exc:
            fit_logistic(x[:, None], x.copy(), names=("mirror",))
        assert "mirror" in exc.value.variables

    def test_constant_column_raises_degenerate(self):
        X = np.column_stack([np.r_[np.ones(5), np.zeros(5)], np.zeros(10)])
        y = np.r_[np.ones(5), np.zeros(5)]
        with pytest.raises(DegenerateColumnError) as exc:
            fit_logistic(X, y, names=("ok", "allzero"))
        assert exc.value.variable == "allzero"

    def test_collinear_columns_raise_singular(self):
        rng = np.random.default_rng(8)
        x = (rng.random(200) < 0.5).astype(float)
        y = (rng.random(200) < 0.4).astype(float)
        with pytest.raises((SingularMatrixError, SeparationError)):
            fit_logistic(np.column_stack([x, x]), y, names=("a", "b"))

    def test_recovers_truth_monte_carlo(self):
        rng = np.random.default_rng(9)
        truth = np.array([-1.5, 1.2, -0.7, 0.5])
        X = (rng.random((20000, 3)) < 0.3).astype(float)
        eta = truth[0] + X @ truth[1:]
        y = (rng.random(20000) < 1 / (1 + np.exp(-eta))).astype(float)
        m = fit_logistic(X, y)
        assert np.all(np.abs(m.coefficients - truth) < 3 * m.standard_errors)


class TestScaleInvariance:
    """The stop test must not depend on n: only the SEs may change with it."""

    @pytest.mark.parametrize("k", [10, 100])
    def test_replication_keeps_beta_and_scales_se(self, k):
        X, y = model_design(3000, seed=2)
        base = fit_logistic(X, y)
        rep = fit_logistic(np.tile(X, (k, 1)), np.tile(y, k))
        np.testing.assert_allclose(rep.coefficients, base.coefficients, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.standard_errors * math.sqrt(k), base.standard_errors,
                                   rtol=0, atol=1e-12)

    def test_million_row_single_predictor_converges(self):
        X, y = model_design(1_000_000, seed=1)
        x = X[:, 1]
        m = fit_logistic(x[:, None], y, names=("f",))
        a = y @ x
        b = x.sum() - a
        c = y.sum() - a
        d = len(y) - a - b - c
        assert m.coefficients[1] == pytest.approx(math.log(a * d / (b * c)), abs=1e-9)
        assert m.iterations < 10


class TestFiniteDifferences:
    def test_gradient_and_hessian(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(60), (rng.random((60, 3)) < 0.5).astype(float)])
        y = (rng.random(60) < 0.5).astype(float)
        beta = rng.normal(scale=0.8, size=4)
        h = 1e-5
        g = gradient(beta, X, y)
        H = hessian(beta, X, y)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (log_likelihood(beta + e, X, y) - log_likelihood(beta - e, X, y)) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-4, abs=1e-8)
            fd_row = (gradient(beta + e, X, y) - gradient(beta - e, X, y)) / (2 * h)
            np.testing.assert_allclose(fd_row, H[j], rtol=1e-4, atol=1e-6)


class TestUnivariateScreen:
    def test_cross_ratio(self):
        X, y = table_2x2(30, 70, 10, 90)
        res = univariate_screen(X, y, names=("f",))
        assert res[0].odds_ratio == pytest.approx(30 * 90 / (70 * 10), abs=1e-4)
        assert res[0].ci_low <= res[0].odds_ratio <= res[0].ci_high
        assert 0 <= res[0].p_value <= 1

        # The screen is closed-form; each row must equal the Newton fit on that column.
        for cells in [(30, 70, 10, 90), (1, 1, 1, 1), (5, 400, 3, 900), (250, 40, 60, 300),
                      (12, 12, 40, 41), (700, 2, 500, 9)]:
            X, y = table_2x2(*cells)
            u = univariate_screen(X, y, names=("f",))[0]
            m = fit_logistic(X, y, names=("f",))
            lo, hi = np.exp(m.conf_int()[1])
            assert u.error is None
            assert u.odds_ratio == pytest.approx(m.odds_ratios()[1], rel=0, abs=1e-9)
            assert u.ci_low == pytest.approx(lo, rel=0, abs=1e-9)
            assert u.ci_high == pytest.approx(hi, rel=0, abs=1e-9)
            assert u.p_value == pytest.approx(m.p_values()[1], rel=0, abs=1e-9)

    def test_perfect_predictor_recorded_not_raised(self):
        rng = np.random.default_rng(11)
        x = (rng.random(80) < 0.5).astype(float)
        good = (rng.random(80) < 0.5).astype(float)
        zero_cell = x * good  # never 1 where the label is 0
        constant = np.ones(80)
        res = univariate_screen(np.column_stack([x, good, zero_cell, constant]), x.copy(),
                                names=("mirror", "noise", "zero cell", "constant"))
        assert res[0].error is not None
        assert res[0].odds_ratio is None
        assert res[1].error is None
        assert "zero cell" in res[2].error and "separation" in res[2].error
        assert res[2].odds_ratio is res[2].p_value is None
        assert res[3].error == str(DegenerateColumnError("constant"))
        assert res[3].odds_ratio is res[3].p_value is None

    def test_large_well_posed_screen_has_no_errors(self, pretrained, lexicon, grouping):
        corpus = synthetic_corpus(pretrained, grouping, n=100_000, seed=12)
        X = np.array([extract_features(r, lexicon, grouping).bits for r in corpus.records],
                     dtype=float)
        y = np.array([r.gamification_label for r in corpus.records], dtype=float)
        res = univariate_screen(X, y, names=grouping.names)
        assert [u.error for u in res] == [None] * len(grouping.names)

    def test_null_variable_ci_covers_one(self):
        # ~95% coverage for an independent feature across Monte Carlo draws
        rng = np.random.default_rng(12)
        covered = 0
        reps = 300
        for _ in range(reps):
            x = (rng.random(250) < 0.5).astype(float)
            y = (rng.random(250) < 0.4).astype(float)
            res = univariate_screen(x[:, None], y, names=("f",))
            if res[0].error is None and res[0].ci_low <= 1.0 <= res[0].ci_high:
                covered += 1
        assert 0.90 <= covered / reps <= 0.99


class TestPredict:
    def test_logistic_of_zero(self, pretrained):
        m = pretrained
        bits = [0] * 14
        # shift intercept away: any model with linear score 0 gives 0.5
        rng_model = m
        assert predict(rng_model, bits) == pytest.approx(1 / (1 + math.exp(2.85)), abs=1e-12)

    def test_arity_mismatch(self, pretrained):
        with pytest.raises(ArityMismatchError):
            predict(pretrained, [0, 1])

    def test_positive_coefficient_increases_probability(self, pretrained):
        base = predict(pretrained, [0] * 14)
        for i, name in enumerate(pretrained.feature_names):
            bits = [0] * 14
            bits[i] = 1
            p = predict(pretrained, bits)
            if pretrained.coefficients[i + 1] > 0:
                assert p > base
            else:
                assert p < base


class TestPretrainedModel:
    def _doc(self):
        text = resources.files("gamiscreen.data").joinpath(
            "pretrained_model.json").read_text(encoding="utf-8")
        return json.loads(text)

    def test_reconciliation_against_printed_intervals(self, pretrained):
        doc = self._doc()
        for v in doc["variables"]:
            beta = math.log(v["odds_ratio"])
            mid = (v["ci_low"] + v["ci_high"]) / 2
            assert abs(beta - mid) < 0.05, v["name"]
        assert abs(doc["intercept"] - (-3.23 + -2.47) / 2) < 0.05

    def test_known_coefficients(self, pretrained):
        coefs = dict(zip(pretrained.feature_names, pretrained.coefficients[1:]))
        assert coefs["Activity Tracking"] == pytest.approx(math.log(23.91), abs=1e-12)
        assert coefs["Game Labels"] == pytest.approx(3.234, abs=1e-3)
        assert coefs["Player Aspects"] == pytest.approx(-0.478, abs=1e-3)
        assert pretrained.intercept == -2.85

    def test_all_zero_probability(self, pretrained):
        assert predict(pretrained, [0] * 14) == pytest.approx(0.0546, abs=5e-4)

    def test_single_variable_probabilities(self, pretrained):
        names = pretrained.feature_names
        bits = [1 if n == "Activity Tracking" else 0 for n in names]
        assert predict(pretrained, bits) == pytest.approx(0.580, abs=1e-3)

    def test_grouping_matches_model(self, pretrained):
        assert pretrained_grouping().names == pretrained.feature_names


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        X = (rng.random((300, 2)) < 0.4).astype(float)
        y = (rng.random(300) < 0.3).astype(float)
        m = fit_logistic(X, y, names=("alpha", "beta"))
        doc = model_to_dict(m, keyword_map={"alpha": ["play"], "beta": ["quiz"]},
                            training={"seed": 5})
        m2, grouping = model_from_dict(doc)
        np.testing.assert_allclose(m2.coefficients, m.coefficients)
        np.testing.assert_allclose(m2.standard_errors, m.standard_errors)
        assert m2.aic == pytest.approx(m.aic)
        assert grouping is not None and grouping.names == ("alpha", "beta")

    def test_derived_quantities_consistent(self):
        m = pretrained_model()
        np.testing.assert_allclose(m.odds_ratios(), np.exp(m.coefficients))
        ci = m.conf_int()
        np.testing.assert_allclose(ci[:, 1] - ci[:, 0], 2 * 1.96 * m.standard_errors)
