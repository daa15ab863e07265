import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm  # the reference for the p-values; the package calls `ndtr`

from gamiscreen import logit
from gamiscreen.errors import (
    ArityMismatchError,
    DegenerateColumnError,
    InputError,
    SeparationError,
    SingularMatrixError,
    TooFewRecordsError,
)
from gamiscreen.logit import (
    SPLIT_GENERATOR,
    FittedModel,
    contributions,
    fit_logistic,
    gradient,
    hessian,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    predict,
    pretrained_grouping,
    pretrained_model,
    probabilities,
    univariate_screen,
)
from gamiscreen.textfeatures import VariableGrouping, extract_features

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

    @pytest.mark.xfail(raises=SeparationError, strict=True,
                       reason="ROADMAP open item 5: separation is guessed from BETA_LIMIT = 15, "
                              "so this finite MLE is refused")
    def test_2x2_large_finite_log_odds_ratio(self):
        # a = d = 3000, b = c = 1: the MLE is finite, log OR = log(3000 * 3000) = 16.0127
        X, y = table_2x2(3000, 1, 1, 3000)
        m = fit_logistic(X, y, names=("f",))
        assert abs(m.coefficients[1] - math.log(3000 * 3000)) < 1e-9

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

    @pytest.mark.parametrize("X, y, names, message", [
        (np.ones(4), np.ones(4), None, "feature matrix must be 2-dimensional"),
        (np.ones((4, 1)), np.ones(3), None, "outcome length (3,) does not match 4 rows"),
        (np.full((4, 1), 2.0), np.ones(4), None, "design matrix and outcome must be binary (0/1)"),
        (np.ones((4, 1)), np.full(4, 0.5), None, "design matrix and outcome must be binary (0/1)"),
        (np.ones((4, 2)), np.ones(4), ("a",), "1 names for 2 columns"),
    ], ids=["X not 2-d", "outcome length", "X not binary", "y not binary", "name count"])
    def test_malformed_design_rejected(self, X, y, names, message):
        with pytest.raises(InputError) as exc:
            fit_logistic(X, y, names=names)
        assert str(exc.value) == message

    @pytest.mark.parametrize("y, n, message", [
        (np.ones(4), 0, "trials must be one positive integer or 4 of them"),
        (np.ones(4), 1.5, "trials must be one positive integer or 4 of them"),
        (np.ones(4), -1, "trials must be one positive integer or 4 of them"),
        (np.ones(4), np.inf, "trials must be one positive integer or 4 of them"),
        (np.ones(4), np.full(3, 2), "trials must be one positive integer or 4 of them"),
        (np.r_[1.0, 3.0, 0.0, 2.0], 2, "design matrix and outcome must be binary (0/1)"),
        (np.r_[1.0, -1.0, 0.0, 2.0], 2, "design matrix and outcome must be binary (0/1)"),
        (np.r_[1.0, 1.5, 0.0, 2.0], 2, "design matrix and outcome must be binary (0/1)"),
    ], ids=["n = 0", "n = 1.5", "n = -1", "n = inf", "n length", "y > n", "y < 0",
            "y not integer"])
    @pytest.mark.parametrize("fn", [fit_logistic, univariate_screen],
                             ids=["fit", "screen"])
    def test_malformed_trials_rejected(self, fn, y, n, message):
        # y counts the 1s among n binary outcomes per row
        with pytest.raises(InputError) as exc:
            fn(np.r_[1.0, 1.0, 0.0, 0.0][:, None], y, n=n)
        assert str(exc.value) == message

    def test_step_halving_recovers_from_an_overshoot(self, monkeypatch):
        # No design found reaches step-halving on its own, so the first Newton step is
        # made 8 times too long; halving must bring the fit back to the same optimum.
        X, y = model_design(3000, seed=2)
        solve, ll, evaluations, solves = logit._solve, logit.log_likelihood, [], []
        monkeypatch.setattr(logit, "log_likelihood",
                            lambda *args: evaluations.append(None) or ll(*args))
        reference = fit_logistic(X, y)
        # one evaluation at the start and one per accepted step: no halving
        assert len(evaluations) == 1 + reference.iterations
        evaluations.clear()
        monkeypatch.setattr(logit, "_solve", lambda info, rhs: solves.append(None)
                            or solve(info, rhs) * (8.0 if len(solves) == 1 else 1.0))
        m = fit_logistic(X, y)
        assert len(evaluations) > 1 + m.iterations
        np.testing.assert_allclose(m.coefficients, reference.coefficients, rtol=0, atol=1e-12)

    def test_no_convergence_within_max_iter(self, monkeypatch):
        monkeypatch.setattr(logit, "MAX_ITER", 1)
        X, y = model_design(3000, seed=2)
        with pytest.raises(SeparationError, match="no convergence in 1 iterations") as exc:
            fit_logistic(X, y)
        assert len(exc.value.variables) == 3

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


@pytest.fixture(scope="module")
def design_100k(pretrained, grouping):
    """Bits and labels of a 100k synthetic corpus."""
    corpus = synthetic_corpus(pretrained, grouping, n=100_000, seed=12)
    X = np.array([extract_features(r, grouping).bits for r in corpus.records],
                 dtype=float)
    return X, np.array([r.gamification_label for r in corpus.records], dtype=float)


class TestCollapsedFit:
    """The fit and the screen take y events in n trials per row and run over distinct rows;
    the per-record (n = 1) calls and functions are their oracle."""

    def test_grouped_rows_equal_their_records(self):
        # Repeated rows, and rows with 0 < y < n; expanded, a row is n records, y of them 1.
        rng = np.random.default_rng(15)
        X = (rng.random((40, 3)) < 0.5).astype(float)
        X[25:] = X[:15]
        n = rng.integers(1, 30, size=40)
        y = rng.binomial(n, 0.35)
        assert ((0 < y) & (y < n)).sum() > 20
        order = rng.permutation(n.sum())
        X_rec = np.repeat(X, n, axis=0)[order]
        y_rec = np.concatenate([np.r_[np.ones(k), np.zeros(t - k)] for k, t in zip(y, n)])[order]
        names = ("a", "b", "c")
        grouped = fit_logistic(X, y, names=names, n=n)
        per_record = fit_logistic(X_rec, y_rec, names=names)
        for field in ("coefficients", "covariance", "standard_errors"):
            np.testing.assert_array_equal(getattr(grouped, field), getattr(per_record, field))
        for field in ("log_likelihood", "aic", "n_obs", "iterations"):
            assert getattr(grouped, field) == getattr(per_record, field)
        assert grouped.n_obs == len(y_rec)
        screen = univariate_screen(X, y, names=names, n=n)
        assert [u.error for u in screen] == [None] * 3
        assert screen == univariate_screen(X_rec, y_rec, names=names)

    def test_2x2_counts_of_1e8_records(self):
        # Four grouped rows stand for 10^8 records, more than a per-record design could hold.
        a, b, c, d = 31_000_000, 19_000_000, 22_000_000, 28_000_000
        X = np.array([[1.0], [1.0], [0.0], [0.0]])
        y, n = np.array([a, 0, c, 0]), np.array([a, b, c, d])
        log_or = math.log(a * d / (b * c))
        se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        m = fit_logistic(X, y, names=("f",), n=n)
        assert m.n_obs == a + b + c + d == 10**8
        assert abs(m.coefficients[1] - log_or) < 1e-9
        assert abs(m.standard_errors[1] - se) < 1e-9
        u = univariate_screen(X, y, names=("f",), n=n)[0]
        assert abs(math.log(u.odds_ratio) - log_or) < 1e-9
        assert abs((math.log(u.ci_high) - math.log(u.ci_low)) / (2 * 1.96) - se) < 1e-9

    def test_counts_equal_per_record_sums(self):
        rng = np.random.default_rng(14)
        X = np.column_stack([np.ones(5000), (rng.random((5000, 4)) < 0.3).astype(float)])
        y = (rng.random(5000) < 0.4).astype(float)
        beta = rng.normal(scale=0.8, size=5)
        rows, inverse, n = np.unique(X, axis=0, return_inverse=True, return_counts=True)
        events = np.bincount(inverse, weights=y)
        assert len(rows) < 40
        assert log_likelihood(beta, rows, events, n) == pytest.approx(
            log_likelihood(beta, X, y), rel=1e-12, abs=0)
        np.testing.assert_allclose(gradient(beta, rows, events, n), gradient(beta, X, y),
                                   rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(hessian(beta, rows, events, n), hessian(beta, X, y),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("design", ["model_design 3k", "synthetic_corpus 100k"])
    def test_per_record_functions_at_fitted_beta(self, request, design):
        if design == "model_design 3k":
            X, y = model_design(3000, seed=2)
        else:
            X, y = request.getfixturevalue("design_100k")
        m = fit_logistic(X, y)
        Xd = np.column_stack([np.ones(len(y)), X])
        info = -hessian(m.coefficients, Xd, y)
        step = np.linalg.solve(info, gradient(m.coefficients, Xd, y))
        assert np.abs(step).max() < 1e-9
        cov = np.linalg.inv(info)
        assert np.abs(cov - m.covariance).max() <= 1e-12 * np.abs(m.covariance).max()
        assert log_likelihood(m.coefficients, Xd, y) == pytest.approx(
            m.log_likelihood, rel=1e-12, abs=0)
        assert m.n_obs == len(y)


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
            a, b, c, d = cells
            z = abs(math.log(u.odds_ratio)) / math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
            assert u.p_value == 2.0 * norm.sf(z)
            assert (m.p_values() == 2.0 * norm.sf(np.abs(m.z_values()))).all()

    def test_fewer_rows_than_columns(self):
        # Each column's fit needs only its 2x2 table; the joint fit needs n >= p + 1.
        rng = np.random.default_rng(8)
        X = (rng.random((8, 14)) < 0.5).astype(float)
        y = np.r_[np.ones(4), np.zeros(4)]
        res = univariate_screen(X, y)
        assert [u.variable for u in res] == [f"x{j}" for j in range(14)]
        fitted = 0
        for x, u in zip(X.T.tolist(), res):
            a = sum(xi * yi for xi, yi in zip(x, y))
            b, c, d = sum(x) - a, 4 - a, 4 - sum(x) + a
            if min(a, b, c, d) > 0:
                assert u.odds_ratio == a * d / (b * c)
                fitted += 1
            else:
                assert u.error is not None and u.odds_ratio is None
        assert fitted > 0
        with pytest.raises(TooFewRecordsError,
                           match="need at least 15 observations for 14 features, got 8"):
            fit_logistic(X, y)

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

    def test_large_well_posed_screen_has_no_errors(self, design_100k, grouping):
        X, y = design_100k
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


# Every 14-bit pattern, one per row.
ALL_PATTERNS = ((np.arange(1 << 14)[:, None] >> np.arange(14)) & 1).astype(np.uint8)


class TestProbabilities:
    """One formula: a row's probability depends on its bits alone, whatever the matrix layout."""

    def test_every_pattern_equals_its_one_row_value(self, pretrained):
        p = probabilities(pretrained, ALL_PATTERNS)
        assert p.tolist() == [predict(pretrained, row) for row in ALL_PATTERNS]
        assert p.tolist() == [probabilities(pretrained, ALL_PATTERNS[i:i + 1])[0]
                              for i in range(len(ALL_PATTERNS))]

    def test_row_order_and_layout_do_not_matter(self, pretrained):
        p = probabilities(pretrained, ALL_PATTERNS)
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(ALL_PATTERNS))
        assert probabilities(pretrained, ALL_PATTERNS[perm]).tolist() == p[perm].tolist()
        fortran = np.asfortranarray(ALL_PATTERNS)
        assert probabilities(pretrained, fortran).tolist() == p.tolist()
        # a column selection of a wider matrix, as `run_study` makes, is Fortran-ordered
        cols = rng.permutation(20)[:14]
        wide = (rng.random((len(ALL_PATTERNS), 20)) < 0.5).astype(np.uint8)
        wide[:, cols] = ALL_PATTERNS
        selected = wide[:, cols]
        assert not selected.flags.c_contiguous
        assert probabilities(pretrained, selected).tolist() == p.tolist()

    def test_within_rounding_of_the_dot_product(self, pretrained):
        b0, beta = pretrained.intercept, pretrained.coefficients[1:]
        dot = np.array([expit(b0 + float(np.dot(beta, bits))) for bits in ALL_PATTERNS])
        assert np.abs(probabilities(pretrained, ALL_PATTERNS) - dot).max() <= 4.5e-16

    def test_bit_identical_to_scipy_expit(self, pretrained):
        oracle = expit(pretrained.intercept + contributions(pretrained, ALL_PATTERNS).sum(axis=1))
        assert np.array_equal(probabilities(pretrained, ALL_PATTERNS), oracle)
        # a fitted 3-variable model scoring a Fortran-ordered column selection
        rng = np.random.default_rng(9)
        X = (rng.random((600, 6)) < 0.4).astype(float)
        cols = [4, 1, 2]
        y = (rng.random(600) < expit(-0.5 + X[:, cols] @ [1.2, -0.7, 0.4])).astype(float)
        fitted = fit_logistic(X[:, cols], y)
        selected = X[:, cols]
        assert not selected.flags.c_contiguous
        oracle = expit(fitted.intercept + contributions(fitted, selected).sum(axis=1))
        assert np.array_equal(probabilities(fitted, selected), oracle)

    def test_contributions_are_c_ordered_terms(self, pretrained):
        terms = contributions(pretrained, np.asfortranarray(ALL_PATTERNS))
        assert terms.flags.c_contiguous and terms.dtype == float
        assert (terms == np.where(ALL_PATTERNS == 1, pretrained.coefficients[1:], 0.0)).all()

    def test_non_binary_rows_rejected(self, pretrained):
        with pytest.raises(InputError, match="0 or 1"):
            predict(pretrained, [2] * 14)
        rows = np.zeros((3, 14))
        rows[1, 4] = 2
        with pytest.raises(InputError, match="0 or 1"):
            probabilities(pretrained, rows)


class TestExpit:
    """The package's `expit` is `scipy.special.expit` bit for bit: scoring bytes do not change."""

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(22)
        sub, tiny = np.finfo(float).smallest_subnormal, np.finfo(float).tiny
        x = np.concatenate([
            rng.normal(0.0, 10.0, 100_000),
            rng.uniform(-750.0, 750.0, 100_000),
            np.linspace(-745.2, -709.0, 100_001),  # where exp(-x) overflows
            [np.inf, -np.inf, np.nan, 0.0, -0.0, sub, -sub, tiny, -tiny, tiny / 3, -tiny / 3],
        ])
        assert np.array_equal(logit.expit(x), expit(x), equal_nan=True)

    @pytest.mark.parametrize("x", [
        np.array(-800.0),
        np.array([0.5, -0.0, np.nan, np.inf]),
        np.array([[1.0, -2.0, 3.0], [-745.0, 710.0, -710.0]]),
        [3, -1, 0],
    ], ids=["0-d", "1-d", "2-d", "list"])
    def test_float64_of_the_input_shape(self, x):
        out = logit.expit(x)
        assert out.dtype == np.float64 and out.shape == np.shape(x)
        assert np.array_equal(out, expit(np.asarray(x, dtype=float)), equal_nan=True)


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
        grouping = VariableGrouping((("alpha", frozenset({"play"})), ("beta", frozenset({"quiz"}))))
        m = replace(m, grouping=grouping, seed=5)
        m2 = model_from_dict(model_to_dict(m))
        np.testing.assert_allclose(m2.coefficients, m.coefficients)
        np.testing.assert_allclose(m2.standard_errors, m.standard_errors)
        assert m2.aic == pytest.approx(m.aic)
        assert m2.grouping == grouping and m2.seed == 5

    def test_training_block_follows_the_seed(self):
        m = pretrained_model()
        assert m.seed is None and m.grouping is pretrained_grouping()
        assert model_to_dict(m)["training"]["generator"] is None
        training = model_to_dict(replace(m, seed=7))["training"]
        assert (training["seed"], training["generator"]) == (7, SPLIT_GENERATOR)

    def test_grouping_must_name_the_features(self):
        grouping = VariableGrouping((("beta", frozenset({"quiz"})), ("alpha", frozenset({"play"}))))
        with pytest.raises(InputError, match="do not match"):
            FittedModel(variable_names=("constant", "alpha", "beta"),
                        coefficients=np.zeros(3), standard_errors=np.zeros(3), grouping=grouping)

    def test_derived_quantities_consistent(self):
        m = pretrained_model()
        np.testing.assert_allclose(m.odds_ratios(), np.exp(m.coefficients))
        ci = m.conf_int()
        np.testing.assert_allclose(ci[:, 1] - ci[:, 0], 2 * 1.96 * m.standard_errors)
