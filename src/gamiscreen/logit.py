"""Binary logistic regression by Newton-Raphson maximum likelihood.

Covers the closed-form univariate screen, multivariate fitting with Wald
inference, prediction, JSON (de)serialization of fitted models, and the
bundled pre-trained screening model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from .errors import (
    ArityMismatchError,
    DegenerateColumnError,
    InputError,
    SeparationError,
    SingularMatrixError,
    TooFewRecordsError,
)
from .evaluation import Z95
from .textfeatures import FeatureVector, VariableGrouping

INTERCEPT_NAME = "constant"


MAX_ITER = 50
BETA_LIMIT = 15.0   # |beta| beyond this signals separation
STEP_TOL = 1e-10    # largest Newton-step component at convergence
LL_RTOL = 1e-12     # relative likelihood decrease step-halving treats as rounding


@dataclass(frozen=True)
class FittedModel:
    """Coefficients and Wald inference for one logistic model.

    ``variable_names`` starts with the intercept. ``covariance``,
    ``log_likelihood`` and ``aic`` are None for models loaded from files
    that do not carry them (e.g. the bundled pre-trained model).
    """

    variable_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance: np.ndarray | None = None
    log_likelihood: float | None = None
    aic: float | None = None
    n_obs: int | None = None
    iterations: int = 0
    training: dict = field(default_factory=dict)

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.variable_names[1:]

    def odds_ratios(self) -> np.ndarray:
        return np.exp(self.coefficients)

    def conf_int(self) -> np.ndarray:
        """95% Wald interval per coefficient, on the log-odds scale."""
        half = Z95 * self.standard_errors
        return np.column_stack([self.coefficients - half, self.coefficients + half])

    def z_values(self) -> np.ndarray:
        return self.coefficients / self.standard_errors

    def p_values(self) -> np.ndarray:
        return 2.0 * norm.sf(np.abs(self.z_values()))


def log_likelihood(beta, X, y) -> float:
    """Bernoulli log-likelihood at `beta`; X includes the intercept column."""
    eta = X @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def gradient(beta, X, y) -> np.ndarray:
    return X.T @ (y - expit(X @ beta))


def hessian(beta, X, y) -> np.ndarray:
    p = expit(X @ beta)
    w = p * (1.0 - p)
    return -(X * w[:, None]).T @ X


def _check_design(X, y, names):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InputError("feature matrix must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise InputError(f"outcome length {y.shape} does not match {n} rows")
    if not np.isin(X, (0.0, 1.0)).all() or not np.isin(y, (0.0, 1.0)).all():
        raise InputError("design matrix and outcome must be binary (0/1)")
    if names is None:
        names = tuple(f"x{j}" for j in range(p))
    names = tuple(names)
    if len(names) != p:
        raise InputError(f"{len(names)} names for {p} columns")
    if n < p + 1:
        raise TooFewRecordsError(f"need at least {p + 1} observations for {p} features, got {n}")
    return X, y, names


def fit_logistic(X, y, names=None) -> FittedModel:
    """Maximize the Bernoulli likelihood by Newton-Raphson with step-halving.

    Iteration stops after applying a Newton step ``I⁻¹g`` whose largest
    component is below ``STEP_TOL``. Unlike the gradient, which is a sum
    over rows, that step does not grow with n: replicating the data leaves
    it unchanged.

    Parameters
    ----------
    X : (n, p) array of 0/1 feature indicators, without intercept column
    y : (n,) array of 0/1 outcomes
    names : optional feature names, used in diagnostics and the result

    Raises
    ------
    DegenerateColumnError
        for a constant-zero or constant-one feature column.
    SeparationError
        when any |beta| exceeds ``BETA_LIMIT`` during iteration or the
        Newton step is still large after ``MAX_ITER`` iterations.
    SingularMatrixError
        when the observed information matrix cannot be inverted.
    """
    X, y, names = _check_design(X, y, names)
    n, p = X.shape

    col_sums = X.sum(axis=0)
    for j in range(p):
        if col_sums[j] == 0 or col_sums[j] == n:
            raise DegenerateColumnError(names[j])

    Xd = np.column_stack([np.ones(n), X])
    all_names = (INTERCEPT_NAME,) + names

    beta = np.zeros(p + 1)
    ll = log_likelihood(beta, Xd, y)
    for iterations in range(1, MAX_ITER + 1):
        step = _solve(-hessian(beta, Xd, y), gradient(beta, Xd, y))

        # Step-halving: accept no decrease beyond the rounding error of the
        # n-term likelihood sum. Terminates: as the scale shrinks the
        # candidate's likelihood tends to ll.
        scale = 1.0
        cand_ll = log_likelihood(beta + step, Xd, y)
        while cand_ll < ll - LL_RTOL * abs(ll):
            scale *= 0.5
            cand_ll = log_likelihood(beta + scale * step, Xd, y)
        beta, ll = beta + scale * step, cand_ll

        if np.abs(beta).max() > BETA_LIMIT:
            runaway = tuple(all_names[j] for j in range(p + 1) if abs(beta[j]) > BETA_LIMIT)
            raise SeparationError(runaway, detail=f"|beta| > {BETA_LIMIT} at iteration {iterations}")
        if np.abs(step).max() < STEP_TOL:
            break
    else:
        worst = tuple(np.asarray(all_names)[np.argsort(-np.abs(beta))][:3])
        raise SeparationError(worst, detail=f"no convergence in {MAX_ITER} iterations")

    cov = _solve(-hessian(beta, Xd, y), np.eye(p + 1))
    k = p + 1
    return FittedModel(
        variable_names=all_names,
        coefficients=beta,
        standard_errors=np.sqrt(np.diag(cov)),
        covariance=cov,
        log_likelihood=ll,
        aic=2.0 * k - 2.0 * ll,
        n_obs=n,
        iterations=iterations,
    )


def _solve(info, rhs) -> np.ndarray:
    try:
        out = np.linalg.solve(info, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError() from exc
    if not np.isfinite(out).all():
        raise SingularMatrixError()
    return out


@dataclass(frozen=True)
class UnivariateResult:
    variable_name: str
    odds_ratio: float | None
    ci_low: float | None
    ci_high: float | None
    p_value: float | None
    error: str | None = None


def univariate_screen(X, y, names=None) -> list[UnivariateResult]:
    """Single-predictor (plus intercept) logistic fit per feature column.

    For one binary predictor the MLE is closed-form: with the 2x2 counts
    a (x=1, y=1), b (x=1, y=0), c (x=0, y=1) and d (x=0, y=0), the slope
    is log(ad/bc) with Wald SE sqrt(1/a + 1/b + 1/c + 1/d) (Agresti,
    *Categorical Data Analysis*, §2.4). A constant column or an empty
    cell (no finite MLE) is recorded in ``error`` instead of aborting the
    screen.
    """
    X, y, names = _check_design(X, y, names)
    a = y @ X
    b = X.sum(axis=0) - a
    c = y.sum() - a
    d = len(y) - a - b - c
    results = []
    for name, a_j, b_j, c_j, d_j in zip(names, a, b, c, d):
        if a_j + b_j == 0 or c_j + d_j == 0:
            error = str(DegenerateColumnError(name))
            results.append(UnivariateResult(name, None, None, None, None, error=error))
        elif min(a_j, b_j, c_j, d_j) == 0:
            error = str(SeparationError((name,), detail="empty cell in its 2x2 table"))
            results.append(UnivariateResult(name, None, None, None, None, error=error))
        else:
            odds_ratio = float(a_j * d_j / (b_j * c_j))
            log_or = math.log(odds_ratio)
            se = math.sqrt(1 / a_j + 1 / b_j + 1 / c_j + 1 / d_j)
            results.append(UnivariateResult(
                variable_name=name,
                odds_ratio=odds_ratio,
                ci_low=math.exp(log_or - Z95 * se),
                ci_high=math.exp(log_or + Z95 * se),
                p_value=float(2.0 * norm.sf(abs(log_or) / se)),
            ))
    return results


def predict(model: FittedModel, fv) -> float:
    """Probability of gamification presence for one feature vector."""
    bits = fv.bits if isinstance(fv, FeatureVector) else tuple(fv)
    p = len(model.coefficients) - 1
    if len(bits) != p:
        raise ArityMismatchError(p, len(bits))
    score = model.intercept + float(np.dot(model.coefficients[1:], bits))
    return float(expit(score))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def model_to_dict(model: FittedModel, keyword_map: dict[str, list[str]] | None = None,
                  training: dict | None = None) -> dict:
    """Serialize a model to the interchange dict.

    ``keyword_map`` supplies the member keywords per variable so the file
    is self-contained for scoring; omitted variables get an empty list.
    """
    keyword_map = keyword_map or {}
    ci = model.conf_int()
    pvals = model.p_values()
    ors = model.odds_ratios()
    variables = []
    for i, name in enumerate(model.variable_names):
        if i == 0:
            continue
        variables.append({
            "name": name,
            "keywords": sorted(keyword_map.get(name, [])),
            "coefficient": float(model.coefficients[i]),
            "standard_error": float(model.standard_errors[i]),
            "odds_ratio": float(ors[i]),
            "ci_low": float(ci[i, 0]),
            "ci_high": float(ci[i, 1]),
            "p_value": float(pvals[i]),
        })
    training_out = {
        "n_obs": model.n_obs,
        "log_likelihood": model.log_likelihood,
        "aic": model.aic,
        "seed": None,
        "timestamp": None,
        "generator": None,
    }
    if training:
        training_out.update(training)
    return {
        "format_version": FORMAT_VERSION,
        "intercept": model.intercept,
        "intercept_standard_error": float(model.standard_errors[0]),
        "variables": variables,
        "training": training_out,
    }


def model_from_dict(doc: dict) -> tuple[FittedModel, VariableGrouping | None]:
    """Inverse of :func:`model_to_dict`.

    Returns the model plus, when every variable carries keywords, the
    grouping needed to score raw text against it.
    """
    if doc.get("format_version") != FORMAT_VERSION:
        raise InputError(f"unsupported model format_version: {doc.get('format_version')!r}")
    variables = doc["variables"]
    names = (INTERCEPT_NAME,) + tuple(v["name"] for v in variables)
    coefficients = np.array([doc["intercept"]] + [v["coefficient"] for v in variables])
    se = np.array([doc.get("intercept_standard_error", float("nan"))]
                  + [v["standard_error"] for v in variables])
    training = doc.get("training", {}) or {}
    model = FittedModel(
        variable_names=names,
        coefficients=coefficients,
        standard_errors=se,
        covariance=None,
        log_likelihood=training.get("log_likelihood"),
        aic=training.get("aic"),
        n_obs=training.get("n_obs"),
        iterations=0,
        training=dict(training),
    )
    grouping = None
    if all(v.get("keywords") for v in variables):
        grouping = VariableGrouping(
            variables=tuple((v["name"], frozenset(v["keywords"])) for v in variables)
        )
    return model, grouping


def save_model(model: FittedModel, path, keyword_map=None, training=None) -> None:
    doc = model_to_dict(model, keyword_map=keyword_map, training=training)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[FittedModel, VariableGrouping | None]:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


@lru_cache(maxsize=1)
def _pretrained() -> tuple[FittedModel, VariableGrouping]:
    text = resources.files("gamiscreen.data").joinpath("pretrained_model.json").read_text(encoding="utf-8")
    model, grouping = model_from_dict(json.loads(text))
    assert grouping is not None
    return model, grouping


def pretrained_model() -> FittedModel:
    """The bundled 14-variable screening model (frozen coefficients)."""
    return _pretrained()[0]


def pretrained_grouping() -> VariableGrouping:
    """Variable grouping matching :func:`pretrained_model`."""
    return _pretrained()[1]
