"""Binary logistic regression by Newton-Raphson maximum likelihood.

Covers the closed-form univariate screen, multivariate fitting with Wald
inference, prediction, JSON (de)serialization of fitted models, and the
bundled pre-trained screening model.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import (
    ArityMismatchError,
    DegenerateColumnError,
    InputError,
    SeparationError,
    SingularMatrixError,
    TooFewRecordsError,
    read_json,
    require_fields,
)
from .evaluation import Z95
from .textfeatures import VariableGrouping

INTERCEPT_NAME = "constant"
SPLIT_GENERATOR = "python-random-mt19937/fisher-yates"


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
    ``grouping`` holds the keywords of ``feature_names``, so the model can
    score raw text, and ``seed`` is the seed of the split it was fitted on;
    a model fitted from a bare 0/1 matrix has neither. ``n_labeled`` and
    ``labeled_ids_sha256`` pin the labeled records that split was cut from
    (see `pipeline.evaluate`); None when the file does not carry them.
    """

    variable_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    covariance: np.ndarray | None = None
    log_likelihood: float | None = None
    aic: float | None = None
    n_obs: int | None = None
    iterations: int = 0
    grouping: VariableGrouping | None = None
    seed: int | None = None
    n_labeled: int | None = None
    labeled_ids_sha256: str | None = None

    def __post_init__(self):
        if self.grouping is not None and self.grouping.names != self.feature_names:
            raise InputError("grouping variables do not match the model's variables")

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
        return _two_sided_p(self.z_values())


def _two_sided_p(z):
    """Two-sided normal p-value ``2 * ndtr(-|z|)``.

    scipy is imported here, so only a caller that asks for p-values (``train``) loads it.
    """
    from scipy.special import ndtr
    return 2.0 * ndtr(-np.abs(z))


def _expit_one(v: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def expit(x) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` per element, as a float array of x's shape.

    This is the formula of ``scipy.special.expit``, over the same C library ``exp``, so the
    two agree bit for bit. Each element is one Python call (about 0.15 µs); callers pass
    one value per distinct pattern.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_expit_one, x.ravel().tolist()), float, x.size).reshape(x.shape)


def log_likelihood(beta, X, y, n=1) -> float:
    """Log-likelihood at `beta` of y events in n trials (default 1) per row of X, with intercept."""
    eta = X @ beta
    return float(y @ eta - (n * np.logaddexp(0.0, eta)).sum())


def gradient(beta, X, y, n=1) -> np.ndarray:
    return X.T @ (y - n * expit(X @ beta))


def hessian(beta, X, y, n=1) -> np.ndarray:
    p = expit(X @ beta)
    w = n * p * (1.0 - p)
    return -(X * w[:, None]).T @ X


def _check_design(X, y, names, n):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise InputError("feature matrix must be 2-dimensional")
    m, p = X.shape
    if y.shape != (m,):
        raise InputError(f"outcome length {y.shape} does not match {m} rows")
    n = np.full(m, n, dtype=float) if np.ndim(n) == 0 else np.asarray(n, dtype=float)
    if n.shape != (m,) or not (np.isfinite(n) & (n >= 1) & (np.floor(n) == n)).all():
        raise InputError(f"trials must be one positive integer or {m} of them")
    # Each of a row's n outcomes is 0 or 1, and y counts its 1s.
    if not np.isin(X, (0.0, 1.0)).all() or not ((0 <= y) & (y <= n) & (np.floor(y) == y)).all():
        raise InputError("design matrix and outcome must be binary (0/1)")
    names = tuple(f"x{j}" for j in range(p)) if names is None else tuple(names)
    if len(names) != p:
        raise InputError(f"{len(names)} names for {p} columns")
    return X, y, names, n


def fit_logistic(X, y, names=None, n=1) -> FittedModel:
    """Maximize the likelihood of y events in n trials per row by Newton-Raphson with step-halving.

    Iteration stops after applying a Newton step ``I⁻¹g`` whose largest
    component is below ``STEP_TOL``. Unlike the gradient, which is a sum
    over rows, that step does not grow with n: replicating the data leaves
    it unchanged.

    Parameters
    ----------
    X : (m, p) array of 0/1 feature indicators, without intercept column
    y : (m,) array of events, the 1-outcomes among each row's trials
    names : optional feature names, used in diagnostics and the result
    n : (m,) positive integer trials per row, or one for every row (1: a row is a record).
        Rows with equal bits are merged, so pattern counts and their records fit the same.

    Raises
    ------
    TooFewRecordsError
        for fewer than p + 1 observations (trials).
    DegenerateColumnError
        for a feature that is 0 in every trial or 1 in every trial.
    SeparationError
        when any |beta| exceeds ``BETA_LIMIT`` during iteration or the
        Newton step is still large after ``MAX_ITER`` iterations.
    SingularMatrixError
        when the observed information matrix cannot be inverted.
    """
    X, y, names, n = _check_design(X, y, names, n)
    p = X.shape[1]
    n_obs = int(n.sum())
    if n_obs < p + 1:
        raise TooFewRecordsError(f"need at least {p + 1} observations for {p} features, got {n_obs}")

    col_sums = n @ X
    for j in range(p):
        if col_sums[j] == 0 or col_sums[j] == n_obs:
            raise DegenerateColumnError(names[j])

    # A trial enters the likelihood only through its 0/1 row, so the fit runs over the
    # distinct rows, ascending as void keys (the intercept makes each at least 1 byte).
    bits = np.ascontiguousarray(np.column_stack([np.ones(len(y)), X]), dtype=np.uint8)
    rows, key = np.unique(bits.view(np.dtype((np.void, p + 1))).ravel(), return_inverse=True)
    trials, events = np.bincount(key, n), np.bincount(key, y)
    Xd = rows.view(np.uint8).reshape(-1, p + 1).astype(float)
    all_names = (INTERCEPT_NAME,) + names

    beta = np.zeros(p + 1)
    ll = log_likelihood(beta, Xd, events, trials)
    for iterations in range(1, MAX_ITER + 1):
        step = _solve(-hessian(beta, Xd, events, trials), gradient(beta, Xd, events, trials))

        # Step-halving: accept no decrease beyond the rounding error of the
        # likelihood sum over distinct rows. Terminates: as the scale
        # shrinks the candidate's likelihood tends to ll.
        scale = 1.0
        cand_ll = log_likelihood(beta + step, Xd, events, trials)
        while cand_ll < ll - LL_RTOL * abs(ll):
            scale *= 0.5
            cand_ll = log_likelihood(beta + scale * step, Xd, events, trials)
        beta, ll = beta + scale * step, cand_ll

        if np.abs(beta).max() > BETA_LIMIT:
            runaway = tuple(all_names[j] for j in range(p + 1) if abs(beta[j]) > BETA_LIMIT)
            raise SeparationError(runaway, detail=f"|beta| > {BETA_LIMIT} at iteration {iterations}")
        if np.abs(step).max() < STEP_TOL:
            break
    else:
        worst = tuple(np.asarray(all_names)[np.argsort(-np.abs(beta))][:3])
        raise SeparationError(worst, detail=f"no convergence in {MAX_ITER} iterations")

    cov = _solve(-hessian(beta, Xd, events, trials), np.eye(p + 1))
    return FittedModel(
        variable_names=all_names,
        coefficients=beta,
        standard_errors=np.sqrt(np.diag(cov)),
        covariance=cov,
        log_likelihood=ll,
        aic=2.0 * (p + 1) - 2.0 * ll,
        n_obs=n_obs,
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
    variable: str
    odds_ratio: float | None
    ci_low: float | None
    ci_high: float | None
    p_value: float | None
    error: str | None = None


def univariate_screen(X, y, names=None, n=1) -> list[UnivariateResult]:
    """Single-predictor (plus intercept) logistic fit per feature column of y events in n trials.

    For one binary predictor the MLE is closed-form: with the 2x2 counts
    a (x=1, y=1), b (x=1, y=0), c (x=0, y=1) and d (x=0, y=0), the slope
    is log(ad/bc) with Wald SE sqrt(1/a + 1/b + 1/c + 1/d) (Agresti,
    *Categorical Data Analysis*, §2.4). A constant column or an empty
    cell (no finite MLE) is recorded in ``error`` instead of aborting the
    screen. `y` and `n` are read as in `fit_logistic`; the cells are exact integer sums.
    """
    X, y, names, n = _check_design(X, y, names, n)
    a = y @ X
    b = n @ X - a
    c = y.sum() - a
    d = n.sum() - a - b - c
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
                variable=name,
                odds_ratio=odds_ratio,
                ci_low=math.exp(log_or - Z95 * se),
                ci_high=math.exp(log_or + Z95 * se),
                p_value=float(_two_sided_p(log_or / se)),
            ))
    return results


def contributions(model: FittedModel, X) -> np.ndarray:
    """C-ordered log-odds terms per row of the 0/1 matrix `X`: each bit's coefficient, or 0.0."""
    X = np.asarray(X, order="C")
    if X.shape[1] != len(model.feature_names):
        raise ArityMismatchError(len(model.feature_names), X.shape[1])
    on = X == 1
    if not (on | (X == 0)).all():
        raise InputError("feature bits must be 0 or 1")
    return np.where(on, model.coefficients[1:], 0.0)


def probabilities(model: FittedModel, X) -> np.ndarray:
    """Probability of gamification presence per row of the 0/1 matrix `X`."""
    # Each C-ordered row of terms is summed by itself, so a probability depends on its bits
    # alone. The C order is load-bearing: a column selection `X[:, cols]` is Fortran-ordered,
    # and summing that layout as it comes changes the last bit of some rows.
    return expit(model.intercept + contributions(model, X).sum(axis=1))


def predict(model: FittedModel, bits) -> float:
    """Probability of gamification presence for one row of bits."""
    return float(probabilities(model, [bits])[0])


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

FORMAT_VERSION = 1


def model_to_dict(model: FittedModel) -> dict:
    """Serialize a model to the interchange dict.

    Each variable's keywords come from ``model.grouping`` (an empty list
    without one), which makes the file self-contained for scoring.
    """
    ci = model.conf_int()
    pvals = model.p_values()
    ors = model.odds_ratios()
    variables = []
    for i, name in enumerate(model.variable_names):
        if i == 0:
            continue
        variables.append({
            "name": name,
            "keywords": sorted(model.grouping.members(name)) if model.grouping else [],
            "coefficient": float(model.coefficients[i]),
            "standard_error": float(model.standard_errors[i]),
            "odds_ratio": float(ors[i]),
            "ci_low": float(ci[i, 0]),
            "ci_high": float(ci[i, 1]),
            "p_value": float(pvals[i]),
        })
    return {
        "format_version": FORMAT_VERSION,
        "intercept": model.intercept,
        "intercept_standard_error": float(model.standard_errors[0]),
        "variables": variables,
        "training": {
            "n_obs": model.n_obs,
            "log_likelihood": model.log_likelihood,
            "aic": model.aic,
            "seed": model.seed,
            "timestamp": None,
            "generator": None if model.seed is None else SPLIT_GENERATOR,
            "n_labeled": model.n_labeled,
            "labeled_ids_sha256": model.labeled_ids_sha256,
        },
    }


def model_from_dict(doc: dict) -> FittedModel:
    """Inverse of :func:`model_to_dict`.

    The model gets a grouping when every variable carries keywords, and
    ``training.seed`` as its seed, which must be an integer or null. The other
    ``training`` numbers may be null or absent; present, the counts are
    integers >= 0, the likelihood and AIC numbers, and the digest 64 lowercase
    hex digits.
    """
    if require_fields(doc, "model file").get("format_version") != FORMAT_VERSION:
        raise InputError(f"unsupported model format_version: {doc.get('format_version')!r}")
    variables = require_fields(doc, "model file", intercept=(int, float), variables=list)["variables"]
    for v in variables:
        require_fields(v, "model variable", name=str, coefficient=(int, float),
                       standard_error=(int, float))
    if "intercept_standard_error" in doc:  # absent, it reads as NaN
        require_fields(doc, "model file", intercept_standard_error=(int, float))
    names = (INTERCEPT_NAME,) + tuple(v["name"] for v in variables)
    coefficients = [doc["intercept"]] + [v["coefficient"] for v in variables]
    # JSON's NaN and Infinity would score as NaN.
    if not all(abs(c) <= sys.float_info.max for c in coefficients):
        raise InputError("model coefficients must be finite numbers")
    coefficients = np.array(coefficients, dtype=float)
    se = np.array([doc.get("intercept_standard_error", float("nan"))]
                  + [v["standard_error"] for v in variables])
    training = require_fields(doc.get("training") or {}, "model training block")
    seed = training.get("seed")
    # `Random("7")` and `Random(7.5)` would give some other split without complaint.
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise InputError(f"model training seed must be an integer or null, got {seed!r}")
    for name, kind in (("n_obs", int), ("n_labeled", int), ("log_likelihood", (int, float)),
                       ("aic", (int, float)), ("labeled_ids_sha256", str)):
        value = training.get(name)
        if value is not None:
            require_fields(training, "model training block", **{name: kind})
            if (kind is int and value < 0
                    or kind is str and (len(value) != 64 or value.strip("0123456789abcdef"))):
                raise InputError(f"model training block lacks a valid {name!r}")
    grouping = None
    if all(v.get("keywords") for v in variables):
        grouping = VariableGrouping.from_json(variables, "model variable")
    return FittedModel(
        variable_names=names,
        coefficients=coefficients,
        standard_errors=se,
        covariance=None,
        log_likelihood=training.get("log_likelihood"),
        aic=training.get("aic"),
        n_obs=training.get("n_obs"),
        iterations=0,
        grouping=grouping,
        seed=seed,
        n_labeled=training.get("n_labeled"),
        labeled_ids_sha256=training.get("labeled_ids_sha256"),
    )


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> FittedModel:
    return model_from_dict(read_json(path, "model file"))


@lru_cache(maxsize=1)
def pretrained_model() -> FittedModel:
    """The bundled 14-variable screening model (frozen coefficients), with its grouping."""
    text = resources.files("gamiscreen.data").joinpath("pretrained_model.json").read_text(encoding="utf-8")
    return model_from_dict(json.loads(text))


def pretrained_grouping() -> VariableGrouping:
    """Variable grouping of :func:`pretrained_model`."""
    return pretrained_model().grouping
