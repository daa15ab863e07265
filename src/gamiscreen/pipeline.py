"""Dataset ingestion, seeded splitting, the end-to-end study driver and scoring.

Every random draw in a study flows from one 64-bit seed through a named
generator (Python's Mersenne Twister with Fisher-Yates shuffling), so
identical inputs and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from random import Random

import numpy as np
from scipy.special import expit

from . import logit
from .errors import (
    DuplicateIdError,
    InputError,
    ParseError,
    StatisticalError,
    TooFewRecordsError,
    UnknownStoreError,
)
from .evaluation import CalibrationReport, calibration_strata, calibration_to_dict, roc_auc
from .logit import FittedModel, fit_logistic, predict, univariate_screen
from .textfeatures import (
    APP_TYPES,
    STORES,
    AppRecord,
    Lexicon,
    VariableGrouping,
    default_grouping,
    default_lexicon,
    extract_features,
    tokenize,
)

SPLIT_GENERATOR = "python-random-mt19937/fisher-yates"

REQUIRED_COLUMNS = ("id", "store", "title", "description")
OPTIONAL_COLUMNS = ("gamification_label", "app_type", "language")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    records: list[AppRecord]
    source: str = "<memory>"
    ingested_at: str | None = None

    def __post_init__(self):
        seen: set[str] = set()
        for r in self.records:
            if r.id in seen:
                raise DuplicateIdError(r.id)
            seen.add(r.id)

    def labeled(self) -> list[AppRecord]:
        return [r for r in self.records if r.gamification_label is not None]

    def summary(self) -> dict:
        by_store = {s: 0 for s in STORES}
        by_type = {t: 0 for t in APP_TYPES}
        n_pos = 0
        n_labeled = 0
        for r in self.records:
            by_store[r.store] += 1
            if r.app_type:
                by_type[r.app_type] += 1
            if r.gamification_label is not None:
                n_labeled += 1
                n_pos += r.gamification_label
        return {
            "n_records": len(self.records),
            "by_store": by_store,
            "by_app_type": by_type,
            "n_labeled": n_labeled,
            "n_positive": n_pos,
            "prevalence": (n_pos / n_labeled) if n_labeled else None,
        }


def _parse_record(row: dict, rownum: int) -> AppRecord:
    for col in REQUIRED_COLUMNS:
        if row.get(col) is None:
            raise ParseError(rownum, f"missing required field {col!r}")
    store = row["store"].strip().lower()
    if store not in STORES:
        raise UnknownStoreError(row["store"])
    label_raw = row.get("gamification_label")
    label = None
    if label_raw not in (None, ""):
        if str(label_raw) not in ("0", "1"):
            raise ParseError(rownum, f"gamification_label must be 0 or 1, got {label_raw!r}")
        label = int(label_raw)
    app_type = row.get("app_type") or None
    language = row.get("language") or None
    try:
        return AppRecord(
            id=str(row["id"]),
            store=store,
            title=row["title"] or "",
            description=row["description"] or "",
            gamification_label=label,
            app_type=app_type,
            language=language,
        )
    except InputError as exc:
        raise ParseError(rownum, str(exc)) from exc


def ingest(path, fmt: str | None = None, timestamp: bool = True) -> Dataset:
    """Read a CSV or JSON file of app records into a validated Dataset.

    Input must be UTF-8; undecodable bytes are rejected, not replaced.
    Format is inferred from the extension when `fmt` is omitted.
    """
    path = str(path)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    try:
        with open(path, encoding="utf-8", errors="strict", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"not valid UTF-8: {exc}") from exc

    records: list[AppRecord] = []
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ParseError(None, f"missing required columns: {', '.join(missing)}")
        rows = ((r, i) for i, r in enumerate(reader, start=2))
    elif fmt == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(None, f"invalid JSON: {exc}") from exc
        if isinstance(doc, dict) and "records" in doc:
            doc = doc["records"]
        if not isinstance(doc, list):
            raise ParseError(None, "expected a JSON array of records")
        rows = ((r, i) for i, r in enumerate(doc, start=1))
    else:
        raise InputError(f"unknown format: {fmt!r}")

    for row, rownum in rows:
        if not isinstance(row, dict):
            raise ParseError(rownum, "record is not an object")
        records.append(_parse_record(row, rownum))

    ingested_at = datetime.now(timezone.utc).isoformat(timespec="seconds") if timestamp else None
    return Dataset(records=records, source=path, ingested_at=ingested_at)


def _record_to_dict(r: AppRecord) -> dict:
    return {
        "id": r.id,
        "store": r.store,
        "title": r.title,
        "description": r.description,
        "gamification_label": r.gamification_label,
        "app_type": r.app_type,
        "language": r.language,
    }


def save_dataset(dataset: Dataset, path) -> None:
    doc = {
        "source": dataset.source,
        "ingested_at": dataset.ingested_at,
        "summary": dataset.summary(),
        "records": [_record_to_dict(r) for r in dataset.records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Read either a canonical dataset.json or a raw CSV/JSON input file."""
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "records" in doc:
            records = [_parse_record(r, i) for i, r in enumerate(doc["records"], start=1)]
            return Dataset(records=records, source=doc.get("source", path),
                           ingested_at=doc.get("ingested_at"))
    return ingest(path)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    seed: int
    generation_ids: tuple[str, ...]
    validation_ids: tuple[str, ...]


def split(dataset: Dataset, seed: int) -> SplitPlan:
    """Seeded two-thirds / one-third partition of the labeled records.

    A Fisher-Yates shuffle driven by ``Random(seed)`` permutes the labeled
    ids; the first round(2n/3) go to the generation group. Identical seed
    and dataset give a byte-identical plan.
    """
    labeled = dataset.labeled()
    n = len(labeled)
    if n < 3:
        raise TooFewRecordsError(f"need at least 3 labeled records to split, got {n}")
    ids = [r.id for r in labeled]
    Random(seed).shuffle(ids)
    n_gen = round(2 * n / 3)
    return SplitPlan(seed=seed, generation_ids=tuple(ids[:n_gen]),
                     validation_ids=tuple(ids[n_gen:]))


# ---------------------------------------------------------------------------
# Study driver
# ---------------------------------------------------------------------------

@dataclass
class StudyConfig:
    selection: str = "forced"             # "forced": all variables; "strict": univariate p < alpha
    alpha: float = 0.05
    force_include: tuple[str, ...] = ()   # always kept, even in strict mode
    calibration_min_positives: int = 5

    def to_dict(self) -> dict:
        return {
            "selection": self.selection,
            "alpha": self.alpha,
            "force_include": list(self.force_include),
            "calibration_min_positives": self.calibration_min_positives,
        }


@dataclass
class StudyReport:
    seed: int
    config: StudyConfig
    dataset_summary: dict
    split_plan: SplitPlan
    univariate: list
    selected_variables: tuple[str, ...]
    model: FittedModel
    keyword_map: dict
    roc_generation: object
    roc_validation: object
    calibration: CalibrationReport
    scored_records: list  # (id, group, label, probability)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "generator": SPLIT_GENERATOR,
            "config": self.config.to_dict(),
            "dataset": self.dataset_summary,
            "split": {
                "seed": self.seed,
                "n_generation": len(self.split_plan.generation_ids),
                "n_validation": len(self.split_plan.validation_ids),
            },
            "univariate": [
                {
                    "variable": u.variable_name,
                    "odds_ratio": u.odds_ratio,
                    "ci_low": u.ci_low,
                    "ci_high": u.ci_high,
                    "p_value": u.p_value,
                    "error": u.error,
                }
                for u in self.univariate
            ],
            "selected_variables": list(self.selected_variables),
            "model": logit.model_to_dict(self.model, keyword_map=self.keyword_map,
                                         training={"seed": self.seed,
                                                   "generator": SPLIT_GENERATOR}),
            "roc": {
                group: {
                    "auc": roc.auc,
                    "auc_ci_low": roc.auc_ci_low,
                    "auc_ci_high": roc.auc_ci_high,
                    "n_pos": roc.n_pos,
                    "n_neg": roc.n_neg,
                }
                for group, roc in (("generation", self.roc_generation),
                                   ("validation", self.roc_validation))
            },
            "calibration": calibration_to_dict(self.calibration),
            "records": [
                {"id": rid, "group": group, "label": label, "probability": prob}
                for rid, group, label, prob in self.scored_records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StatisticalError as exc:
        exc.stage = exc.stage or name
        raise


def run_study(dataset: Dataset, lexicon: Lexicon | None = None,
              grouping: VariableGrouping | None = None, seed: int = 0,
              config: StudyConfig | None = None) -> StudyReport:
    """Feature extraction, split, screening, fit, ROC and calibration in one pass."""
    lexicon = lexicon or default_lexicon()
    grouping = grouping or default_grouping()
    config = config or StudyConfig()
    names = grouping.names

    labeled = dataset.labeled()
    features = {r.id: extract_features(r, lexicon, grouping) for r in labeled}
    labels = {r.id: r.gamification_label for r in labeled}

    plan = split(dataset, seed)

    def design(ids):
        X = np.array([features[i].bits for i in ids], dtype=float)
        y = np.array([labels[i] for i in ids], dtype=float)
        return X, y

    X_gen, y_gen = design(plan.generation_ids)
    X_val, y_val = design(plan.validation_ids)

    with _stage("univariate screen"):
        uni = univariate_screen(X_gen, y_gen, names=names)

    if config.selection == "forced":
        selected = tuple(names)
    elif config.selection == "strict":
        keep = set(config.force_include)
        for u in uni:
            if u.p_value is not None and u.p_value < config.alpha:
                keep.add(u.variable_name)
        selected = tuple(n for n in names if n in keep)
        if not selected:
            raise TooFewRecordsError("strict selection kept no variables")
    else:
        raise InputError(f"unknown selection mode: {config.selection!r}")

    sel_idx = [names.index(n) for n in selected]
    with _stage("multivariate fit"):
        model = fit_logistic(X_gen[:, sel_idx], y_gen, names=selected)

    p_gen = expit(model.intercept + X_gen[:, sel_idx] @ model.coefficients[1:])
    p_val = expit(model.intercept + X_val[:, sel_idx] @ model.coefficients[1:])

    with _stage("generation ROC"):
        roc_gen = roc_auc(p_gen, y_gen)
    with _stage("validation ROC"):
        roc_val = roc_auc(p_val, y_val)
    with _stage("calibration"):
        calib = calibration_strata(p_val, y_val,
                                   min_positives=config.calibration_min_positives)

    scored = (
        [(i, "generation", labels[i], float(p)) for i, p in zip(plan.generation_ids, p_gen)]
        + [(i, "validation", labels[i], float(p)) for i, p in zip(plan.validation_ids, p_val)]
    )
    keyword_map = {n: sorted(grouping.members(n)) for n in selected}

    return StudyReport(
        seed=seed,
        config=config,
        dataset_summary=dataset.summary(),
        split_plan=plan,
        univariate=uni,
        selected_variables=selected,
        model=model,
        keyword_map=keyword_map,
        roc_generation=roc_gen,
        roc_validation=roc_val,
        calibration=calib,
        scored_records=scored,
    )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreResult:
    id: str
    probability: float
    matched_keywords: tuple[str, ...]
    bits: tuple[int, ...]
    contributions: dict  # variable -> coefficient * bit
    flags: tuple[str, ...]

    def to_dict(self, explain: bool = True) -> dict:
        out = {"id": self.id, "probability": self.probability, "flags": list(self.flags)}
        if explain:
            out["matched_keywords"] = list(self.matched_keywords)
            out["contributions"] = dict(self.contributions)
        return out


def score_records(model: FittedModel, grouping: VariableGrouping, records) -> list[ScoreResult]:
    """Score app records with a (possibly pre-trained) model.

    The grouping normally comes from the model file itself, keeping a
    model self-contained; output order equals input order.
    """
    if grouping.names != model.feature_names:
        raise InputError("grouping variables do not match the model's variables")
    lexicon = Lexicon(keywords=grouping.all_keywords, version="model")
    out = []
    for record in records:
        fv = extract_features(record, lexicon, grouping)
        prob = predict(model, fv)
        contributions = {
            name: float(model.coefficients[i + 1]) * fv.bits[i] if fv.bits[i] else 0.0
            for i, name in enumerate(model.feature_names)
        }
        flags = () if tokenize(record.text) else ("no_text",)
        out.append(ScoreResult(
            id=record.id,
            probability=prob,
            matched_keywords=tuple(sorted(fv.matched_keywords)),
            bits=fv.bits,
            contributions=contributions,
            flags=flags,
        ))
    return out
