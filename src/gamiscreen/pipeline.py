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
import sys
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from random import Random

import numpy as np

from . import logit
from .errors import (
    DuplicateIdError,
    InputError,
    ParseError,
    StatisticalError,
    TooFewRecordsError,
    UnknownStoreError,
)
from .evaluation import (
    CALIBRATION_MIN_POSITIVES,
    CalibrationReport,
    calibration_strata,
    calibration_to_dict,
    roc_auc,
)
from .logit import (
    SPLIT_GENERATOR,
    FittedModel,
    contributions,
    fit_logistic,
    probabilities,
    univariate_screen,
)
from .logit import predict  # noqa: F401  (the benchmark's traced pass wraps it here)
from .textfeatures import (
    APP_TYPES,
    STORES,
    AppRecord,
    VariableGrouping,
    default_grouping,
    extract_features,
    tokenize,
)

ALPHA = 0.05                     # strict selection keeps univariate p < ALPHA

REQUIRED_COLUMNS = ("id", "store", "title", "description")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    records: list[AppRecord]
    source: str = "<memory>"

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
    if isinstance(row["id"], bool) or not isinstance(row["id"], (str, int)):
        raise ParseError(rownum, "field 'id' must be a string or an integer")
    for col in ("store", "title", "description", "app_type", "language"):
        if not isinstance(row.get(col), (str, type(None))):
            raise ParseError(rownum, f"field {col!r} must be a string")
    store = row["store"].strip().lower()
    if store not in STORES:
        raise UnknownStoreError(rownum, row["store"])
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
            title=row["title"],
            description=row["description"],
            gamification_label=label,
            app_type=app_type,
            language=language,
        )
    except InputError as exc:
        raise ParseError(rownum, str(exc)) from exc


def _json_lines(text: str):
    """(row, line number) per nonblank line; objects get the stdin defaults."""
    for i, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(i, f"invalid JSON: {exc}") from exc
        if isinstance(row, dict):
            row = {"id": f"stdin-{i}", "store": "other", "title": "", "description": "", **row}
        yield row, i


def ingest(path) -> Dataset:
    """Read app records into a validated Dataset: the package's one reader.

    `path` is a CSV file, a JSON file holding an array of records or an
    object with a ``"records"`` array (what `save_dataset` writes), or
    ``-`` for JSON lines on stdin, where each object is merged over the
    defaults ``id = stdin-<line>``, ``store = other`` and empty text.
    A file whose name ends in ``.json`` is read as JSON, any other as CSV.
    Input must be UTF-8, with or without a byte-order mark; undecodable
    bytes are rejected, not replaced.
    """
    path = str(path)
    try:
        if path == "-":
            # The bytes under a text stdin, so its error handler cannot mask bad UTF-8.
            stdin = getattr(sys.stdin, "buffer", None)
            text = stdin.read().decode("utf-8-sig") if stdin else sys.stdin.read()
        else:
            with open(path, encoding="utf-8-sig", errors="strict", newline="") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"not valid UTF-8: {exc}") from exc

    if path == "-":
        rows = _json_lines(text)
    elif not path.endswith(".json"):
        reader = csv.DictReader(io.StringIO(text))
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise ParseError(None, f"missing required columns: {', '.join(missing)}")
        rows = ((r, i) for i, r in enumerate(reader, start=2))
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(None, f"invalid JSON: {exc}") from exc
        if isinstance(doc, dict) and "records" in doc:
            doc = doc["records"]
        if not isinstance(doc, list):
            raise ParseError(None, "expected a JSON array of records")
        rows = ((r, i) for i, r in enumerate(doc, start=1))

    records: list[AppRecord] = []
    for row, rownum in rows:
        if not isinstance(row, dict):
            raise ParseError(rownum, "record is not an object")
        records.append(_parse_record(row, rownum))

    return Dataset(records=records, source=path)


def save_dataset(dataset: Dataset, path) -> None:
    doc = {
        "source": dataset.source,
        "summary": dataset.summary(),
        # The fields in declaration order, like `asdict`, without its deep copy
        # of every value (which doubles the write time at 100k records).
        "records": [vars(r) for r in dataset.records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    """Read a dataset.json written by `save_dataset`, or any input `ingest` reads."""
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
class StudyReport:
    selection: str
    dataset_summary: dict
    split_plan: SplitPlan
    univariate: list
    model: FittedModel
    roc_generation: object
    roc_validation: object
    calibration: CalibrationReport
    scored_records: list  # (id, group, label, probability)

    def to_dict(self) -> dict:
        return {
            "seed": self.model.seed,
            "generator": SPLIT_GENERATOR,
            "config": {"selection": self.selection, "alpha": ALPHA,
                       "calibration_min_positives": CALIBRATION_MIN_POSITIVES},
            "dataset": self.dataset_summary,
            "split": {
                "seed": self.model.seed,
                "n_generation": len(self.split_plan.generation_ids),
                "n_validation": len(self.split_plan.validation_ids),
            },
            "univariate": [asdict(u) for u in self.univariate],
            "selected_variables": list(self.model.feature_names),
            "model": logit.model_to_dict(self.model),
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
        # Streamed: with an indent, `json.dumps` first lists every chunk (the peak RSS at 100k).
        buf = io.StringIO()
        json.dump(self.to_dict(), buf, indent=2)
        buf.write("\n")
        return buf.getvalue()


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StatisticalError as exc:
        exc.stage = exc.stage or name
        raise


def run_study(dataset: Dataset, grouping: VariableGrouping | None = None, seed: int = 0,
              selection: str = "forced") -> StudyReport:
    """Feature extraction, split, screening, fit, ROC and calibration in one pass.

    `selection` "forced" fits every variable, "strict" those with univariate p < ``ALPHA``.
    """
    grouping = grouping or default_grouping()
    names = grouping.names

    labeled = dataset.labeled()
    X = np.array([extract_features(r, grouping).bits for r in labeled], dtype=np.uint8)
    y = np.array([r.gamification_label for r in labeled], dtype=np.uint8)
    row = {r.id: i for i, r in enumerate(labeled)}

    plan = split(dataset, seed)
    gen = np.array([row[i] for i in plan.generation_ids])
    val = np.array([row[i] for i in plan.validation_ids])
    X_gen, y_gen = X[gen], y[gen]

    with _stage("univariate screen"):
        uni = univariate_screen(X_gen, y_gen, names=names)

    if selection == "forced":
        selected = tuple(names)
    elif selection == "strict":
        keep = {u.variable for u in uni if u.p_value is not None and u.p_value < ALPHA}
        selected = tuple(n for n in names if n in keep)
        if not selected:
            raise TooFewRecordsError("strict selection kept no variables")
    else:
        raise InputError(f"unknown selection mode: {selection!r}")

    sel_idx = [names.index(n) for n in selected]
    with _stage("multivariate fit"):
        fit = fit_logistic(X_gen[:, sel_idx], y_gen, names=selected)
    model = replace(fit, seed=seed, grouping=VariableGrouping(
        tuple((n, grouping.members(n)) for n in selected)))

    p = probabilities(model, X[:, sel_idx])
    p_gen, y_val, p_val = p[gen], y[val], p[val]

    with _stage("generation ROC"):
        roc_gen = roc_auc(p_gen, y_gen)
    with _stage("validation ROC"):
        roc_val = roc_auc(p_val, y_val)
    with _stage("calibration"):
        calib = calibration_strata(p_val, y_val, min_positives=CALIBRATION_MIN_POSITIVES)

    scored = (
        list(zip(plan.generation_ids, repeat("generation"), y_gen.tolist(), p_gen.tolist()))
        + list(zip(plan.validation_ids, repeat("validation"), y_val.tolist(), p_val.tolist()))
    )

    return StudyReport(
        selection=selection,
        dataset_summary=dataset.summary(),
        split_plan=plan,
        univariate=uni,
        model=model,
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


def score_records(model: FittedModel, records) -> list[ScoreResult]:
    """Score app records against the model's own keyword grouping.

    Output order equals input order. One `probabilities` and one
    `contributions` call over the distinct bit patterns give a per-pattern
    table; every result gets its own copy of the contributions dict.
    """
    grouping = model.grouping
    if grouping is None:
        raise InputError("model carries no keywords; cannot score raw text")
    features = [(r, extract_features(r, grouping)) for r in records]
    patterns = list(dict.fromkeys(fv.bits for _, fv in features))
    X = np.array(patterns, dtype=np.uint8).reshape(len(patterns), len(grouping.names))
    per_pattern = {bits: (prob, dict(zip(grouping.names, terms))) for bits, prob, terms in zip(
        patterns, probabilities(model, X).tolist(), contributions(model, X).tolist())}
    return [
        ScoreResult(
            id=record.id,
            probability=per_pattern[fv.bits][0],
            matched_keywords=tuple(sorted(fv.matched_keywords)),
            bits=fv.bits,
            contributions=dict(per_pattern[fv.bits][1]),
            flags=() if tokenize(record.text) else ("no_text",),
        )
        for record, fv in features
    ]
