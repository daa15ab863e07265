"""Dataset ingestion, seeded splitting, the end-to-end study driver and scoring.

Every random draw in a study flows from one nonnegative integer seed through
a named generator (Python's Mersenne Twister with Fisher-Yates shuffling), so
identical inputs and seed reproduce byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice
from json.encoder import encode_basestring_ascii as quote  # what `json.dumps` does to a str
from operator import itemgetter
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
    assess,
    calibration_to_dict,
    roc_auc,
    tally,
)
from .evaluation import calibration_strata  # noqa: F401  (the traced benchmark wraps it here)
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
    extract_features,  # noqa: F401  (the traced benchmark wraps it here)
    feature_code,
    tokenize,
)

ALPHA = 0.05                     # strict selection keeps univariate p < ALPHA
SCORE_CHUNK = 1024               # records scored and written together

REQUIRED_COLUMNS = ("id", "store", "title", "description")
READ_COLUMNS = REQUIRED_COLUMNS + ("gamification_label", "app_type", "language")
LABELS = {"": None, "0": 0, "1": 1}  # label text: "" is unlabeled


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    records: list[AppRecord]
    source: str = "<memory>"

    def summary(self) -> dict:
        summary: dict = {}
        for _ in _counted(self.records, summary):
            pass
        return summary


def _counted(records, summary: dict) -> Iterator[AppRecord]:
    """The labeled records of `records`, in order; once they run out, `summary` holds the
    counts that `Dataset.summary` reports."""
    by_store, by_type = dict.fromkeys(STORES, 0), dict.fromkeys(APP_TYPES, 0)
    n = n_labeled = n_pos = 0
    for n, r in enumerate(records, start=1):
        by_store[r.store] += 1
        if r.app_type:
            by_type[r.app_type] += 1
        if r.gamification_label is not None:
            n_labeled += 1
            n_pos += r.gamification_label
            yield r
    summary.update(n_records=n, by_store=by_store, by_app_type=by_type, n_labeled=n_labeled,
                   n_positive=n_pos, prevalence=(n_pos / n_labeled) if n_labeled else None)


def _record(rownum, record_id, store, title, description, label, app_type, language) -> AppRecord:
    """The record of one row's fields, in `READ_COLUMNS` order, with a label text mapped by
    `LABELS`; `AppRecord` checks the values, and its errors name the row."""
    label = LABELS.get(label, label) if isinstance(label, str) else label
    try:
        return AppRecord(record_id, store.strip().lower(), title, description, label,
                         app_type or None, language or None)
    except UnknownStoreError:
        raise UnknownStoreError(rownum, store) from None
    except InputError as exc:
        raise ParseError(rownum, str(exc)) from exc


def _parse_record(row, rownum: int) -> AppRecord:
    """Check the types of one JSON record's fields, then read it with `_record`."""
    if not isinstance(row, dict):
        raise ParseError(rownum, "record is not an object")
    for col in REQUIRED_COLUMNS:
        if row.get(col) is None:
            raise ParseError(rownum, f"missing required field {col!r}")
    if isinstance(row["id"], bool) or not isinstance(row["id"], (str, int)):
        raise ParseError(rownum, "field 'id' must be a string or an integer")
    for col in ("store", "title", "description", "app_type", "language"):
        if not isinstance(row.get(col), (str, type(None))):
            raise ParseError(rownum, f"field {col!r} must be a string")
    return _record(rownum, str(row["id"]), *map(row.get, READ_COLUMNS[1:]))


def _csv_records(reader, header: list[str]) -> Iterator[AppRecord]:
    """The records of the rows of `reader` after its `header`, each read by column position:
    CSV fields are always text. A row is the file line on which its record ends."""
    width = len(header)
    # An optional column the header lacks reads the empty field appended to each row.
    read = itemgetter(*(header.index(c) if c in header else width for c in READ_COLUMNS))
    for row in reader:
        if not row:  # a blank line
            continue
        if len(row) != width:
            raise ParseError(reader.line_num, f"{len(row)} fields, but the header has {width}")
        row.append("")
        yield _record(reader.line_num, *read(row))


def _fields(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated read field (`dict` keeps its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = [c for c in READ_COLUMNS if keys.count(c) > 1]
        if repeated:
            raise ParseError(None, f"repeated fields: {', '.join(repeated)}")
    return obj


def _json_lines(lines):
    """(row, line number) per nonblank line; objects get the stdin defaults."""
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line, object_pairs_hook=_fields)
        except json.JSONDecodeError as exc:
            raise ParseError(i, f"invalid JSON: {exc}") from exc
        except ParseError as exc:
            raise ParseError(i, exc.reason) from None
        if isinstance(row, dict):
            row = {"id": f"stdin-{i}", "store": "other", "title": "", "description": "", **row}
        yield row, i


def read_records(path) -> Iterator[AppRecord]:
    """Validated app records, in file order, as they are parsed: the package's one reader.

    `path` is a CSV file, a JSON file holding an array of records or an
    object with a ``"records"`` array (what `save_dataset` writes), or
    ``-`` for JSON lines on stdin, where each object is merged over the
    defaults ``id = stdin-<line>``, ``store = other`` and empty text.
    A file whose name ends in ``.json`` is read as JSON, any other as CSV.
    Input must be UTF-8, with or without a byte-order mark; undecodable
    bytes are rejected, not replaced, when the parser reaches their 8 KB chunk.
    A fault (a bad row, bad bytes, a record whose id was seen before) raises when
    the parse reaches it, after every record before it has been yielded.
    """
    path = str(path)
    seen: set[str] = set()
    try:
        with contextlib.ExitStack() as stack:
            # One strict decoder over the bytes of every source; detached, not closed, when
            # the parse ends, so stdin stays open and a file is closed by its own context.
            raw = sys.stdin.buffer if path == "-" else stack.enter_context(open(path, "rb"))
            fh = io.TextIOWrapper(raw, encoding="utf-8-sig", errors="strict",
                                  newline=None if path == "-" else "")
            stack.callback(fh.detach)
            if path == "-":
                records = (_parse_record(row, i) for row, i in _json_lines(fh))
            elif not path.endswith(".json"):
                reader = csv.reader(fh, strict=True)
                header = next(reader, [])
                missing = [c for c in REQUIRED_COLUMNS if c not in header]
                if missing:
                    raise ParseError(None, f"missing required columns: {', '.join(missing)}")
                repeated = [c for c in READ_COLUMNS if header.count(c) > 1]
                if repeated:
                    raise ParseError(None, f"repeated columns: {', '.join(repeated)}")
                records = _csv_records(reader, header)
            else:
                # A JSON document is parsed whole before its first record is checked.
                try:
                    doc = json.load(fh, object_pairs_hook=_fields)
                except json.JSONDecodeError as exc:
                    raise ParseError(None, f"invalid JSON: {exc}") from exc
                if isinstance(doc, dict) and "records" in doc:
                    doc = doc["records"]
                if not isinstance(doc, list):
                    raise ParseError(None, "expected a JSON array of records")
                records = (_parse_record(row, i) for i, row in enumerate(doc, start=1))
            for record in records:
                if record.id in seen:
                    raise DuplicateIdError(record.id)
                seen.add(record.id)
                yield record
    except UnicodeDecodeError as exc:
        # The decoder's position counts from its current chunk, not the file start.
        raise ParseError(None, f"not valid UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        raise ParseError(None, f"malformed CSV at line {reader.line_num}: {exc}") from exc


def ingest(path) -> Dataset:
    """Read every record of `path` (see `read_records`) into a validated Dataset."""
    return Dataset(records=list(read_records(path)), source=str(path))


def save_dataset(dataset: Dataset, path) -> dict:
    """Write `dataset` as JSON to `path`; return the summary written with it."""
    names = [f.name for f in fields(AppRecord)]
    doc = {
        "source": dataset.source,
        "summary": dataset.summary(),
        # The fields in declaration order, like `asdict`, without its deep copy
        # of every value (which doubles the write time at 100k records).
        "records": [{name: getattr(r, name) for name in names} for r in dataset.records],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc["summary"]


load_dataset = ingest  # reads a dataset.json written by `save_dataset`, or any listings file


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def _check_seed(seed: int) -> None:
    if seed < 0:  # `Random(-7)` shuffles as `Random(7)` does
        raise InputError(f"seed must be nonnegative, got {seed}")


def split(n: int, seed: int) -> list[np.ndarray]:
    """Seeded two-thirds / one-third partition of `n` labeled records, as positions.

    A Fisher-Yates shuffle driven by ``Random(seed)`` permutes 0..n-1; the first
    round(2n/3) go to the generation group, the rest to validation, as two intp
    arrays. Identical `n` and seed give an identical split.
    """
    _check_seed(seed)
    if n < 3:
        raise TooFewRecordsError(f"need at least 3 labeled records to split, got {n}")
    rows = list(range(n))
    Random(seed).shuffle(rows)
    return np.split(np.array(rows, dtype=np.intp), [round(2 * n / 3)])


def pattern_table(codes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct k-bit `feature_code`s of the iterable `codes`, first seen first, unpacked
    once each to an (m, k) uint8 matrix, and the row of that matrix for each code."""
    index: dict[int, int] = {}
    rows = np.fromiter((index.setdefault(c, len(index)) for c in codes), dtype=np.intp)
    width = (k + 7) // 8
    packed = np.frombuffer(b"".join(c.to_bytes(width, "big") for c in index), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(len(index), width), axis=1)
    return np.ascontiguousarray(bits[:, 8 * width - k:]), rows


# ---------------------------------------------------------------------------
# Study driver
# ---------------------------------------------------------------------------

@dataclass
class StudyReport:
    selection: str
    dataset_summary: dict
    ids: list                    # the labeled records' ids, in read order
    split_rows: tuple            # (generation, validation) intp positions in `ids`
    labels: np.ndarray           # uint8, one per id
    probabilities: np.ndarray    # the model's, one per id
    univariate: list
    model: FittedModel
    roc_generation: object
    roc_validation: object
    calibration: CalibrationReport

    def to_dict(self) -> dict:
        labels, probs = self.labels.tolist(), self.probabilities.tolist()
        return {
            "seed": self.model.seed,
            "generator": SPLIT_GENERATOR,
            "config": {"selection": self.selection, "alpha": ALPHA,
                       "calibration_min_positives": CALIBRATION_MIN_POSITIVES},
            "dataset": self.dataset_summary,
            "split": {
                "seed": self.model.seed,
                "n_generation": len(self.split_rows[0]),
                "n_validation": len(self.split_rows[1]),
            },
            "univariate": [asdict(u) for u in self.univariate],
            "selected_variables": list(self.model.feature_names),
            "model": logit.model_to_dict(self.model),
            "roc": {
                group: {**_auc(roc), "n_pos": roc.n_pos, "n_neg": roc.n_neg}
                for group, roc in (("generation", self.roc_generation),
                                   ("validation", self.roc_validation))
            },
            "calibration": calibration_to_dict(self.calibration),
            "records": [
                {"id": self.ids[i], "group": group, "label": labels[i], "probability": probs[i]}
                for group, rows in zip(("generation", "validation"), self.split_rows)
                for i in rows.tolist()
            ],
        }

    def to_json(self, fh) -> None:
        """Dump the report, as indented JSON, into the open text file `fh`."""
        json.dump(self.to_dict(), fh, indent=2)
        fh.write("\n")


def _auc(roc) -> dict:
    """The AUC block of a report group and of `evaluate`: the AUC and its 95% CI."""
    return {"auc": roc.auc, "auc_ci_low": roc.auc_ci_low, "auc_ci_high": roc.auc_ci_high}


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StatisticalError as exc:
        exc.stage = exc.stage or name
        raise


def _labeled_patterns(labeled, grouping: VariableGrouping) -> tuple:
    """The labeled pass of `run_study` and `evaluate`: the 0/1 labels of the records `labeled`
    (a uint8 array), the `pattern_table` of their codes under `grouping`, and the SHA-256 hex
    digest of their ids in order, each id's UTF-8 bytes after their length as 8 bytes
    big-endian. Each record is extracted as it is read, and none is kept."""
    import hashlib  # here, so only the commands that read labels load it

    labels, digest = bytearray(), hashlib.sha256()

    def codes():
        for r in labeled:
            labels.append(r.gamification_label)
            key = r.id.encode("utf-8", "surrogatepass")  # a JSON id may hold a lone surrogate
            digest.update(len(key).to_bytes(8, "big") + key)
            yield feature_code(r, grouping)[0]

    patterns, rows = pattern_table(codes(), len(grouping.names))
    return np.frombuffer(labels, dtype=np.uint8), patterns, rows, digest.hexdigest()


def run_study(records, grouping: VariableGrouping | None = None, seed: int = 0,
              selection: str = "forced") -> StudyReport:
    """Feature extraction, split, screening, fit, ROC and calibration in one pass over `records`.

    Each labeled record's id, label and bits are kept, not the record. `selection` "forced"
    fits every variable, "strict" those with univariate p < ``ALPHA``; any other, or a
    negative `seed`, raises before a record is taken.
    """
    if selection not in ("forced", "strict"):
        raise InputError(f"unknown selection mode: {selection!r}")
    _check_seed(seed)
    grouping = grouping or default_grouping()
    names = grouping.names
    summary, ids = {}, []
    y, patterns, rows, digest = _labeled_patterns(
        (ids.append(r.id) or r for r in _counted(records, summary)), grouping)
    gen, val = split(len(ids), seed)
    # The screen and fit get the generation group's patterns, with records and positives at each.
    used, n_gen, e_gen = tally(rows[gen], y[gen])
    X_gen = patterns[used]

    uni = univariate_screen(X_gen, e_gen, names=names, n=n_gen)

    if selection == "forced":
        selected = tuple(names)
    else:
        keep = {u.variable for u in uni if u.p_value is not None and u.p_value < ALPHA}
        selected = tuple(n for n in names if n in keep)
        if not selected:
            raise TooFewRecordsError("strict selection kept no variables")

    sel_idx = [names.index(n) for n in selected]
    with _stage("multivariate fit"):
        fit = fit_logistic(X_gen[:, sel_idx], e_gen, names=selected, n=n_gen)
    model = replace(fit, seed=seed, grouping=VariableGrouping(
        tuple((n, grouping.members(n)) for n in selected)), n_labeled=len(ids),
        labeled_ids_sha256=digest)

    p = probabilities(model, patterns[:, sel_idx])[rows]

    with _stage("generation ROC"):
        roc_gen = roc_auc(p[gen], y[gen])
    with _stage("validation ROC"):
        roc_val, calib = assess(p[val], y[val])

    return StudyReport(
        selection=selection,
        dataset_summary=summary,
        ids=ids,
        split_rows=(gen, val),
        labels=y,
        probabilities=p,
        univariate=uni,
        model=model,
        roc_generation=roc_gen,
        roc_validation=roc_val,
        calibration=calib,
    )


def evaluate(model: FittedModel, records, group: str = "all") -> dict:
    """The document `evaluate` prints: `model` judged on the labeled records of `records`, all
    of them or the `group` that `split` cuts with the model's recorded seed.
    A model without keywords, an unknown `group` or a group split of a model whose seed is
    absent or negative raises before any record is taken. A group split of labeled records
    whose count or id digest differs from the model's raises before any statistic; `all`, and
    a model that records neither, are not checked."""
    grouping = _keywords(model)
    if group not in ("all", "generation", "validation"):
        raise InputError(f"unknown split: {group!r}")
    if group != "all":
        if model.seed is None:
            raise InputError(f"model records no split seed, so its {group} group is unknown; "
                             "use --split all")
        _check_seed(model.seed)
    y, patterns, rows, digest = _labeled_patterns(
        (r for r in records if r.gamification_label is not None), grouping)
    if group != "all":
        if model.n_labeled not in (None, y.size) or model.labeled_ids_sha256 not in (None, digest):
            raise InputError(f"the dataset's {y.size} labeled records are not those the model's "
                             f"split was cut from, so its {group} group is unknown; "
                             "use --split all")
        members = split(y.size, model.seed)[group == "validation"]
        y, rows = y[members], rows[members]
    if not y.size:
        raise TooFewRecordsError("no labeled records to evaluate")
    roc, calib = assess(logit.probabilities(model, patterns)[rows], y)
    return {"split": group, "n": y.size, **_auc(roc), "calibration": calibration_to_dict(calib)}


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


def iter_scores(model: FittedModel, records) -> Iterator[ScoreResult]:
    """Score app records against the model's own keyword grouping, as they are read.

    Yields one result per record, in input order, each with its own contributions dict, once
    its chunk of `_score_chunks` has been read whole: an input that fails partway yields every
    chunk before the fault. A model without keywords raises here, before any record is taken.
    """
    chunks, names, terms = _score_chunks(model, records), model.grouping.names, _terms(model)
    return (ScoreResult(record.id, probs[row], tuple(sorted(matched)), tuple(bits[row]),
                        {n: t[b] for n, t, b in zip(names, terms, bits[row])},
                        ("no_text",) if empty else ())
            for chunk, features, rows, no_text, probs, bits in chunks
            for record, (_, matched), row, empty in zip(chunk, features, rows, no_text))


def write_scores(model: FittedModel, records, write, explain: bool) -> None:
    """Pass `score`'s lines to `write`, one call per chunk of `_score_chunks` before the next
    is read; each line is ``json.dumps(result.to_dict(explain))`` for a result of `iter_scores`.

    Each distinct (code, no_text) pair is encoded once, as the probability and contributions
    follow from the code and the flags from the text; each keyword and each variable's two
    terms once per run. A model without keywords raises before any record is read.
    """
    chunks, names = _score_chunks(model, records), model.grouping.names
    keywords = {k: quote(k) for k in model.grouping.all_keywords} if explain else {}
    fragments = [[f"{quote(n)}: {json.dumps(t)}" for t in off_on]
                 for n, off_on in zip(names, _terms(model))]
    encoded: dict[tuple, tuple[str, str]] = {}
    for chunk, features, rows, no_text, probs, bits in chunks:
        lines = []
        for record, (code, matched), row, empty in zip(chunk, features, rows, no_text):
            head, tail = encoded.get((code, empty)) or encoded.setdefault((code, empty), (
                f', "probability": {json.dumps(probs[row])}, '
                f'"flags": {json.dumps(["no_text"] if empty else [])}',
                ', "contributions": {' + ", ".join([f[b] for f, b in zip(fragments, bits[row])])
                + "}}\n" if explain else "}\n"))
            if explain:
                matched = ", ".join([keywords[k] for k in sorted(matched)])
                head = f'{head}, "matched_keywords": [{matched}]'
            lines.append(f'{{"id": {quote(record.id)}{head}{tail}')
        write("".join(lines))


def _terms(model: FittedModel) -> list[tuple[float, float]]:
    """Each variable's log-odds term with its bit off and on, as `contributions` gives them."""
    k = len(model.feature_names)
    return list(zip(*contributions(model, [[0] * k, [1] * k]).tolist()))


def _score_chunks(model: FittedModel, records) -> Iterator[tuple]:
    """Check the model, then per ``SCORE_CHUNK`` records yield them, their `feature_code`s,
    pattern rows and whether each lacks text, and each pattern's probability and bits."""
    _keywords(model)
    return _chunks(model, iter(records))


def _keywords(model: FittedModel) -> VariableGrouping:
    """The model's keyword grouping, which raw text is matched against; refused if it has none."""
    if model.grouping is None:
        raise InputError("model carries no keywords; cannot score raw text")
    return model.grouping


def _chunks(model: FittedModel, records: Iterator[AppRecord]) -> Iterator[tuple]:
    while chunk := list(islice(records, SCORE_CHUNK)):
        features = [feature_code(r, model.grouping) for r in chunk]
        patterns, rows = pattern_table((c for c, _ in features), len(model.grouping.names))
        no_text = [not tokenize(r.text) for r in chunk]
        yield (chunk, features, rows.tolist(), no_text, probabilities(model, patterns).tolist(),
               patterns.tolist())
        del chunk[:], features[:]  # emptied in place: no consumer holds them during the next read


def score_records(model: FittedModel, records) -> list[ScoreResult]:
    """Every result of `iter_scores`, as a list: one per record, in input order."""
    return list(iter_scores(model, records))
