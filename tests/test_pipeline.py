import csv
import gc
import hashlib
import io
import json
import tracemalloc
import unittest.mock
from dataclasses import replace
from datetime import datetime
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamiscreen as g
from gamiscreen.cli import main
from gamiscreen.errors import (
    DuplicateIdError,
    InputError,
    ParseError,
    SeparationError,
    TooFewRecordsError,
    UnknownStoreError,
)
from gamiscreen.evaluation import calibration_strata, calibration_to_dict, roc_auc
from gamiscreen.logit import (
    FittedModel,
    fit_logistic,
    predict,
    probabilities,
    univariate_screen,
)
from gamiscreen.pipeline import (
    SCORE_CHUNK,
    Dataset,
    _labeled_patterns,
    _score_chunks,
    evaluate,
    ingest,
    iter_scores,
    load_dataset,
    pattern_table,
    read_records,
    run_study,
    save_dataset,
    score_records,
    split,
    write_scores,
)
from gamiscreen.textfeatures import AppRecord, VariableGrouping, extract_features

from conftest import stdin_text, synthetic_corpus


def write_csv(path, rows, fieldnames=None):
    fieldnames = fieldnames or ["id", "store", "title", "description",
                                "gamification_label", "app_type", "language"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)


class TestIngest:
    def test_round_trip(self, tmp_path):
        rows = [
            {"id": "a", "store": "android", "title": "T1", "description": "quiz fun",
             "gamification_label": "1", "app_type": "health", "language": "en"},
            {"id": "b", "store": "ios", "title": "T2", "description": "",
             "gamification_label": "0", "app_type": "", "language": ""},
            {"id": "c", "store": "other", "title": "", "description": "track",
             "gamification_label": "", "app_type": "misc", "language": "en"},
        ]
        path = tmp_path / "in.csv"
        write_csv(path, rows)
        ds = ingest(path)
        assert len(ds.records) == 3
        s = ds.summary()
        assert s["by_store"] == {"android": 1, "ios": 1, "other": 1}
        assert s["n_labeled"] == 2 and s["n_positive"] == 1
        assert ds.records[1].app_type is None

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "in.csv"
        write_csv(path, [
            {"id": "a", "store": "ios", "title": "", "description": ""},
            {"id": "a", "store": "ios", "title": "", "description": ""},
        ])
        with pytest.raises(DuplicateIdError) as exc:
            ingest(path)
        assert exc.value.record_id == "a"

    def test_reader_yields_the_records_before_a_fault(self, tmp_path):
        path = tmp_path / "in.csv"
        rows = [{"id": f"r{i}", "store": "ios", "title": "", "description": "quiz"}
                for i in range(5)]
        write_csv(path, rows + [rows[3]])
        records = read_records(path)
        assert [next(records).id for _ in range(5)] == [f"r{i}" for i in range(5)]
        with pytest.raises(DuplicateIdError, match="'r3'"):
            next(records)

    def test_unknown_store(self, tmp_path):
        path = tmp_path / "in.csv"
        write_csv(path, [{"id": "a", "store": "symbian", "title": "", "description": ""}])
        with pytest.raises(UnknownStoreError) as exc:
            ingest(path)
        assert exc.value.row == 2 and exc.value.value == "symbian"
        assert str(exc.value).startswith("row 2: unknown store: 'symbian'")
        # A row is named by the file line on which it ends, after quoted line breaks too.
        path.write_text('id,store,title,description\na,ios,T,"x\n\ny"\nb,symbian,T,z\n',
                        encoding="utf-8")
        with pytest.raises(UnknownStoreError) as exc:
            ingest(path)
        assert exc.value.row == 5
        # And after a skipped blank line.
        path.write_text("id,store,title,description\na,ios,T,z\n\nb,symbian,T,z\n",
                        encoding="utf-8")
        with pytest.raises(UnknownStoreError) as exc:
            ingest(path)
        assert str(exc.value).startswith("row 4: unknown store: 'symbian'")

    def test_missing_column(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("id,store,title\na,ios,T\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert "description" in str(exc.value)

    def test_bad_label_names_row(self, tmp_path):
        path = tmp_path / "in.csv"
        write_csv(path, [
            {"id": "a", "store": "ios", "title": "", "description": "", "gamification_label": "1"},
            {"id": "b", "store": "ios", "title": "", "description": "", "gamification_label": "yes"},
        ])
        with pytest.raises(ParseError) as exc:
            ingest(path)
        assert exc.value.row == 3

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(b"id,store,title,description\na,ios,T,\xff\xfe\n")
        with pytest.raises(ParseError):
            ingest(path)
        # Past the first 8 KB the file is decoded chunk by chunk, as it is parsed.
        rows = "".join(f"r{i},ios,T,quiz\n" for i in range(1000)).encode()
        path.write_bytes(b"id,store,title,description\n" + rows + b"z,ios,T,\xff\n")
        with pytest.raises(ParseError, match="not valid UTF-8") as exc:
            ingest(path)
        assert "position" not in str(exc.value)
        # Faults are reported in file order: a bad row before the bad bytes is named.
        path.write_bytes(b"id,store,title,description\na,symbian,T,\n" + rows + b"z,ios,T,\xff\n")
        with pytest.raises(UnknownStoreError) as exc:
            ingest(path)
        assert exc.value.row == 2

    def test_read_allocates_less_than_the_input(self, monkeypatch, tmp_path):
        # The reader parses the open file, and decodes stdin as it parses it: no
        # whole-input bytes or text, and no in-memory file.
        path = tmp_path / "in.csv"
        write_csv(path, [{"id": f"r{i}", "store": "ios", "title": "Quiz",
                          "description": "track your daily steps " * 20} for i in range(4000)])
        lines = "".join(json.dumps({"id": f"r{i}", "store": "ios", "title": "Quiz",
                                    "description": "track your daily steps " * 40}) + "\n"
                        for i in range(2000)).encode("utf-8")
        raw = io.BytesIO(lines)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        for source, size, n in ((path, path.stat().st_size, 4000), ("-", len(lines), 2000)):
            tracemalloc.start()
            try:
                ds = ingest(source)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(ds.records) == n and size > 1_800_000
            assert peak - held < 0.5 * size
        assert not raw.closed  # the stdin decoder is detached, not closed

    def test_csv_line_endings(self, tmp_path):
        # A quoted field keeps every line break and separator verbatim.
        description = "a\nb\r\nc\rd\x0be\x1cf\u2028g"
        lines = ["id,store,title,description", f'a,ios,T,"{description}"', "b,android,,quiz"]
        records = []
        for end in ("\n", "\r", "\r\n"):
            path = tmp_path / "in.csv"
            path.write_bytes((end.join(lines) + end).encode("utf-8"))
            records.append(ingest(path).records)
        assert records[0][0].description == description
        assert [r.id for r in records[0]] == ["a", "b"]
        assert records[1] == records[0] and records[2] == records[0]
        # Blank lines hold no record, whatever their line ending.
        for text, ids in (("id,store,title,description\n1,ios,T,z\n\n2,ios,T,z\n", ["1", "2"]),
                          ("id,store,title,description\n1,ios,T,z\n\n\n", ["1"]),
                          ("id,store,title,description\r\n\r\n1,ios,T,z\r\n", ["1"])):
            path.write_bytes(text.encode("utf-8"))
            assert [r.id for r in ingest(path).records] == ids

    def test_json_input(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([
            {"id": "a", "store": "ios", "title": "Quiz", "description": "fun",
             "gamification_label": 1},
        ]), encoding="utf-8")
        ds = ingest(path)
        assert ds.records[0].gamification_label == 1

    @pytest.mark.parametrize("field, value", [
        ("store", 5), ("title", ["x"]), ("title", 3), ("description", {"a": "quiz"}),
        ("app_type", 1), ("language", ["en"]), ("id", ["a"]), ("id", 1.5), ("id", True),
    ])
    def test_json_text_fields_must_be_strings(self, monkeypatch, tmp_path, field, value):
        good = {"id": "a", "store": "ios", "title": "", "description": "quiz"}
        bad = {**good, "id": "b", field: value}
        monkeypatch.setattr("sys.stdin", stdin_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n"))
        path = tmp_path / "in.json"
        path.write_text(json.dumps([good, bad]), encoding="utf-8")
        for source in ("-", path):
            with pytest.raises(ParseError, match=f"row 2: field {field!r}"):
                ingest(source)

    def test_json_integer_id_becomes_string(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([{"id": 7, "store": "ios", "title": "", "description": ""}]),
                        encoding="utf-8")
        assert ingest(path).records[0].id == "7"

    def test_dataset_file_round_trip(self, tmp_path):
        rows = [{"id": "a", "store": "ios", "title": "T", "description": "quiz",
                 "gamification_label": "1"}]
        raw = tmp_path / "in.csv"
        write_csv(raw, rows)
        ds = ingest(raw)
        out = tmp_path / "dataset.json"
        save_dataset(ds, out)
        ds2 = load_dataset(out)
        assert [r.id for r in ds2.records] == ["a"]
        assert ds2.records[0].gamification_label == 1

    def test_dataset_file_keeps_every_field(self, tmp_path):
        records = [
            AppRecord(id="a", store="android", title="Quiz", description="Track fun",
                      gamification_label=1, app_type="health", language="en"),
            AppRecord(id="b", store="ios", title="", description="",
                      gamification_label=0, app_type=None, language=None),
            AppRecord(id="c", store="other", title="Ünïcode", description="line\nbreak",
                      gamification_label=None, app_type="breast_cancer", language="de"),
        ]
        out = tmp_path / "dataset.json"
        save_dataset(Dataset(records=records), out)
        assert load_dataset(out).records == records
        # Records are slotted, so each field is written from `fields(AppRecord)`, in order.
        assert not hasattr(records[0], "__dict__")
        assert list(json.loads(out.read_text(encoding="utf-8"))["records"][0]) == [
            "id", "store", "title", "description", "gamification_label", "app_type",
            "language"]

    def test_stdin_json_lines(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_text(
            '{"description": "quiz"}\n'
            "\n"
            '  \n'
            '{"id": "x", "store": "IOS", "title": "T", "gamification_label": 1}\n'))
        ds = ingest("-")
        assert ds.records == [
            AppRecord(id="stdin-1", store="other", title="", description="quiz"),
            AppRecord(id="x", store="ios", title="T", description="", gamification_label=1),
        ]
        assert ds.source == "-"

    @pytest.mark.parametrize("text, row, message", [
        ('{"description": "quiz"}\n\n[1]\n', 3, "record is not an object"),
        ('\n{"description": "fun"}\n{bad\n', 3, "invalid JSON"),
        ('{"id": "a"}\r\n\r\n{"gamification_label": 2}\r\n', 3,
         "gamification_label must be 0 or 1, got 2"),
        ('{"id": "a"}\r\r{"gamification_label": 2}\r', 3,
         "gamification_label must be 0 or 1, got 2"),
        # JSON true, false and 1.0 equal 1, 0 and 1, but are not labels.
        ('{"id": "a"}\n{"gamification_label": true}\n', 2,
         "gamification_label must be 0 or 1, got True"),
        ('{"id": "a"}\n{"gamification_label": false}\n', 2,
         "gamification_label must be 0 or 1, got False"),
        ('{"id": "a"}\n{"gamification_label": 1.0}\n', 2,
         "gamification_label must be 0 or 1, got 1.0"),
    ], ids=["not an object", "malformed JSON", "bad label after CRLF", "bad label after CR",
            "label true", "label false", "label 1.0"])
    def test_stdin_errors_name_the_line(self, monkeypatch, text, row, message):
        monkeypatch.setattr("sys.stdin", stdin_text(text))
        with pytest.raises(ParseError) as exc:
            ingest("-")
        assert exc.value.row == row
        assert str(exc.value).startswith(f"row {row}: {message}")

    def test_stdin_invalid_utf8_rejected(self, monkeypatch):
        # A text stream whose error handler would otherwise let the byte through.
        raw = io.BytesIO(b'{"description": "quiz \xff"}\n')
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8",
                                                          errors="surrogateescape"))
        with pytest.raises(ParseError, match="UTF-8"):
            ingest("-")
        assert not raw.closed  # the decoder is detached, not closed, on an error too

    def test_byte_order_mark_accepted(self, monkeypatch, tmp_path):
        rows = [{"id": "a", "store": "ios", "title": "Quiz", "description": "Ünïcode fun",
                 "gamification_label": "1", "app_type": "", "language": ""}]
        csv_path, json_path = tmp_path / "in.csv", tmp_path / "in.json"
        write_csv(csv_path, rows)
        json_path.write_text(json.dumps(rows, ensure_ascii=False), encoding="utf-8")
        lines = json.dumps(rows[0], ensure_ascii=False).encode("utf-8") + b"\n"
        for path in (csv_path, json_path):
            plain = ingest(path).records
            bom = tmp_path / f"bom-{path.name}"
            bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert ingest(bom).records == plain
        for raw in (lines, b"\xef\xbb\xbf" + lines):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
            assert ingest("-").records == plain

    @pytest.mark.parametrize("header", [
        ["description", "extra", "store", "id", "title"],
        ["language", "title", "gamification_label", "id", "extra", "description", "app_type",
         "store"],
    ], ids=["no optional columns", "every column"])
    def test_csv_columns_are_read_by_name(self, tmp_path, header):
        # Columns in any order, and one the reader does not read: the records are those of
        # the JSON holding the same fields.
        rows = [
            {"id": "a", "store": " IOS", "title": "Quiz é", "description": "track, fun",
             "gamification_label": "1", "app_type": "health", "language": "en", "extra": "x"},
            {"id": "7", "store": "android", "title": "", "description": "line\nbreak",
             "gamification_label": "", "app_type": "", "language": "", "extra": ""},
            {"id": "c", "store": "other", "title": "T", "description": "",
             "gamification_label": "0", "app_type": "misc", "language": "de", "extra": "y"},
        ]
        csv_path, json_path = tmp_path / "in.csv", tmp_path / "in.json"
        write_csv(csv_path, [{c: r[c] for c in header} for r in rows], fieldnames=header)
        read = [c for c in header if c != "extra"]
        docs = [{c: ({"": None, "0": 0, "1": 1}[r[c]] if c == "gamification_label" else r[c])
                 for c in read} for r in rows]
        json_path.write_text(json.dumps(docs), encoding="utf-8")
        records = ingest(csv_path).records
        assert records == ingest(json_path).records
        assert [r.store for r in records] == ["ios", "android", "other"]
        if "app_type" in header:
            assert [r.gamification_label for r in records] == [1, None, 0]
            assert [r.app_type for r in records] == ["health", None, "misc"]

    @pytest.mark.parametrize("header, bad, row, message", [
        ("id,store,title,description", "b,symbian,T,x", 3,
         "unknown store: 'symbian' (expected android, ios or other)"),
        ("id,store,title,description,gamification_label", "b,ios,T,x,2", 3,
         "gamification_label must be 0 or 1, got '2'"),
        ("id,store,title,description,gamification_label", "b,ios,T,x,1.0", 3,
         "gamification_label must be 0 or 1, got '1.0'"),
        ("id,store,title,description", ",ios,T,x", 3, "record id must be nonempty"),
        ("id,store,title,description,app_type", "b,ios,T,x,sports", 3,
         "record 'b': app_type must be one of ('breast_cancer', 'health', 'misc')"),
        ("id,store,title,description", "b,ios,T", 3, "3 fields, but the header has 4"),
        ("id,store,title,description", "b,ios,T,x,y", 3, "5 fields, but the header has 4"),
        ("id,store,title,description", 'q,ios,T,"two\nlines"\nb,symbian,T,x', 5,
         "unknown store: 'symbian' (expected android, ios or other)"),
    ], ids=["unknown store", "label 2", "label 1.0", "empty id", "bad app_type", "short row",
            "long row", "after a quoted line break"])
    def test_csv_faults_name_their_row(self, tmp_path, header, bad, row, message):
        path = tmp_path / "in.csv"
        first = "a,ios,T,quiz" + "," * (header.count(",") - 3)
        path.write_text(f"{header}\n{first}\n{bad}\n", encoding="utf-8")
        ids = []
        with pytest.raises(ParseError) as exc:
            ids.extend(r.id for r in read_records(path))
        assert ids == (["a", "q"] if bad.startswith("q,") else ["a"])
        assert exc.value.row == row and str(exc.value) == f"row {row}: {message}"

    def test_dataset_file_is_reproducible(self, monkeypatch, tmp_path):
        class Clock(datetime):
            """A wall clock a day further on at every reading."""
            ticks = 0

            @classmethod
            def now(cls, tz=None):
                cls.ticks += 1
                return datetime(2020, 1, cls.ticks, tzinfo=tz)

        # Whatever clock the reader might consult moves on between the two runs.
        monkeypatch.setattr("gamiscreen.pipeline.datetime", Clock, raising=False)
        raw = tmp_path / "in.csv"
        write_csv(raw, [{"id": "a", "store": "ios", "title": "T", "description": "quiz"}])
        outs = [tmp_path / "one.json", tmp_path / "two.json"]
        for out in outs:
            save_dataset(ingest(raw), out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_published_marginals_fixture(self):
        # corpus engineered to the published basic characteristics:
        # 1176 records, 625 android / 551 ios, 241 positive labels
        records = []
        for i in range(1176):
            store = "android" if i < 625 else "ios"
            app_type = ("breast_cancer" if i < 599 else "health" if i < 1056 else "misc")
            records.append(AppRecord(id=f"r{i}", store=store, title="t", description="d",
                                     gamification_label=1 if i < 241 else 0,
                                     app_type=app_type))
        s = Dataset(records=records).summary()
        assert s["n_records"] == 1176
        assert s["by_store"] == {"android": 625, "ios": 551, "other": 0}
        assert s["by_app_type"] == {"breast_cancer": 599, "health": 457, "misc": 120}
        assert s["n_positive"] == 241
        assert s["prevalence"] == pytest.approx(241 / 1176)


class TestSplit:
    def test_two_thirds_sizes(self):
        gen, val = split(1176, seed=1)
        assert (len(gen), len(val)) == (784, 392)
        assert gen.dtype == val.dtype == np.intp

    def test_smallest_case(self):
        gen, val = split(3, seed=1)
        assert (len(gen), len(val)) == (2, 1)

    def test_determinism(self):
        a, b, c = split(100, seed=42), split(100, seed=42), split(100, seed=43)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_too_few(self):
        with pytest.raises(TooFewRecordsError):
            split(2, seed=1)

    def test_negative_seed(self):
        # `Random(-7)` would give the `Random(7)` split under another recorded seed.
        with pytest.raises(InputError):
            split(10, seed=-7)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(3, 60))
    def test_partition_property(self, seed, n):
        gen, val = split(n, seed)
        assert sorted([*gen.tolist(), *val.tolist()]) == list(range(n))
        assert len(gen) == round(2 * n / 3)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(3, 60))
    def test_ids_are_the_shuffled_ids(self, seed, n):
        # The positions are 0..n-1 as `Random(seed)` shuffles them, cut at round(2n/3).
        rows = list(range(n))
        Random(seed).shuffle(rows)
        cut = round(2 * n / 3)
        gen, val = split(n, seed)
        assert (gen.tolist(), val.tolist()) == (rows[:cut], rows[cut:])

    def test_the_commands_cut_with_split(self, small_corpus, monkeypatch):
        # `run_study` and a group `evaluate` look `split` up in `pipeline`, where the
        # benchmark's span wraps it; "all" needs no split.
        calls = []
        monkeypatch.setattr("gamiscreen.pipeline.split",
                            lambda n, seed: calls.append((n, seed)) or split(n, seed))
        n = sum(r.gamification_label is not None for r in small_corpus.records)
        model = run_study(small_corpus.records, seed=6).model
        assert calls == [(n, 6)]
        for group, cuts in (("generation", [(n, 6)]), ("validation", [(n, 6)]), ("all", [])):
            calls.clear()
            evaluate(model, small_corpus.records, group)
            assert calls == cuts


class TestRunStudy:
    def test_forced_roster_matches_grouping(self, small_corpus, grouping):
        report = run_study(small_corpus.records, seed=3)
        assert report.model.feature_names == grouping.names
        assert report.model.grouping == grouping and report.model.seed == 3

    def test_strict_mode_subset(self, small_corpus, grouping):
        report = run_study(small_corpus.records, seed=3, selection="strict")
        assert set(report.model.feature_names) <= set(grouping.names)
        assert len(report.model.feature_names) >= 1

    @pytest.mark.parametrize("selection", ["forced", "strict"])
    def test_report_config_and_univariate_keys(self, small_corpus, selection):
        doc = run_study(small_corpus.records, seed=3, selection=selection).to_dict()
        assert list(doc["config"].items()) == [
            ("selection", selection), ("alpha", 0.05), ("calibration_min_positives", 5)]
        for entry in doc["univariate"]:
            assert list(entry) == ["variable", "odds_ratio", "ci_low", "ci_high", "p_value",
                                   "error"]

    def test_unknown_selection_rejected(self, small_corpus):
        with pytest.raises(InputError) as exc:
            run_study(small_corpus.records, seed=3, selection="lasso")
        assert str(exc.value) == "unknown selection mode: 'lasso'"

    def test_unknown_selection_extracts_no_feature(self, small_corpus, monkeypatch):
        extracted = []
        monkeypatch.setattr("gamiscreen.pipeline.feature_code",
                            lambda *args: extracted.append(args))
        with pytest.raises(InputError, match="^unknown selection mode: 'bogus'$"):
            run_study(small_corpus.records, seed=3, selection="bogus")
        assert extracted == []

    @pytest.mark.parametrize("selection, seed, message", [
        ("lasso", 3, "unknown selection mode: 'lasso'"),
        ("forced", -1, "seed must be nonnegative, got -1"),
    ], ids=["unknown selection", "negative seed"])
    def test_refusal_takes_no_record(self, selection, seed, message):
        started = []

        def records():
            started.append(True)
            yield from ()

        with pytest.raises(InputError) as exc:
            run_study(records(), seed=seed, selection=selection)
        assert str(exc.value) == message
        assert started == []

    def test_dataset_block_is_the_dataset_summary(self, small_corpus):
        # unlabeled records with an app type in between, read once from a one-shot iterator
        extra = [AppRecord(id=f"u{i}", store=("android", "other")[i % 2], description="quiz",
                           app_type=("health", "misc", None)[i % 3]) for i in range(7)]
        records = small_corpus.records[:400] + extra + small_corpus.records[400:]
        report = run_study(iter(records), seed=3)
        assert report.dataset_summary == Dataset(records=records).summary()
        assert report.dataset_summary["n_records"] == len(small_corpus.records) + 7
        assert report.dataset_summary["by_app_type"] == {
            "breast_cancer": 0, "health": 3, "misc": 2}
        assert run_study(small_corpus.records, seed=3).to_dict()["records"] == \
            report.to_dict()["records"]

    def test_perfect_predictor_aborts_with_stage(self, grouping):
        # labels equal the Game Labels bit exactly; other variables vary
        extras = ["quiz", "diary", "track", "story", "progress", "purpose", "quest",
                  "routine", "statistics", "change", "engage", "player", "fun"]
        records = []
        for i in range(120):
            has_game = i % 3 == 0
            desc = extras[i % len(extras)] + (" game" if has_game else " walk")
            records.append(AppRecord(
                id=f"p{i}", store="ios", title="", description=desc,
                gamification_label=int(has_game)))
        with pytest.raises(SeparationError) as exc:
            run_study(records, seed=1)
        assert "Game Labels" in exc.value.variables
        assert exc.value.stage is not None

    def test_population_auc_recovered(self, pretrained, grouping):
        """Monte Carlo oracle: AUC of a fitted study approximates the
        population AUC enumerated from the generating model."""
        corpus = synthetic_corpus(pretrained, grouping, n=5000, seed=77)
        report = run_study(corpus.records, seed=77)

        # population AUC over all 2^14 feature patterns
        prev = 0.12
        beta = pretrained.coefficients[1:]
        k = len(beta)
        patterns = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)
        p_pattern = np.prod(np.where(patterns == 1, prev, 1 - prev), axis=1)
        score = 1 / (1 + np.exp(-(pretrained.intercept + patterns @ beta)))
        w_pos = p_pattern * score
        w_neg = p_pattern * (1 - score)
        order = np.argsort(score, kind="mergesort")
        s, wp, wn = score[order], w_pos[order], w_neg[order]
        # group exact ties
        boundaries = np.r_[np.where(np.diff(s))[0] + 1, len(s)]
        start = 0
        cum_neg = 0.0
        num = 0.0
        for end in boundaries:
            gp, gn = wp[start:end].sum(), wn[start:end].sum()
            num += gp * cum_neg + 0.5 * gp * gn
            cum_neg += gn
            start = end
        population_auc = num / (w_pos.sum() * w_neg.sum())

        assert abs(report.roc_generation.auc - population_auc) < 0.03
        assert abs(report.roc_validation.auc - population_auc) < 0.03

    def test_report_self_consistency(self, small_corpus):
        report = run_study(small_corpus.records, seed=5)
        doc = report.to_dict()
        recs = doc["records"]
        assert len(recs) == doc["dataset"]["n_labeled"]
        assert sum(r["label"] for r in recs) == doc["dataset"]["n_positive"]
        for group in ("generation", "validation"):
            sub = [r for r in recs if r["group"] == group]
            roc = g.roc_auc([r["probability"] for r in sub], [r["label"] for r in sub])
            assert roc.auc == doc["roc"][group]["auc"]
        # per-record reference for the vectorized study probabilities
        grouping = g.default_grouping()
        bits = {r.id: g.extract_features(r, grouping).bits for r in small_corpus.records}
        for r in recs:
            assert r["probability"] == g.predict(report.model, bits[r["id"]])

    @pytest.mark.parametrize("seed", [4, 11])
    def test_report_records_are_the_split(self, small_corpus, grouping, tmp_path, capsys, seed):
        # The records are the labeled records at `split`'s generation positions, then at its
        # validation positions, each with its group, its own label and the model's probability
        # for its bits; the split block and `train`'s stdout give the two groups' sizes.
        report = run_study(small_corpus.records, seed=seed)
        doc = report.to_dict()
        ids = [r.id for r in small_corpus.records if r.gamification_label is not None]
        gen, val = split(len(ids), seed)
        assert [(r["id"], r["group"]) for r in doc["records"]] == [
            *((ids[i], "generation") for i in gen), *((ids[i], "validation") for i in val)]
        by_id = {r.id: r for r in small_corpus.records}
        for rec in doc["records"]:
            app = by_id[rec["id"]]
            assert type(rec["label"]) is int and rec["label"] == app.gamification_label
            assert rec["probability"] == predict(report.model,
                                                 extract_features(app, grouping).bits)
        sizes = {"n_generation": len(gen), "n_validation": len(val)}
        assert doc["split"] == {"seed": seed, **sizes}
        save_dataset(small_corpus, tmp_path / "dataset.json")
        assert main(["train", "--dataset", str(tmp_path / "dataset.json"), "--seed", str(seed),
                     "--out", str(tmp_path / "model.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {k: out[k] for k in sizes} == sizes

    def test_grouping_keyword_outside_bundled_lexicon(self):
        # "zorblax" is in no bundled lexicon; its bit must still be set and fitted.
        grouping = VariableGrouping(variables=(("A", frozenset({"quiz"})),
                                               ("B", frozenset({"zorblax"}))))
        truth = FittedModel(variable_names=("constant", "A", "B"),
                            coefficients=np.array([-1.0, 1.0, 1.5]),
                            standard_errors=np.zeros(3))
        corpus = synthetic_corpus(truth, grouping, n=600, seed=21)
        report = run_study(corpus.records, grouping=grouping, seed=2)
        assert report.model.feature_names == ("A", "B")
        assert [u.error for u in report.univariate] == [None, None]
        lo, hi = report.model.conf_int()[2]
        assert lo < 1.5 < hi

    def test_one_probability_per_pattern(self, small_corpus, grouping, monkeypatch):
        calls = []
        monkeypatch.setattr("gamiscreen.pipeline.probabilities",
                            lambda model, X: calls.append(X.tolist()) or probabilities(model, X))
        report = run_study(small_corpus.records, seed=9)
        # one `probabilities` call, on exactly the distinct patterns; the corpus repeats patterns
        labeled = [r for r in small_corpus.records if r.gamification_label is not None]
        assert len(calls) == 1
        assert sorted(map(tuple, calls[0])) == sorted(
            {extract_features(r, grouping).bits for r in labeled})
        assert len(calls[0]) < len(labeled) / 2
        bits = {r.id: extract_features(r, grouping).bits for r in labeled}
        for rec in report.to_dict()["records"]:
            assert rec["probability"] == predict(report.model, bits[rec["id"]])

    @pytest.mark.parametrize("selection", ["forced", "strict"])
    def test_screen_and_fit_get_pattern_counts(self, small_corpus, grouping, monkeypatch,
                                               selection):
        # Each gets at most one row per distinct generation pattern, whose trials and events
        # add up to the generation group's records and positives.
        calls = {}
        for name, fn in (("univariate_screen", univariate_screen), ("fit_logistic", fit_logistic)):
            def spy(X, y, names=None, n=1, name=name, fn=fn):
                calls[name] = (len(X), np.sum(y), np.sum(np.broadcast_to(n, np.shape(y))))
                return fn(X, y, names=names, n=n)
            monkeypatch.setattr(f"gamiscreen.pipeline.{name}", spy)
        report = run_study(small_corpus.records, seed=9, selection=selection)
        records = {r.id: r for r in small_corpus.records if r.gamification_label is not None}
        gen = [records[report.ids[i]] for i in report.split_rows[0]]
        n_patterns = len({extract_features(r, grouping).bits for r in gen})
        assert n_patterns < len(gen) / 2
        positives = sum(r.gamification_label for r in gen)
        assert sorted(calls) == ["fit_logistic", "univariate_screen"]
        for rows, events, trials in calls.values():
            assert rows <= n_patterns
            assert (events, trials) == (positives, len(gen))

    def test_determinism(self, small_corpus):
        a, b = io.StringIO(), io.StringIO()
        run_study(small_corpus.records, seed=9).to_json(a)
        run_study(small_corpus.records, seed=9).to_json(b)
        assert a.getvalue() == b.getvalue()

    def test_report_memory_per_record(self, pretrained, grouping):
        # Per labeled listing a report holds an id reference, a uint8 label, an intp split
        # position and a float64 probability: 25 B and the arrays' slack, not a boxed position.
        corpus = synthetic_corpus(pretrained, grouping, n=20_000, seed=33).records
        inputs = {n: corpus[:n] for n in (10_000, 20_000)}
        run_study(inputs[10_000], grouping, seed=5)  # a cold first run would add its caches
        held = {}
        for n, records in inputs.items():
            tracemalloc.start()
            try:
                report = run_study(records, grouping, seed=5)
                gc.collect()  # empties the freelists, which hold no part of the report
                held[n] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(report.ids) == n
            del report
        assert (held[20_000] - held[10_000]) / 10_000 <= 48


class TestEvaluate:
    @pytest.mark.parametrize("selection", ["forced", "strict"])
    def test_equals_the_study_report(self, small_corpus, selection):
        report = run_study(small_corpus.records, seed=5, selection=selection)
        doc = report.to_dict()
        for split in ("all", "generation", "validation"):
            recs = [r for r in doc["records"] if split in ("all", r["group"])]
            probs, labels = [r["probability"] for r in recs], [r["label"] for r in recs]
            roc = roc_auc(probs, labels)
            evaluated = evaluate(report.model, small_corpus.records, split)
            assert evaluated == {
                "split": split, "n": len(recs), "auc": roc.auc, "auc_ci_low": roc.auc_ci_low,
                "auc_ci_high": roc.auc_ci_high,
                "calibration": calibration_to_dict(calibration_strata(probs, labels))}
            if split != "all":
                block = doc["roc"][split]
                assert {k: evaluated[k] for k in ("auc", "auc_ci_low", "auc_ci_high")} == {
                    k: block[k] for k in ("auc", "auc_ci_low", "auc_ci_high")}
        assert evaluated["calibration"] == doc["calibration"]  # the validation group's

    @pytest.mark.parametrize("keywords, split, message", [
        (False, "all", "model carries no keywords; cannot score raw text"),
        (True, "test", "unknown split: 'test'"),
        (True, "validation",
         "model records no split seed, so its validation group is unknown; use --split all"),
    ], ids=["no keywords", "unknown split", "group split without a seed"])
    def test_refusal_takes_no_record(self, pretrained, small_corpus, keywords, split, message):
        # the bundled model records no split seed
        model = pretrained if keywords else replace(pretrained, grouping=None)
        taken = []
        records = (taken.append(r) or r for r in small_corpus.records)
        with pytest.raises(InputError) as exc:
            evaluate(model, records, split)
        assert str(exc.value) == message
        assert taken == []

    @pytest.mark.parametrize("split", ["validation", "generation"],
                             ids=["the model's", "the model's, generation group"])
    def test_negative_seed_takes_no_record(self, pretrained, split):
        started = []

        def records():
            started.append(True)
            yield from ()

        with pytest.raises(InputError, match="^seed must be nonnegative, got -1$"):
            evaluate(replace(pretrained, seed=-1), records(), split)
        assert started == []

    @pytest.mark.parametrize("records", [
        [], [AppRecord(id="a", store="ios", description="quiz"),
             AppRecord(id="b", store="android", description="diary")],
    ], ids=["no records", "unlabeled records"])
    def test_no_labeled_record_is_too_few_records(self, pretrained, records):
        with pytest.raises(TooFewRecordsError, match="^no labeled records to evaluate$"):
            evaluate(pretrained, records)


class TestScore:
    def test_contribution_decomposition(self, pretrained, small_corpus):
        import math
        results = score_records(pretrained, small_corpus.records[:50])
        for r in results:
            logit_p = math.log(r.probability / (1 - r.probability))
            assert abs(pretrained.intercept + sum(r.contributions.values()) - logit_p) < 1e-9

    def test_no_text_flag(self, pretrained):
        rec = AppRecord(id="e", store="ios", title="", description="")
        r = score_records(pretrained, [rec])[0]
        assert r.flags == ("no_text",)
        assert r.probability == pytest.approx(0.0546, abs=5e-4)

    def test_output_order(self, pretrained, small_corpus):
        results = score_records(pretrained, small_corpus.records[:20])
        assert [r.id for r in results] == [r.id for r in small_corpus.records[:20]]

    def test_keyword_sum_example(self, pretrained):
        import math
        rec = AppRecord(id="s", store="ios", title="",
                        description="Track your treatment diary and take our quiz")
        r = score_records(pretrained, [rec])[0]
        expected_logit = -2.85 + math.log(23.91) + math.log(14.53) + math.log(24.44)
        assert r.probability == pytest.approx(1 / (1 + math.exp(-expected_logit)), abs=1e-12)
        assert set(r.matched_keywords) == {"track", "diary", "quiz"}

    def test_mixed_sign_example(self, pretrained):
        rec = AppRecord(id="m", store="ios", title="", description="multiplayer team game")
        r = score_records(pretrained, [rec])[0]
        assert r.probability == pytest.approx(0.477, abs=1e-3)

    def test_no_records(self, pretrained):
        assert score_records(pretrained, []) == []

    def test_one_table_per_chunk(self, pretrained, small_corpus, monkeypatch):
        whole = score_records(pretrained, small_corpus.records)
        assert type(whole) is list and len(whole) == 900 <= SCORE_CHUNK
        calls = []
        monkeypatch.setattr("gamiscreen.pipeline.probabilities",
                            lambda model, X: calls.append(len(X)) or probabilities(model, X))
        monkeypatch.setattr("gamiscreen.pipeline.SCORE_CHUNK", 400)
        consumed = []
        stream = iter_scores(pretrained, (consumed.append(r) or r for r in small_corpus.records))
        assert consumed == [] and calls == []
        # The first result comes after one chunk has been read and tabulated, not before.
        first = next(stream)
        assert len(consumed) == 400 and len(calls) == 1
        assert [first, *stream] == whole
        assert len(consumed) == 900 and len(calls) == 3

    def test_model_without_keywords_takes_no_record(self, pretrained):
        model, taken, writes = replace(pretrained, grouping=None), [], []
        records = (taken.append(r) or r for r in [AppRecord(id="a", store="ios")])
        for score in (iter_scores, lambda m, rs: write_scores(m, rs, writes.append, True)):
            with pytest.raises(InputError, match="model carries no keywords"):
                score(model, records)
        assert taken == [] and writes == []

    @pytest.mark.parametrize("explain", [False, True])
    def test_writer_writes_each_chunk_once(self, pretrained, monkeypatch, explain):
        # Three chunks of 4, 4 and 3: the first listing's pattern recurs in the last chunk,
        # which also holds the only listing without text.
        monkeypatch.setattr("gamiscreen.pipeline.SCORE_CHUNK", 4)
        texts = ["quiz time", "multiplayer game", "track your diary", "nothing here",
                 "daily story", "Quiz and GAME", "level up", "badges \u00e9toile",
                 "more text", "", "a quiz"]
        records = [AppRecord(id=f"r{i}\u00e9", store="ios", description=t)
                   for i, t in enumerate(texts)]
        results = score_records(pretrained, records)
        assert results[10].bits == results[0].bits and results[9].flags == ("no_text",)
        assert [r.id for r in results if r.flags] == ["r9\u00e9"]
        writes = []
        write_scores(pretrained, iter(records), writes.append, explain)
        assert [w.count("\n") for w in writes] == [4, 4, 3]
        assert "".join(writes) == "".join(json.dumps(r.to_dict(explain)) + "\n"
                                          for r in results)

    def test_each_chunk_is_emptied_before_the_next_is_read(self, pretrained, small_corpus,
                                                          monkeypatch):
        # A consumer may still hold a chunk's records and features while it asks for the
        # next chunk; the step empties both lists first, so they hold nothing.
        monkeypatch.setattr("gamiscreen.pipeline.SCORE_CHUNK", 400)
        held, lengths = [], []

        def records():
            for i, r in enumerate(small_corpus.records):
                if i == 400:
                    lengths.append([len(x) for x in held])
                yield r

        chunks = _score_chunks(pretrained, records())
        held.extend(next(chunks)[:2])
        assert [len(x) for x in held] == [400, 400]
        next(chunks)
        assert lengths == [[0, 0]]

    def test_one_shot_iterator(self, pretrained, small_corpus):
        records = small_corpus.records[:200]
        assert score_records(pretrained, iter(records)) == score_records(pretrained, records)

    def test_pattern_table(self):
        # The first variable is the highest bit of a code.
        codes = [0b010, 0b110, 0b010, 0b000, 0b110]
        patterns, rows = pattern_table(iter(codes), 3)
        assert patterns.dtype == np.uint8 and patterns.flags.c_contiguous
        assert patterns.tolist() == [[0, 1, 0], [1, 1, 0], [0, 0, 0]]
        assert rows.tolist() == [0, 1, 0, 2, 1]
        assert patterns[rows].tolist() == [[int(b) for b in f"{c:03b}"] for c in codes]
        patterns, rows = pattern_table(iter(()), 3)
        assert patterns.shape == (0, 3) and rows.shape == (0,)
        # Codes of any width: 70 bits, past a 64-bit word.
        codes = [1 << 69, 1, (1 << 70) - 1, 1 << 69]
        patterns, rows = pattern_table(codes, 70)
        assert rows.tolist() == [0, 1, 2, 0]
        assert patterns.tolist() == [[1] + [0] * 69, [0] * 69 + [1], [1] * 70]

    def test_per_pattern_table_matches_per_record(self, pretrained, small_corpus,
                                                   monkeypatch):
        calls = []
        monkeypatch.setattr("gamiscreen.pipeline.probabilities",
                            lambda model, X: calls.append(X.tolist()) or probabilities(model, X))
        results = score_records(pretrained, small_corpus.records)
        # one `probabilities` call, on exactly the distinct patterns; the corpus repeats patterns
        assert len(calls) == 1
        assert sorted(map(tuple, calls[0])) == sorted({r.bits for r in results})
        assert len(calls[0]) < len(results) / 2
        for r in results:
            assert r.probability == predict(pretrained, r.bits)
            assert r.contributions == {
                name: float(pretrained.coefficients[i + 1]) * r.bits[i] if r.bits[i] else 0.0
                for i, name in enumerate(pretrained.feature_names)
            }
        before = [dict(r.contributions) for r in results]
        results[0].contributions["Diary"] = 99.0
        results[0].contributions.clear()
        assert [r.contributions for r in results[1:]] == before[1:]
        assert len({id(r.contributions) for r in results}) == len(results)


# Ids that JSON must escape: quotes, backslashes, control characters, lone surrogates and
# characters beyond the BMP, among any others.
ID_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800", "\udfff", "\U0001f600", "é"])),
    min_size=1, max_size=8)


@st.composite
def listings(draw):
    words = sorted(g.pretrained_grouping().all_keywords) + ["walk", "Étoile", "."]
    texts = st.lists(st.sampled_from(words), max_size=4).map(" ".join)
    return [AppRecord(id=i, store="ios", description=draw(texts))
            for i in draw(st.lists(ID_TEXT, min_size=1, max_size=20, unique=True))]


def assert_writer_bytes(model, records, chunk):
    """`write_scores` passes one write per chunk of `chunk` records, and its lines are
    ``json.dumps(result.to_dict(explain))`` for the results of `score_records`."""
    with unittest.mock.patch("gamiscreen.pipeline.SCORE_CHUNK", chunk):
        results = score_records(model, records)
        for explain in (False, True):
            writes = []
            write_scores(model, iter(records), writes.append, explain)
            assert len(writes) == -(-len(records) // chunk)
            assert "".join(writes) == "".join(json.dumps(r.to_dict(explain)) + "\n"
                                              for r in results)
    return results


class TestWriterBytes:
    @settings(max_examples=60, deadline=None)
    @given(records=listings(), chunk=st.integers(1, 6))
    def test_any_id(self, pretrained, records, chunk):
        assert_writer_bytes(pretrained, records, chunk)

    @settings(max_examples=40, deadline=None)
    @given(records=listings(), chunk=st.integers(1, 6), data=st.data())
    def test_extreme_coefficients(self, pretrained, records, chunk, data):
        values = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 800.0, -800.0, 1.5])
        width = len(pretrained.coefficients)
        coefficients = data.draw(st.lists(values, min_size=width, max_size=width))
        assert_writer_bytes(replace(pretrained, coefficients=np.array(coefficients)),
                            records, chunk)

    def test_probabilities_zero_and_one(self, pretrained):
        # -800 overflows `exp` to a probability of exactly 0.0; +800 gives exactly 1.0.
        model = replace(pretrained, coefficients=np.array(
            [-800.0, 1600.0, -0.0, 5e-324, *[0.0] * (len(pretrained.coefficients) - 4)]))
        first = sorted(pretrained.grouping.members(pretrained.feature_names[0]))[0]
        records = [AppRecord(id=f"r{i}", store="ios", description=text)
                   for i, text in enumerate([first, "", "walk", f"{first} walk", first])]
        results = assert_writer_bytes(model, records, 2)
        assert [r.probability for r in results] == [1.0, 0.0, 0.0, 1.0, 1.0]
        assert [r.contributions[pretrained.feature_names[1]] for r in results] == [0.0] * 5


WIDE = 70  # variables: the first is bit 69 of a listing's code, past any 64-bit word


@pytest.fixture(scope="module")
def wide():
    """A grouping of `WIDE` variables of two keywords each, and 1,500 labeled records."""
    grouping = VariableGrouping(tuple((f"V{i:02d}", frozenset({f"kw{i:02d}", f"alt{i:02d}"}))
                                      for i in range(WIDE)))
    rng = Random(70)
    records = []
    for i in range(1500):
        chosen = [j for j in range(WIDE) if rng.random() < 0.3]
        words = [rng.choice((f"kw{j:02d}", f"ALT{j:02d}")) for j in chosen]
        label = int(rng.random() < 0.3 + 0.4 * (0 in chosen) - 0.2 * (WIDE - 1 in chosen))
        records.append(AppRecord(id=f"w{i}", store="ios", title=" ".join(words[:2]),
                                 description=" ".join(words[2:]), gamification_label=label))
    return grouping, records


def tuple_pass(labeled, grouping):
    """`_labeled_patterns` over `extract_features` tuples: labels, patterns, rows and the
    digest of the length-prefixed ids, hashed in one piece."""
    labeled, index = list(labeled), {}
    rows = [index.setdefault(extract_features(r, grouping).bits, len(index)) for r in labeled]
    keys = [r.id.encode("utf-8", "surrogatepass") for r in labeled]
    return (np.array([r.gamification_label for r in labeled], dtype=np.uint8),
            np.array(list(index), dtype=np.uint8), np.array(rows, dtype=np.intp),
            hashlib.sha256(b"".join(len(k).to_bytes(8, "big") + k for k in keys)).hexdigest())


class TestLabeledIdsDigest:
    IDS = ["a", "bc", "\u00e9", "\ud800", "x" * 300, "\u65e5\u672c"]

    def records(self, ids) -> list:
        return [AppRecord(id=i, store="ios", description="quiz", gamification_label=k % 2)
                for k, i in enumerate(ids)]

    @pytest.mark.parametrize("chunk", [1, 9, 1 << 16])
    def test_digest_of_the_length_prefixed_ids_in_any_chunks(self, chunk):
        # a lone surrogate is a legal JSON id, so it is hashed, not refused; the one update
        # per id equals the length-prefixed ids hashed in pieces of `chunk` bytes
        grouping, records = g.default_grouping(), self.records(self.IDS)
        stream = b"".join(len(k).to_bytes(8, "big") + k
                          for k in (i.encode("utf-8", "surrogatepass") for i in self.IDS))
        pieces = hashlib.sha256()
        for at in range(0, len(stream), chunk):
            pieces.update(stream[at:at + chunk])
        assert _labeled_patterns(records, grouping)[3] == tuple_pass(records, grouping)[3] \
            == pieces.hexdigest()

    @pytest.mark.parametrize("ids, digest", [
        (IDS, "1336588a52668cbb1db7fa615e79b67143ad9fd94ec4616d4824b37129712466"),
        # 340 KB of hashed bytes
        ([f"app{i:06d}" for i in range(20_000)],
         "09ce404faccaddf934dd0ecc2a0e72ec2f5962afc0b4955e853eee5bfb2adb72"),
    ], ids=["mixed", "20k"])
    def test_digest_is_frozen(self, ids, digest):
        # model files in use carry these digests: a new encoding would refuse their datasets
        assert _labeled_patterns(self.records(ids), g.default_grouping())[3] == digest

    def test_ids_are_not_run_together(self):
        grouping = g.default_grouping()
        digests = {_labeled_patterns([AppRecord(id=i, store="ios", gamification_label=0)
                                      for i in ids], grouping)[3]
                   for ids in (["ab", "c"], ["a", "bc"], ["abc"], ["c", "ab"])}
        assert len(digests) == 4

    def test_the_study_model_pins_its_labeled_records(self):
        grouping, records = g.default_grouping(), synthetic_corpus(
            g.pretrained_model(), g.pretrained_grouping(), n=300, seed=5).records
        model = run_study([*records, AppRecord(id="unlabeled", store="ios")], seed=3).model
        labeled = [r for r in records if r.gamification_label is not None]
        assert (model.n_labeled, model.labeled_ids_sha256) == (
            len(labeled), tuple_pass(labeled, grouping)[3])


class TestWideGrouping:
    def test_study_and_evaluate_match_the_tuple_pass(self, wide, monkeypatch):
        grouping, records = wide
        report = run_study(records, grouping, seed=4)
        docs = [json.dumps(report.to_dict())] + [
            json.dumps(evaluate(report.model, records, s)) for s in ("all", "validation")]
        monkeypatch.setattr("gamiscreen.pipeline._labeled_patterns", tuple_pass)
        assert [json.dumps(run_study(records, grouping, seed=4).to_dict())] + [
            json.dumps(evaluate(report.model, records, s))
            for s in ("all", "validation")] == docs
        assert report.model.feature_names == grouping.names

    def test_scores_match_the_tuple_path(self, wide):
        grouping, records = wide
        model = run_study(records, grouping, seed=4).model
        results = assert_writer_bytes(model, records, 400)
        features = [extract_features(r, grouping) for r in records]
        assert [r.bits for r in results] == [fv.bits for fv in features]
        assert [r.matched_keywords for r in results] == [
            tuple(sorted(fv.matched_keywords)) for fv in features]
        assert [r.probability for r in results] == [predict(model, fv.bits) for fv in features]
        assert {r.bits[0] for r in results} == {r.bits[-1] for r in results} == {0, 1}
