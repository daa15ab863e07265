import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gamiscreen as g
from gamiscreen.errors import (
    DuplicateIdError,
    ParseError,
    SeparationError,
    TooFewRecordsError,
    UnknownStoreError,
)
from gamiscreen.pipeline import (
    Dataset,
    StudyConfig,
    ingest,
    load_dataset,
    run_study,
    save_dataset,
    score_records,
    split,
)
from gamiscreen.textfeatures import AppRecord

from conftest import synthetic_corpus


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

    def test_unknown_store(self, tmp_path):
        path = tmp_path / "in.csv"
        write_csv(path, [{"id": "a", "store": "symbian", "title": "", "description": ""}])
        with pytest.raises(UnknownStoreError):
            ingest(path)

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

    def test_json_input(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([
            {"id": "a", "store": "ios", "title": "Quiz", "description": "fun",
             "gamification_label": 1},
        ]), encoding="utf-8")
        ds = ingest(path)
        assert ds.records[0].gamification_label == 1

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


def labeled_dataset(n):
    return Dataset(records=[
        AppRecord(id=f"x{i}", store="ios", title="", description="",
                  gamification_label=i % 2) for i in range(n)
    ])


class TestSplit:
    def test_two_thirds_sizes(self):
        plan = split(labeled_dataset(1176), seed=1)
        assert len(plan.generation_ids) == 784
        assert len(plan.validation_ids) == 392

    def test_smallest_case(self):
        plan = split(labeled_dataset(3), seed=1)
        assert (len(plan.generation_ids), len(plan.validation_ids)) == (2, 1)

    def test_determinism(self):
        ds = labeled_dataset(100)
        assert split(ds, seed=42) == split(ds, seed=42)
        assert split(ds, seed=42) != split(ds, seed=43)

    def test_too_few(self):
        with pytest.raises(TooFewRecordsError):
            split(labeled_dataset(2), seed=1)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(3, 60))
    def test_partition_property(self, seed, n):
        ds = labeled_dataset(n)
        plan = split(ds, seed)
        gen, val = set(plan.generation_ids), set(plan.validation_ids)
        assert not gen & val
        assert gen | val == {r.id for r in ds.labeled()}
        assert len(plan.generation_ids) == round(2 * n / 3)


class TestRunStudy:
    def test_forced_roster_matches_grouping(self, small_corpus, grouping):
        report = run_study(small_corpus, seed=3)
        assert report.selected_variables == grouping.names
        assert report.model.feature_names == grouping.names

    def test_strict_mode_subset(self, small_corpus, grouping):
        report = run_study(small_corpus, seed=3, config=StudyConfig(selection="strict"))
        assert set(report.selected_variables) <= set(grouping.names)
        assert len(report.selected_variables) >= 1

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
            run_study(Dataset(records=records), seed=1)
        assert "Game Labels" in exc.value.variables
        assert exc.value.stage is not None

    def test_population_auc_recovered(self, pretrained, grouping):
        """Monte Carlo oracle: AUC of a fitted study approximates the
        population AUC enumerated from the generating model."""
        corpus = synthetic_corpus(pretrained, grouping, n=5000, seed=77)
        report = run_study(corpus, seed=77)

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
        report = run_study(small_corpus, seed=5)
        doc = report.to_dict()
        recs = doc["records"]
        assert len(recs) == doc["dataset"]["n_labeled"]
        assert sum(r["label"] for r in recs) == doc["dataset"]["n_positive"]
        for group in ("generation", "validation"):
            sub = [r for r in recs if r["group"] == group]
            roc = g.roc_auc([r["probability"] for r in sub], [r["label"] for r in sub])
            assert roc.auc == doc["roc"][group]["auc"]
        # per-record reference for the vectorized study probabilities
        lexicon, grouping = g.default_lexicon(), g.default_grouping()
        bits = {r.id: g.extract_features(r, lexicon, grouping).bits for r in small_corpus.records}
        for r in recs:
            want = g.predict(report.model, bits[r["id"]])
            assert r["probability"] == pytest.approx(want, rel=0, abs=1e-12)

    def test_determinism(self, small_corpus):
        a = run_study(small_corpus, seed=9).to_json()
        b = run_study(small_corpus, seed=9).to_json()
        assert a == b


class TestScore:
    def test_contribution_decomposition(self, pretrained, small_corpus):
        import math
        grouping = g.pretrained_grouping()
        results = score_records(pretrained, grouping, small_corpus.records[:50])
        for r in results:
            logit_p = math.log(r.probability / (1 - r.probability))
            assert abs(pretrained.intercept + sum(r.contributions.values()) - logit_p) < 1e-9

    def test_no_text_flag(self, pretrained):
        grouping = g.pretrained_grouping()
        rec = AppRecord(id="e", store="ios", title="", description="")
        r = score_records(pretrained, grouping, [rec])[0]
        assert r.flags == ("no_text",)
        assert r.probability == pytest.approx(0.0546, abs=5e-4)

    def test_output_order(self, pretrained, small_corpus):
        grouping = g.pretrained_grouping()
        results = score_records(pretrained, grouping, small_corpus.records[:20])
        assert [r.id for r in results] == [r.id for r in small_corpus.records[:20]]

    def test_keyword_sum_example(self, pretrained):
        import math
        grouping = g.pretrained_grouping()
        rec = AppRecord(id="s", store="ios", title="",
                        description="Track your treatment diary and take our quiz")
        r = score_records(pretrained, grouping, [rec])[0]
        expected_logit = -2.85 + math.log(23.91) + math.log(14.53) + math.log(24.44)
        assert r.probability == pytest.approx(1 / (1 + math.exp(-expected_logit)), abs=1e-12)
        assert set(r.matched_keywords) == {"track", "diary", "quiz"}

    def test_mixed_sign_example(self, pretrained):
        grouping = g.pretrained_grouping()
        rec = AppRecord(id="m", store="ios", title="", description="multiplayer team game")
        r = score_records(pretrained, grouping, [rec])[0]
        assert r.probability == pytest.approx(0.477, abs=1e-3)
