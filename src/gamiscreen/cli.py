"""Command-line interface: ingest, train, evaluate, score, report.

Exit codes: 0 success, 2 input error, 3 statistical failure
(separation / singular / one-class), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import logit, pipeline
from .errors import InputError, StatisticalError, read_json, require_fields
from .evaluation import (
    calibration_from_dict,
    calibration_strata,
    calibration_text,
    calibration_to_dict,
    roc_auc,
    roc_csv,
    roc_svg,
)
from .pipeline import ingest, load_dataset, run_study, save_dataset, score_records
from .textfeatures import load_lexicon_file

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STATS = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamiscreen",
        description="Screen app store listings for gamification with a keyword logistic model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a raw CSV/JSON file and write dataset.json")
    p.add_argument("input")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="run the full study on a labeled dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lexicon", default=None, help="lexicon JSON; bundled default if omitted")
    p.add_argument("--select", choices=("strict", "forced"), default="forced")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--report", default=None, help="study report JSON output path")

    p = sub.add_parser("evaluate", help="evaluate a model file on a labeled dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("validation", "generation", "all"), default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the split to reproduce; the model's own by default")

    p = sub.add_parser("score", help="score records with a model (bundled model by default)")
    p.add_argument("--model", default=None)
    p.add_argument("--input", default="-", help="CSV/JSON records file, or - for stdin JSON lines")
    p.add_argument("--explain", action="store_true",
                   help="include matched keywords and per-variable contributions")

    p = sub.add_parser("report", help="render artifacts from a study report")
    p.add_argument("--study", required=True)
    p.add_argument("--roc-svg", default=None)
    p.add_argument("--roc-csv", default=None)
    p.add_argument("--roc-split", choices=("validation", "generation"), default="validation")
    p.add_argument("--table", action="store_true", help="print the human-readable summary")
    return parser


def _cmd_ingest(args) -> int:
    ds = ingest(args.input)
    save_dataset(ds, args.out)
    print(json.dumps(ds.summary(), indent=2))
    return EXIT_OK


def _cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    grouping = load_lexicon_file(args.lexicon)[1] if args.lexicon else None
    report = run_study(ds, grouping=grouping, seed=args.seed, selection=args.select)
    logit.save_model(report.model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(json.dumps({
        "auc_generation": report.roc_generation.auc,
        "auc_validation": report.roc_validation.auc,
        "aic": report.model.aic,
        "n_generation": len(report.split_plan.generation_ids),
        "n_validation": len(report.split_plan.validation_ids),
    }, indent=2))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = logit.load_model(args.model)
    ds = load_dataset(args.dataset)
    labeled = ds.labeled()
    if args.split != "all":
        seed = model.seed if args.seed is None else args.seed
        if seed is None:
            raise InputError("model records no split seed; give --seed to evaluate the "
                             f"{args.split} group")
        # The group's records; ROC and calibration depend only on the multiset of
        # (probability, label) pairs, so the numbers equal the report's.
        by_id = {r.id: r for r in labeled}
        labeled = [by_id[i] for i in getattr(pipeline.split(ds, seed), f"{args.split}_ids")]
    results = score_records(model, labeled)
    probs = np.array([r.probability for r in results])
    labels = np.array([r.gamification_label for r in labeled], dtype=float)
    roc = roc_auc(probs, labels)
    calib = calibration_strata(probs, labels)
    print(json.dumps({
        "split": args.split,
        "n": len(labeled),
        "auc": roc.auc,
        "auc_ci_low": roc.auc_ci_low,
        "auc_ci_high": roc.auc_ci_high,
        "calibration": calibration_to_dict(calib),
    }, indent=2))
    return EXIT_OK


def _cmd_score(args) -> int:
    model = logit.load_model(args.model) if args.model else logit.pretrained_model()
    for result in score_records(model, ingest(args.input).records):
        print(json.dumps(result.to_dict(explain=args.explain)))
    return EXIT_OK


def _cmd_report(args) -> int:
    study = require_fields(read_json(args.study, "study report"), "study report", records=list,
                           dataset=dict, roc=dict, calibration=dict)
    for r in study["records"]:
        require_fields(r, "study record", group=str, label=int, probability=(int, float))
    wanted = args.roc_split
    recs = [r for r in study["records"] if r["group"] == wanted]
    if (args.roc_svg or args.roc_csv) and recs:
        roc = roc_auc([r["probability"] for r in recs], [r["label"] for r in recs])
        if args.roc_svg:
            with open(args.roc_svg, "w", encoding="utf-8") as fh:
                fh.write(roc_svg(roc))
        if args.roc_csv:
            with open(args.roc_csv, "w", encoding="utf-8") as fh:
                fh.write(roc_csv(roc))
    if args.table:
        roc_info = study["roc"]
        print(f"records: {study['dataset']['n_records']}  "
              f"labeled: {study['dataset']['n_labeled']}  "
              f"positive: {study['dataset']['n_positive']}")
        for group in ("generation", "validation"):
            r = roc_info[group]
            print(f"AUC ({group}): {r['auc']:.3f} "
                  f"(95% CI {r['auc_ci_low']:.3f}-{r['auc_ci_high']:.3f})")
        print(calibration_text(calibration_from_dict(study["calibration"])), end="")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "score": _cmd_score,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except StatisticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STATS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
