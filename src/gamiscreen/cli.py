"""Command-line interface: ingest, train, evaluate, score, report.

Exit codes: 0 success, 2 input error, 3 statistical failure (separation /
singular / one-class), 4 I/O error, including a stdout its reader closed early.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import logit, pipeline
from .errors import InputError, StatisticalError, read_json, require_fields
from .evaluation import calibration_from_dict, calibration_text, roc_auc, roc_csv, roc_svg
from .pipeline import ingest, read_records, run_study, save_dataset
from .pipeline import load_dataset, score_records  # noqa: F401  (the traced benchmark wraps them)
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
    p.add_argument("--split", choices=("validation", "generation", "all"), default="all",
                   help="a group is cut with the seed the model records")

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
    print(json.dumps(save_dataset(ingest(args.input), args.out), indent=2))
    return EXIT_OK


def _cmd_train(args) -> int:
    grouping = load_lexicon_file(args.lexicon)[1] if args.lexicon else None
    report = run_study(read_records(args.dataset), grouping=grouping, seed=args.seed,
                       selection=args.select)
    logit.save_model(report.model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            report.to_json(fh)
    print(json.dumps({
        "auc_generation": report.roc_generation.auc,
        "auc_validation": report.roc_validation.auc,
        "aic": report.model.aic,
        "n_generation": len(report.split_rows[0]),
        "n_validation": len(report.split_rows[1]),
    }, indent=2))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = logit.load_model(args.model)
    doc = pipeline.evaluate(model, read_records(args.dataset), args.split)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_score(args) -> int:
    model = logit.load_model(args.model) if args.model else logit.pretrained_model()
    pipeline.write_scores(model, read_records(args.input), sys.stdout.write, args.explain)
    return EXIT_OK


def _cmd_report(args) -> int:
    study = read_json(args.study, "study report")
    if args.table:  # only the blocks the table prints, checked before any file is written
        require_fields(study, "study report", dataset=dict, roc=dict, calibration=dict)
        counts = require_fields(study["dataset"], "study dataset", n_records=int,
                                n_labeled=int, n_positive=int)
        aucs = {g: require_fields(study["roc"].get(g), f"study {g} ROC", auc=(int, float),
                                  auc_ci_low=(int, float), auc_ci_high=(int, float))
                for g in ("generation", "validation")}
        calibration = calibration_from_dict(study["calibration"])
    if args.roc_svg or args.roc_csv:
        records = require_fields(study, "study report", records=list)["records"]
        for r in records:
            require_fields(r, "study record", group=str, label=int, probability=(int, float))
        recs = [r for r in records if r["group"] == args.roc_split]
        roc = roc_auc([r["probability"] for r in recs], [r["label"] for r in recs])
        if args.roc_svg:
            with open(args.roc_svg, "w", encoding="utf-8") as fh:
                fh.write(roc_svg(roc))
        if args.roc_csv:
            with open(args.roc_csv, "w", encoding="utf-8") as fh:
                fh.write(roc_csv(roc))
    if args.table:
        print("records: {n_records}  labeled: {n_labeled}  positive: {n_positive}".format(**counts))
        for g, r in aucs.items():
            print(f"AUC ({g}): {r['auc']:.3f} (95% CI {r['auc_ci_low']:.3f}-{r['auc_ci_high']:.3f})")
        print(calibration_text(calibration), end="")
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
