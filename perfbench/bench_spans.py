"""Span tracing from outside the package, for the benchmark's traced pass.

``Tracer.install`` replaces each traced function with a wrapper at the place
its caller looks it up (``gamiscreen.pipeline.extract_features``, not
``gamiscreen.textfeatures.extract_features``, because ``run_study`` and
``score_records`` call the name bound in ``pipeline``). Spans stay in memory
as ``(op, name, start_ns, end_ns, parent)`` tuples until ``write`` is called;
``restore`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute, span name). Several lookup sites may share one name.
SPANS = (
    ("gamiscreen.cli", "main", "cli.main"),
    ("gamiscreen.cli", "load_dataset", "pipeline.load"),
    ("gamiscreen.cli", "ingest", "pipeline.load"),
    ("gamiscreen.cli", "run_study", "pipeline.study"),
    ("gamiscreen.cli", "score_records", "pipeline.score"),
    ("gamiscreen.logit", "save_model", "pipeline.report_write"),
    ("gamiscreen.pipeline:StudyReport", "to_json", "pipeline.report_write"),
    ("gamiscreen.pipeline", "split", "pipeline.split"),
    ("gamiscreen.pipeline", "extract_features", "textfeatures.extract"),
    ("gamiscreen.pipeline", "tokenize", "textfeatures.tokenize"),
    ("gamiscreen.textfeatures", "tokenize", "textfeatures.tokenize"),
    ("gamiscreen.pipeline", "univariate_screen", "logit.screen"),
    ("gamiscreen.pipeline", "fit_logistic", "logit.fit"),
    ("gamiscreen.pipeline", "predict", "logit.predict"),
    ("gamiscreen.pipeline", "roc_auc", "evaluation.roc"),
    ("gamiscreen.evaluation", "roc_auc", "evaluation.roc"),
    ("gamiscreen.pipeline", "calibration_strata", "evaluation.calibration"),
    ("gamiscreen.evaluation", "calibration_strata", "evaluation.calibration"),
)

# Called thousands of times inside the screen: counted, not spanned, so the
# screen's self time keeps the likelihood work it exists to do.
COUNTED = (("gamiscreen.logit", "log_likelihood", "logit.loglik_evals"),)


def _count_screen(counts: Counter, results) -> None:
    counts["logit.screen_results"] += len(results)
    counts["logit.screen_converged"] += sum(u.error is None for u in results)


# Span name -> function that reads counts off the traced call's result.
OBSERVERS = {"logit.screen": _count_screen}

OP = "op"  # root span the benchmark opens around each operation

# Per-layer metric -> span whose self time it reports, per operation.
SELF_TIME_METRICS = {
    "logit.screen_s": "logit.screen",
    "logit.fit_s": "logit.fit",
    "logit.predict_s": "logit.predict",
    "textfeatures.extract_s": "textfeatures.extract",
    "textfeatures.tokenize_s": "textfeatures.tokenize",
    "evaluation.roc_s": "evaluation.roc",
    "evaluation.calibration_s": "evaluation.calibration",
    "pipeline.load_s": "pipeline.load",
    "pipeline.split_s": "pipeline.split",
    "pipeline.study_self_s": "pipeline.study",
    "pipeline.report_write_s": "pipeline.report_write",
    "pipeline.score_self_s": "pipeline.score",
    "cli.self_s": "cli.main",
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: list[Counter] = []  # one Counter per operation
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (len(self.counts) - 1, name, start, end, parent)
            if observe:
                observe(self.counts[-1], result)
            return result

        return wrapper

    def _counter(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[-1][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for entry in SPANS + COUNTED:
            target, attr, name = entry
            owner = _resolve(target)
            original = getattr(owner, attr)
            wrapper = (self._counter(original, name) if entry in COUNTED
                       else self._wrap(original, name, OBSERVERS.get(name)))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, fn):
        """Run one operation under a root span; return fn's result."""
        self.counts.append(Counter())
        return self._wrap(fn, OP)()

    def per_op_metrics(self, records: int) -> list[dict]:
        """Per-layer metrics of each traced operation."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = [defaultdict(int) for _ in self.counts]
        calls = [Counter() for _ in self.counts]
        for i, (op, name, start, end, _) in enumerate(self.spans):
            self_ns[op][name] += end - start - child_ns[i]
            calls[op][name] += 1
        out = []
        for op, counts in enumerate(self.counts):
            m = {metric: self_ns[op][span] / 1e9 for metric, span in SELF_TIME_METRICS.items()}
            m["logit.loglik_evals"] = counts["logit.loglik_evals"]
            results = counts["logit.screen_results"]
            m["logit.screen_converged_ratio"] = (
                counts["logit.screen_converged"] / results if results else 0.0)
            m["logit.predict_calls"] = calls[op]["logit.predict"]
            m["textfeatures.tokenize_per_record"] = calls[op]["textfeatures.tokenize"] / records
            out.append(m)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
