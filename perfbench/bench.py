"""The gamiscreen benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/bench.py --workload score-listings --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed (in a child process), then calls
the package's public functions back to back until --seconds of operation time
have passed. Every operation's output is checked outside the timed region.
With --trace 0 it reports the end-to-end metrics, timing a fresh interpreter's
set-up between pieces of the loop; with --trace 1 it runs an
untraced pass and then a traced pass, each for half of --seconds, and reports
the per-layer metrics.
Human-readable ``metric`` lines come first; the last line of standard output
is the JSON result. The environment, per-operation times and spans are
written under ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# BLAS/OpenMP pools capped at one thread: the benchmark is one single-threaded
# client, and a cap at or below nproc keeps runs comparable across machines.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 8
SETUP_CODE = "import gamiscreen as g; g.default_lexicon(); g.pretrained_model()"

END_TO_END_UNITS = {"records_per_s": "records/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "logit.predict_s": "s",
    "logit.predict_calls": "count",
    "textfeatures.extract_s": "s",
    "textfeatures.tokenize_s": "s",
    "textfeatures.tokenize_per_record": "calls/record",
    "evaluation.roc_s": "s",
    "evaluation.calibration_s": "s",
    "pipeline.load_s": "s",
    "pipeline.score_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Layers only study-train uses. They read 0 on the other workloads, so they
# are reported for study-train alone, which BENCHMARK.json does not list.
STUDY_TRAIN_UNITS = {
    "logit.screen_s": "s",
    "logit.loglik_evals": "count",
    "logit.screen_converged_ratio": "ratio",
    "logit.fit_s": "s",
    "pipeline.split_s": "s",
    "pipeline.study_self_s": "s",
    "pipeline.report_write_s": "s",
}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Workload:
    """One operation, its output digest, and the semantic check of its output.

    The first successful operation's output is checked against the ground
    truth; every later operation must reproduce it byte for byte.
    """

    name = ""

    def __init__(self, data: Path, seed: int, records: int):
        self.data, self.seed, self.records = data, seed, records
        self._reference: str | None = None
        self._problems: list[str] = []

    def run(self) -> int:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def verify(self) -> bool:
        """Check the last operation's output; False counts it as failed."""
        try:
            digest = self.digest()
            if self._reference is None:
                self._problems = self.check()
                self._reference = digest
            elif digest != self._reference:
                print("check failed: output differs from the run's first operation",
                      file=sys.stderr)
                return False
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Fails this operation only; the reference is still unset after
            # a first operation that cannot be read, so the next one is checked.
            print(f"check failed: unreadable output: {exc!r}", file=sys.stderr)
            return False
        for problem in self._problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return not self._problems


class StudyTrain(Workload):
    name = "study-train"

    def run(self) -> int:
        from gamiscreen import cli
        with open(self.data / "train.out", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            return cli.main(["train", "--dataset", str(self.data / "dataset.json"),
                             "--seed", str(self.seed), "--out", str(self.data / "model.json"),
                             "--report", str(self.data / "report.json")])

    def digest(self) -> str:
        return _digest((self.data / "model.json").read_bytes(),
                       (self.data / "report.json").read_bytes())

    def check(self) -> list[str]:
        import bench_checks
        import gamiscreen as g
        return bench_checks.check_study(self.data / "model.json", self.data / "report.json",
                                        self.data, g.default_grouping().names)


class ScoreListings(Workload):
    name = "score-listings"

    def run(self) -> int:
        from gamiscreen import cli
        with open(self.data / "scores.jsonl", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            return cli.main(["score", "--input", str(self.data / "listings.csv"), "--explain"])

    def digest(self) -> str:
        return _digest((self.data / "scores.jsonl").read_bytes())

    def check(self) -> list[str]:
        import bench_checks
        import gamiscreen as g
        return bench_checks.check_scores(self.data / "scores.jsonl", self.data,
                                         g.pretrained_model(), g.pretrained_grouping().names)


class EvaluateRoc(Workload):
    name = "evaluate-roc"

    def __init__(self, data: Path, seed: int, records: int):
        import numpy as np
        super().__init__(data, seed, records)
        self.probs = np.load(data / "probs.npy")
        self.labels = np.load(data / "labels.npy")
        self.result = None

    def run(self) -> int:
        from gamiscreen import evaluation
        roc = evaluation.roc_auc(self.probs, self.labels)
        self.result = (roc, evaluation.calibration_strata(self.probs, self.labels))
        return 0

    def digest(self) -> str:
        from gamiscreen.evaluation import calibration_to_dict
        roc, calibration = self.result
        doc = {"points": roc.points, "thresholds": roc.thresholds, "auc": roc.auc,
               "ci": [roc.auc_ci_low, roc.auc_ci_high],
               "calibration": calibration_to_dict(calibration)}
        return _digest(json.dumps(doc).encode())

    def check(self) -> list[str]:
        import bench_checks
        reference = bench_checks.mann_whitney_auc(self.probs, self.labels)
        return bench_checks.check_evaluation(*self.result, self.probs, self.labels, reference)


WORKLOADS = {w.name: w for w in (StudyTrain, ScoreListings, EvaluateRoc)}


def closed_loop(workload: Workload, seconds: float,
                tracer=None) -> tuple[list[float], int, float]:
    """Run operations back to back until `seconds` of operation time have passed.

    Returns the wall time of each operation, the number that failed
    (nonzero exit code, exception, or failed output check), and the peak RSS
    in MB right after the first operation, which is what one CLI call
    reaches; later operations only add allocator growth no CLI call sees.
    """
    times: list[float] = []
    failed = 0
    peak_mb = 0.0
    while not times or sum(times) < seconds:
        call = workload.run if tracer is None else (lambda: tracer.op(workload.run))
        start = time.perf_counter()
        try:
            code = call()
        except Exception:  # the loop must go on; the traceback is reported
            traceback.print_exc()
            code = None
        times.append(time.perf_counter() - start)
        if len(times) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if code != 0 or not workload.verify():
            failed += 1
    return times, failed, peak_mb


def setup_seconds(env: dict) -> float:
    """Wall time of a fresh interpreter importing the package and its data."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def untraced_pass(workload: Workload, seconds: float,
                  env: dict | None) -> tuple[list[float], int, float, list[float]]:
    """closed_loop over `seconds`; with an `env`, also SETUP_REPEATS set-up samples.

    The samples are spread over the pass, one after each of SETUP_REPEATS
    equal pieces of it, so their median does not hang on one moment's load.
    """
    pieces = SETUP_REPEATS if env is not None else 1
    times: list[float] = []
    failed, peak_mb, setup = 0, 0.0, []
    for _ in range(pieces):
        piece, piece_failed, piece_peak = closed_loop(workload, seconds / pieces)
        peak_mb = peak_mb or piece_peak
        times += piece
        failed += piece_failed
        if env is not None:
            setup.append(setup_seconds(env))
    return times, failed, peak_mb, setup


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args, records: int) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "workload": args.workload,
        "records": records,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gamiscreen benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gamiscreen" / "__init__.py").is_file():
        print(f"error: no gamiscreen sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench_inputs
    import gamiscreen as g
    if Path(g.__file__).resolve().parent != SRC / "gamiscreen":
        print(f"error: imported gamiscreen from {g.__file__}, not {SRC}", file=sys.stderr)
        return 2

    records = bench_inputs.SIZES[args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    data = WORK / f"run-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(HERE / "bench_inputs.py"), args.workload,
                        str(args.seed), str(data), "--n", str(records)],
                       env=env, check=True, timeout=120)
        # Loaded once per process, as by the CLI; setup_s measures this cost.
        g.default_lexicon()
        g.pretrained_model()
        workload = WORKLOADS[args.workload](data, args.seed, records)

        # The traced run splits its time between an untraced and a traced pass.
        seconds = args.seconds / 2 if args.trace else args.seconds
        times, failed, peak_mb, setup = untraced_pass(
            workload, seconds, None if args.trace else env)
        # Records over the pass's whole operation time, not the median
        # operation's rate: on a shared host a core alternates between a fast
        # state and one about 1.6 times slower, for seconds at a time, and a
        # median records which state held most of the run.
        metrics = {"records_per_s": records * len(times) / sum(times),
                   "records_per_s_median": statistics.median(records / t for t in times),
                   "peak_rss_mb": peak_mb}
        attempted = len(times)
        result = {"op_seconds": times}
        if args.trace:
            import bench_spans
            tracer = bench_spans.Tracer()
            tracer.install()
            try:
                traced, traced_failed, _ = closed_loop(workload, seconds, tracer)
            finally:
                tracer.restore()
            attempted += len(traced)
            failed += traced_failed
            metrics = bench_spans.median_metrics(tracer.per_op_metrics(records))
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(times)
            result["traced_op_seconds"] = traced
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            tracer.write(WORK / "traces" / f"{args.workload}.jsonl")
            units = dict(PER_LAYER_UNITS)
            if args.workload == StudyTrain.name:
                units.update(STUDY_TRAIN_UNITS)
        else:
            metrics["setup_s"] = statistics.median(setup)
            result["setup_seconds"] = setup
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(data, ignore_errors=True)

    result.update(environment=environment(args, records), metrics=metrics,
                  attempted=attempted, failed=failed)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print("environment " + json.dumps(result["environment"]))
    for name, unit in units.items():
        print(f"metric {args.workload} {name} {metrics[name]!r} {unit}")
    if not args.trace:
        print(f"metric {args.workload} records_per_s_median "
              f"{metrics['records_per_s_median']!r} records/s")
    print(f"metric {args.workload} failed_ratio {failed / attempted!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
