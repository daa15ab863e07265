"""Seeded mutations of every input a command reads, run through `main()`.

Whatever the bytes, a command exits 0, 2 (input error), 3 (statistical failure)
or 4 (I/O error), and a nonzero exit prints exactly one `error:` line on stderr:
never a traceback. Each input's mutations are drawn from its own `Random`, seeded
from `MUTATION_SEED` and the input's name, so a failure names a case that reruns
the same way.
"""

import copy
import csv
import io
import json
import math
from importlib import resources
from random import Random

import pytest

import gamiscreen as g
from gamiscreen.cli import main
from gamiscreen.pipeline import save_dataset

from conftest import synthetic_corpus

MUTATION_SEED = 2
CASES_PER_INPUT = 100
STRUCTURED = 0.8  # the share of mutations that keep the file's syntax; the rest cut its bytes

COLUMNS = ["id", "store", "title", "description", "gamification_label", "app_type", "language"]
# Values a mutated JSON field takes, by kind: other types, bounds and text the readers must
# refuse or keep.
VALUES = (
    ([1], [], ["quiz"], ["Quiz"], {}, {"a": 1}),
    (0, -1, 1, 2, 0.5, -1e308, 10 ** 400, math.nan, math.inf),
    ("x", "", "1", "0", "ios", "health", "quiz", "\ud800", "é" * 3),
    (None, True, False),
)
# Text a mutated CSV field takes.
FIELDS = ("", "1", "0", "2", " 1", "ios", "Android", "other", "mars", "health", "Health",
          "quiz game", '"', ",", "\n", "\r", "\x00", "é")
# Bytes spliced into a file.
SPLICES = (b'"', b",", b"\n", b"\r", b"\xff", b"\x00", b"\xef\xbb\xbf", b"{", b"}", b"[", b"]",
           b":", b"\\", b"NaN", b"1e999", b"-", b"true", b"null")


def mutate_bytes(data: bytes, rng: Random) -> bytes:
    """`data` with one span deleted, repeated or cut off, or one splice or random byte put in."""
    i, j = sorted(rng.randrange(len(data) + 1) for _ in range(2))
    op = rng.randrange(5)
    if op == 0:
        return data[:i] + data[j:]
    if op == 1:
        return data[:j] + data[i:j] + data[j:]
    if op == 2:
        return data[:i]
    if op == 3:
        return data[:i] + rng.choice(SPLICES) + data[i:]
    return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]


def mutate_json(doc, rng: Random):
    """A copy of the nonempty list or object `doc` with one value in it replaced from `VALUES`,
    or its key or item removed; now and then the whole document replaced. The value is found
    by a random descent from the top, so a top-level field is as likely as a record's field."""
    if rng.random() < 0.05:
        return rng.choice(rng.choice(VALUES))
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        if not (isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.6):
            break
        node = node[key]
    if rng.random() < 0.2:
        del node[key]
    else:
        node[key] = copy.deepcopy(rng.choice(rng.choice(VALUES)))
    return doc


def mutate_csv(rows: list, rng: Random) -> bytes:
    """`rows` as CSV bytes with one field, header included, replaced from `FIELDS`."""
    rows = [list(r) for r in rows]
    row = rng.choice(rows)
    row[rng.randrange(len(row))] = rng.choice(FIELDS)
    return csv_bytes(rows)


def csv_bytes(rows: list) -> bytes:
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode("utf-8")


def json_lines(docs) -> bytes:
    """Each of `docs` on a line of its own; a document that is no list is one line."""
    return b"".join(json_bytes(d) + b"\n" for d in (docs if isinstance(docs, list) else [docs]))


def json_bytes(doc) -> bytes:
    return json.dumps(doc, ensure_ascii=False).encode("utf-8", errors="surrogatepass")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The good inputs every mutation starts from, and a model and listings to pair them with."""
    base = tmp_path_factory.mktemp("mutation")
    corpus = synthetic_corpus(g.pretrained_model(), g.pretrained_grouping(), n=150, seed=41)
    rows = [COLUMNS] + [[r.id, r.store, r.title, r.description,
                         "" if r.gamification_label is None else str(r.gamification_label),
                         "health", "en"] for r in corpus.records]
    records = [dict(zip(COLUMNS, row)) for row in rows[1:]]
    listings = base / "listings.csv"
    listings.write_bytes(csv_bytes(rows))
    dataset = base / "dataset.json"
    save_dataset(corpus, dataset)
    model, study = base / "model.json", base / "study.json"
    assert main(["train", "--dataset", str(listings), "--seed", "3", "--out", str(model),
                 "--report", str(study)]) == 0
    lexicon = resources.files("gamiscreen.data").joinpath("lexicon.json").read_text("utf-8")
    stdin = [{k: v for k, v in rec.items() if v} for rec in records[:20]]
    docs = {"listings.json": records, "dataset.json": json.loads(dataset.read_text("utf-8")),
            "model.json": json.loads(model.read_text("utf-8")), "lexicon.json": json.loads(lexicon),
            "study.json": json.loads(study.read_text("utf-8"))}
    # Per input, its good bytes and a function drawing a structured mutation of them.
    sources = {"listings.csv": (csv_bytes(rows), lambda rng: mutate_csv(rows, rng)),
               "stdin": (json_lines(stdin), lambda rng: json_lines(mutate_json(stdin, rng)))}
    for name, doc in docs.items():
        sources[name] = (json_bytes(doc), lambda rng, doc=doc: json_bytes(mutate_json(doc, rng)))
    return {"dir": base, "listings": listings, "model": model, "sources": sources}


def commands(name: str, path: str, inputs) -> list[list[str]]:
    """The command lines that read the input `name` at `path`."""
    d, model, listings = inputs["dir"], str(inputs["model"]), str(inputs["listings"])
    out = str(d / "out.json")
    train = ["train", "--seed", "3", "--out", out, "--dataset"]
    listing_commands = [["score", "--explain", "--input", path], ["ingest", path, "--out", out],
                        [*train, path, "--select", "strict"],
                        ["evaluate", "--model", model, "--split", "validation", "--dataset", path]]
    return {
        "listings.csv": listing_commands,
        "listings.json": listing_commands,
        "dataset.json": listing_commands[2:],
        "model.json": [["score", "--explain", "--model", path, "--input", listings],
                       ["evaluate", "--model", path, "--dataset", listings, "--split", "generation"]],
        "lexicon.json": [[*train, listings, "--lexicon", path]],
        "study.json": [["report", "--study", path, "--table", "--roc-csv", str(d / "roc.csv"),
                        "--roc-svg", str(d / "roc.svg")]],
        "stdin": [["score", "--explain"], ["score", "--model", model]],
    }[name]


def run(argv, stdin: bytes, monkeypatch, capsys) -> tuple[object, str]:
    """`main(argv)`'s exit code, or the exception it raised, and its stderr. A warning is
    raised as an error, as `pyproject.toml` sets for every test."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001  (a traceback is the fault looked for)
        code = exc
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", ["listings.csv", "listings.json", "dataset.json", "model.json",
                                  "lexicon.json", "study.json", "stdin"])
def test_mutated_input_exits_with_a_documented_code(inputs, monkeypatch, capsys, name):
    rng = Random(f"{MUTATION_SEED}-{name}")
    path = inputs["dir"] / f"mutated-{name}"
    faults = []
    good, structured = inputs["sources"][name]
    for case in range(CASES_PER_INPUT):
        data = structured(rng) if rng.random() < STRUCTURED else mutate_bytes(good, rng)
        path.write_bytes(data)
        argv = rng.choice(commands(name, str(path), inputs))
        code, err = run(argv, data if name == "stdin" else b"", monkeypatch, capsys)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code not in (0, 2, 3, 4) or (code != 0 and len(errors) != 1):
            faults.append(f"case {case}: {argv[0]} exited {code!r}, stderr {err[-300:]!r}")
    assert not faults, "\n".join(faults)
