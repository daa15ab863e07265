"""Seeded input generators for the three benchmark workloads.

Each generator takes the seed as an argument and writes the program's input
file next to the ground truth the output checks need (bits, inserted
keywords, empty listings, labels). Run as a script so that the memory used
while generating stays out of the measuring process's peak RSS:

    python3 perfbench/bench_inputs.py WORKLOAD SEED OUTDIR [--n N]
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

import numpy as np

PREVALENCE = 0.12  # share of listings that carry each variable's keywords

# Workload sizes; the smoke test passes smaller ones.
SIZES = {"study-train": 100_000, "score-listings": 5_000, "evaluate-roc": 1_000_000}

EMPTY_SHARE = 0.02      # score-listings: share of listings with no text at all
DESC_TOKENS = (100, 141)  # score-listings: filler tokens per description, [low, high)
TITLE_TOKENS = (2, 6)
FILLER_SIZE = 4000

_ONSETS = ("b", "br", "d", "dr", "f", "k", "kl", "l", "m", "n", "p", "pl", "r",
           "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "", "n", "r", "s", "x")
_DECOR_BEFORE = ("", "", "", "(", '"', "#", "*")
_DECOR_AFTER = ("", "", "", ",", ".", "!", "?", ")", ":", ";", "...")


def bundled():
    """The bundled model, grouping and lexicon; labels and probabilities come from the model."""
    import gamiscreen as g
    return g.pretrained_model(), g.pretrained_grouping(), g.default_lexicon()


def draw_bits(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return (rng.random((n, k)) < PREVALENCE).astype(np.uint8)


def model_probabilities(model, bits: np.ndarray) -> np.ndarray:
    """expit(intercept + beta . bits), evaluated once per distinct pattern."""
    from scipy.special import expit
    codes = bits.astype(np.int64) @ (1 << np.arange(bits.shape[1]))
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    per_pattern = expit(model.intercept + bits[first].astype(float) @ model.coefficients[1:])
    return per_pattern[inverse]


def filler_vocabulary(lexicon_keywords) -> list[str]:
    """Pseudo-words sharing no token with the lexicon; fixed, not seeded."""
    rnd = random.Random(20170509)
    words: list[str] = []
    seen = set(lexicon_keywords)
    while len(words) < FILLER_SIZE:
        w = "".join(rnd.choice(_ONSETS) + rnd.choice(_VOWELS)
                    for _ in range(rnd.randint(1, 3))) + rnd.choice(_CODAS)
        if len(w) > 2 and w not in seen:
            seen.add(w)
            words.append(w)
    return words


def gen_study_train(seed: int, n: int, out: Path) -> None:
    """Keyword-only listings with labels drawn from the bundled model.

    Same recipe as the test suite's synthetic corpus: bits at prevalence
    0.12, each set bit written as its variable's first member keyword.
    """
    model, grouping, _ = bundled()
    rng = np.random.default_rng(seed)
    names = grouping.names
    bits = draw_bits(rng, n, len(names))
    labels = (rng.random(n) < model_probabilities(model, bits)).astype(np.uint8)
    kw = [sorted(grouping.members(name))[0] for name in names]
    records = [
        {"id": f"app{i:06d}", "store": "android" if i % 2 else "ios",
         "title": "Sample App",
         "description": " ".join(kw[j] for j in np.flatnonzero(row)),
         "gamification_label": int(labels[i]), "app_type": None, "language": None}
        for i, row in enumerate(bits)
    ]
    with open(out / "dataset.json", "w", encoding="utf-8") as fh:
        json.dump({"source": "<perfbench>", "ingested_at": None, "records": records}, fh)
    np.save(out / "bits.npy", bits)
    np.save(out / "labels.npy", labels)


def _decorate(word: str, rnd: random.Random) -> str:
    case = rnd.randrange(4)
    word = (word, word.upper(), word.capitalize(), word.swapcase())[case]
    return rnd.choice(_DECOR_BEFORE) + word + rnd.choice(_DECOR_AFTER)


def gen_score_listings(seed: int, n: int, out: Path) -> None:
    """Realistic-length listings: filler text with keywords inserted for set bits.

    About 2% of listings have an empty title and description (``no_text``).
    The ground truth is the bits, the inserted keywords and the empty mask.
    """
    _, grouping, lexicon = bundled()
    rng = np.random.default_rng(seed)
    rnd = random.Random(int(rng.integers(2**63)))
    names = grouping.names
    members = [sorted(grouping.members(name)) for name in names]
    vocab = filler_vocabulary(lexicon.keywords)
    zipf = 1.0 / np.arange(1, len(vocab) + 1)
    zipf /= zipf.sum()

    bits = draw_bits(rng, n, len(names))
    empty = rng.random(n) < EMPTY_SHARE
    bits[empty] = 0
    desc_len = rng.integers(*DESC_TOKENS, size=n)
    title_len = rng.integers(*TITLE_TOKENS, size=n)
    words = rng.choice(len(vocab), size=int(desc_len.sum() + title_len.sum()), p=zipf)

    keywords: list[list[str]] = []
    pos = 0
    with open(out / "listings.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "store", "title", "description"))
        for i in range(n):
            t, d = int(title_len[i]), int(desc_len[i])
            title = [vocab[w].capitalize() for w in words[pos:pos + t]]
            desc = [vocab[w] for w in words[pos + t:pos + t + d]]
            pos += t + d
            chosen = []
            for j in np.flatnonzero(bits[i]):
                for kwd in rnd.sample(members[j], min(len(members[j]), rnd.randint(1, 2))):
                    chosen.append(kwd)
                    target = title if rnd.random() < 0.2 else desc
                    target.insert(rnd.randint(0, len(target)), _decorate(kwd, rnd))
            keywords.append(sorted(chosen))
            if empty[i]:
                title, desc = [], []
            sentences = [" ".join(desc[k:k + 12]) for k in range(0, len(desc), 12)]
            sentences = [s[:1].upper() + s[1:] for s in sentences]
            store = ("android", "ios", "other")[i % 3]
            writer.writerow((f"listing{i:06d}", store, " ".join(title), ". ".join(sentences)))
    np.save(out / "bits.npy", bits)
    np.save(out / "empty.npy", empty)
    with open(out / "keywords.json", "w", encoding="utf-8") as fh:
        json.dump(keywords, fh)


def gen_evaluate_roc(seed: int, n: int, out: Path) -> None:
    """(probability, label) pairs from the bundled model over generated bits.

    Probabilities take one value per bit pattern, so they are heavily tied,
    as every score the package produces is.
    """
    model, grouping, _ = bundled()
    rng = np.random.default_rng(seed)
    bits = draw_bits(rng, n, len(grouping.names))
    probs = model_probabilities(model, bits)
    labels = (rng.random(n) < probs).astype(float)
    np.save(out / "probs.npy", probs)
    np.save(out / "labels.npy", labels)


GENERATORS = {
    "study-train": gen_study_train,
    "score-listings": gen_score_listings,
    "evaluate-roc": gen_evaluate_roc,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir")
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    GENERATORS[args.workload](args.seed, args.n or SIZES[args.workload], out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
