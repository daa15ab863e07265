import io

import numpy as np
import pytest

import gamiscreen as g
from gamiscreen.pipeline import Dataset
from gamiscreen.textfeatures import AppRecord


@pytest.fixture(scope="session")
def lexicon():
    return g.default_lexicon()


@pytest.fixture(scope="session")
def grouping():
    return g.default_grouping()


@pytest.fixture(scope="session")
def pretrained():
    return g.pretrained_model()


def representative_keywords(grouping):
    """One member keyword per variable, for writing synthetic descriptions."""
    return {name: sorted(grouping.members(name))[0] for name in grouping.names}


def synthetic_corpus(model, grouping, n, seed, feature_prevalence=0.12):
    """Records whose labels are drawn from `model` over random feature bits."""
    rng = np.random.default_rng(seed)
    kw = representative_keywords(grouping)
    beta = model.coefficients[1:]
    records = []
    for i in range(n):
        bits = (rng.random(len(beta)) < feature_prevalence).astype(int)
        desc = " ".join(kw[name] for j, name in enumerate(grouping.names) if bits[j])
        eta = model.intercept + float(beta @ bits)
        label = int(rng.random() < 1.0 / (1.0 + np.exp(-eta)))
        records.append(AppRecord(id=f"app{i:05d}", store="android" if i % 2 else "ios",
                                 title="Sample App", description=desc,
                                 gamification_label=label))
    return Dataset(records=records, source="<synthetic>")


@pytest.fixture(scope="session")
def small_corpus(pretrained, grouping):
    return synthetic_corpus(pretrained, grouping, n=900, seed=20)


def stdin_text(text):
    """A text stdin over the UTF-8 bytes of `text`, as a process's own stdin is."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
