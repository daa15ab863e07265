"""App records, the gamification keyword lexicon, and binary feature extraction.

Matching is whole-token and case-insensitive: the lexicon enumerates
inflected forms explicitly (``game``/``games``, ``track``/``tracking``),
so no stemming or substring matching is performed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

from .errors import InputError, UnknownStoreError, read_json, require_fields

STORES = ("android", "ios", "other")
APP_TYPES = ("breast_cancer", "health", "misc")

# Maximal runs of letters/digits; underscore and all punctuation separate.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# One bytes translate lowercases ASCII letters, keeps digits and turns every
# other byte into a space. On ASCII text `[^\W_]` is exactly `str.isalnum` and
# `casefold` is `lower`; bytes above 127 never reach the table.
_ASCII_TABLE = bytes(ord(chr(c).lower()) if c < 128 and chr(c).isalnum() else ord(" ")
                     for c in range(256))


def tokenize(text: str) -> list[str]:
    """Split free text into lowercase tokens.

    Tokens are maximal runs of Unicode letters and digits; everything
    else (punctuation, whitespace, underscores) separates. Deterministic
    and total: empty or ``None``-ish text yields an empty list. ASCII text
    goes through one bytes translate, then a split, with the same result as
    the regex.
    """
    if not text:
        return []
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TABLE).decode("ascii").split()
    return [t.casefold() for t in _TOKEN_RE.findall(text)]


@dataclass(frozen=True, slots=True)
class AppRecord:
    """One store listing: the unit of analysis, and the one holder of the value rules."""

    id: str
    store: str
    title: str = ""
    description: str = ""
    gamification_label: int | None = None
    app_type: str | None = None
    language: str | None = None

    def __post_init__(self):
        # Store, label, id: a record with several faults names the first in this order.
        if self.store not in STORES:
            raise UnknownStoreError(None, self.store)
        label = self.gamification_label
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise InputError(f"gamification_label must be 0 or 1, got {label!r}")
        if not self.id:
            raise InputError("record id must be nonempty")
        if self.app_type is not None and self.app_type not in APP_TYPES:
            raise InputError(f"record {self.id!r}: app_type must be one of {APP_TYPES}")

    @property
    def text(self) -> str:
        """Title and description joined for matching purposes."""
        return f"{self.title}\n{self.description}"


def _check_keywords(keywords, what: str) -> None:
    """Every keyword must be one nonempty, casefolded token without whitespace."""
    for k in keywords:
        if not k or k != k.casefold() or any(c.isspace() for c in k):
            raise InputError(f"invalid {what} keyword: {k!r}")


@dataclass(frozen=True)
class Lexicon:
    """The flat set of screening keywords."""

    keywords: frozenset[str]

    def __post_init__(self):
        _check_keywords(self.keywords, "lexicon")

    def __contains__(self, token: str) -> bool:
        return token in self.keywords


@dataclass(frozen=True)
class VariableGrouping:
    """Ordered mapping from model variables to their member keywords.

    The grouping is the keyword table extraction matches against. Variable
    names must be distinct, and member sets pairwise disjoint so every
    matched keyword contributes to exactly one variable bit.
    """

    variables: tuple[tuple[str, frozenset[str]], ...]

    @classmethod
    def from_json(cls, variables: list, what: str) -> VariableGrouping:
        """The grouping of JSON objects that each hold a ``name`` and a ``keywords`` list."""
        checked = [require_fields(v, what, name=str, keywords=list[str]) for v in variables]
        return cls(variables=tuple((v["name"], frozenset(v["keywords"])) for v in checked))

    def __post_init__(self):
        duplicates = sorted({n for n in self.names if self.names.count(n) > 1})
        if duplicates:
            raise InputError(f"duplicate variable names: {duplicates}")
        seen: set[str] = set()
        for name, members in self.variables:
            _check_keywords(members, f"variable {name!r}")
            if not members:
                raise InputError(f"variable {name!r} has no member keywords")
            overlap = seen & members
            if overlap:
                raise InputError(f"variable {name!r} reuses keywords: {sorted(overlap)}")
            seen |= members

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.variables)

    @cached_property
    def all_keywords(self) -> frozenset[str]:
        """The keywords extraction matches: the members of every variable."""
        return frozenset().union(*(members for _, members in self.variables))

    def members(self, name: str) -> frozenset[str]:
        for n, members in self.variables:
            if n == name:
                return members
        raise KeyError(name)

    @cached_property
    def weights(self) -> dict[str, int]:
        """Member keyword -> ``1 << (k - 1 - i)``, its variable i's bit in a listing's code, of
        which the first variable is the highest bit; built once."""
        k = len(self.variables)
        return {kw: 1 << (k - 1 - i) for i, (_, members) in enumerate(self.variables)
                for kw in members}

    def check_against(self, lexicon: Lexicon) -> None:
        missing = self.all_keywords - lexicon.keywords
        if missing:
            raise InputError(f"grouping keywords absent from lexicon: {sorted(missing)}")


@dataclass(frozen=True)
class FeatureVector:
    """Binary indicators, one per grouping variable, in grouping order."""

    bits: tuple[int, ...]
    matched_keywords: frozenset[str]


def feature_code(record: AppRecord, grouping: VariableGrouping) -> tuple[int, frozenset[str]]:
    """The listing's code, the OR of the `grouping.weights` of its matched keywords, and those
    keywords: the grouping keywords appearing as whole tokens in its text."""
    matched = grouping.all_keywords.intersection(tokenize(record.text))
    code, weights = 0, grouping.weights
    for keyword in matched:
        code |= weights[keyword]
    return code, matched


def extract_features(record: AppRecord, grouping: VariableGrouping) -> FeatureVector:
    """The listing's `feature_code`, unpacked to one bit per variable."""
    code, matched = feature_code(record, grouping)
    k = len(grouping.variables)
    return FeatureVector(bits=tuple((code >> (k - 1 - i)) & 1 for i in range(k)),
                         matched_keywords=matched)


def load_lexicon_file(source) -> tuple[Lexicon, VariableGrouping]:
    """Parse the lexicon JSON {keywords, variables} in `source`, a path or an open text file.

    JSON text passed as `source` is read as a file name. A ``version`` is ignored."""
    return _from_doc(read_json(source, "lexicon file"))


def _from_doc(doc: dict) -> tuple[Lexicon, VariableGrouping]:
    keywords = require_fields(doc, "lexicon file", keywords=list[str], variables=list)["keywords"]
    if len(keywords) != len(set(keywords)):
        raise InputError("lexicon file contains duplicate keywords")
    lexicon = Lexicon(keywords=frozenset(keywords))
    grouping = VariableGrouping.from_json(doc["variables"], "lexicon variable")
    grouping.check_against(lexicon)
    return lexicon, grouping


@lru_cache(maxsize=1)
def _default() -> tuple[Lexicon, VariableGrouping]:
    text = resources.files("gamiscreen.data").joinpath("lexicon.json").read_text(encoding="utf-8")
    return _from_doc(json.loads(text))


def default_lexicon() -> Lexicon:
    """The bundled 79-keyword screening lexicon."""
    return _default()[0]


def default_grouping() -> VariableGrouping:
    """The bundled 14-variable grouping over the default lexicon."""
    return _default()[1]
