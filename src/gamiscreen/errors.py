"""Exception hierarchy.

Two broad families matter to callers: ``InputError`` (bad files, bad
records, mismatched shapes; CLI exit code 2) and ``StatisticalError``
(fitting or evaluation cannot proceed on this data; CLI exit code 3).
"""

import json
import sys


class GamiscreenError(Exception):
    """Base class for everything raised by this package."""


class InputError(GamiscreenError):
    """Invalid user-supplied input."""


class StatisticalError(GamiscreenError):
    """A statistical procedure failed on otherwise valid input.

    ``stage`` is filled in by the study driver so errors surfacing from
    deep inside a pipeline name the step that raised them.
    """

    stage: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


def require_fields(doc, what: str, **fields) -> dict:
    """Return `doc` if it is a JSON object whose named fields have the given types.

    A type is a class, a tuple of classes or ``list[str]``. JSON ``true`` and
    ``false`` pass for no number, though Python's ``bool`` is an ``int``, and an
    integer beyond float64 for no ``(int, float)``. Anything else (a missing
    field, a wrong type, a non-object) raises ``InputError`` naming `what`, so
    a malformed file exits 2, not with a traceback.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{what} is not a JSON object")
    for name, kind in fields.items():
        value = doc.get(name)
        if not (isinstance(value, list) and all(isinstance(k, str) for k in value)
                if kind == list[str] else isinstance(value, kind)
                and not (isinstance(value, bool) and kind is not bool)
                and not (isinstance(value, int) and kind == (int, float)
                         and abs(value) > sys.float_info.max)):
            raise InputError(f"{what} lacks a valid {name!r}")
    return doc


def read_json(source, what: str):
    """The JSON in `source`, a path or an open text file; bad JSON or UTF-8 raises ParseError."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(None, f"{what} is not valid JSON: {exc}") from exc


class ParseError(InputError):
    def __init__(self, row: int | None, reason: str):
        self.row = row
        self.reason = reason
        where = f"row {row}: " if row is not None else ""
        super().__init__(f"{where}{reason}")


class DuplicateIdError(InputError):
    def __init__(self, record_id: str):
        self.record_id = record_id
        super().__init__(f"duplicate record id: {record_id!r}")


class UnknownStoreError(ParseError):
    def __init__(self, row: int | None, value: str):
        self.value = value
        super().__init__(row, f"unknown store: {value!r} (expected android, ios or other)")


class TooFewRecordsError(InputError):
    pass


class ArityMismatchError(InputError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"feature vector length {got} does not match model arity {expected}")


class DegenerateColumnError(StatisticalError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"constant feature column: {variable}")


class SeparationError(StatisticalError):
    def __init__(self, variables: tuple[str, ...], detail: str = ""):
        self.variables = tuple(variables)
        msg = f"quasi-complete separation suspected for: {', '.join(self.variables) or '(unknown)'}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingularMatrixError(StatisticalError):
    def __init__(self, detail: str = "information matrix is singular (collinear features)"):
        super().__init__(detail)


class OneClassError(StatisticalError):
    def __init__(self):
        super().__init__("labels contain only one class; ROC is undefined")


class IncomparableModelsError(InputError):
    pass


class DegenerateAgreementError(StatisticalError):
    def __init__(self):
        super().__init__("expected agreement is 1; kappa is undefined")
