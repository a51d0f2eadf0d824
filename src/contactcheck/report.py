"""Deterministic machine-readable check reports.

Every verification suite returns a list of :class:`CheckResult`; the CLI
wraps them in a :class:`Report` whose JSON serialization is byte-identical
for identical configurations (sorted keys, sorted check ids, no timestamps).

A ``CheckResult`` is an immutable named tuple, equal and hashed by its
fields; a ``Report`` is a plain class holding the echoed config and its own
results list.  Neither needs ``dataclasses``, which would pull ``inspect``
and ``ast`` into every interpreter that imports the CLI.

:meth:`Report.to_json` writes the text of ``json.dumps(sort_keys=True,
indent=2)`` byte for byte, plus a newline, with a short recursive writer:
CPython's encoder falls back to a generator-based pure-Python path whenever
``indent`` is set.  Strings are escaped by ``json``'s own
``encode_basestring_ascii``.  A report holds only dicts with ``str`` keys,
lists, ``str``, ``int``, ``bool`` and ``None``; any other value, a float
included, raises ``TypeError``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, NamedTuple, Optional

from . import __version__

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class CheckResult(NamedTuple):
    check_id: str
    status: str
    witness: Optional[str] = None

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"check_id": self.check_id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def passed(check_id: str) -> CheckResult:
    return CheckResult(check_id, PASS)


def failed(check_id: str, witness: object) -> CheckResult:
    return CheckResult(check_id, FAIL, witness=str(witness))


def check(check_id: str, ok: bool, witness: object = "") -> CheckResult:
    """Pass/fail result; the witness is recorded only on failure."""
    return passed(check_id) if ok else failed(check_id, witness)


class Report:
    def __init__(self, config: Dict[str, object], results: Optional[List[CheckResult]] = None) -> None:
        self.config = config
        self.results: List[CheckResult] = [] if results is None else results

    def extend(self, results: List[CheckResult]) -> None:
        self.results.extend(results)

    @property
    def ok(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool_version": __version__,
            "config": self.config,
            "results": [r.to_dict() for r in sorted(self.results, key=lambda r: r.check_id)],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return _json_text(self.to_dict()) + "\n"


def _json_text(value: object) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for report trees.

    A report is dicts with ``str`` keys, lists, ``str``, ``int``, ``bool`` and
    ``None``; anything else raises ``TypeError``.
    """
    out: List[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value: object, newline: str, out: List[str]) -> None:
    """Append the text of ``value``; ``newline`` is a newline and the current indent."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(separator + _quote(key) + ": ")
            _write(value[key], inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(repr(value))
    else:
        raise TypeError(f"{kind.__name__} is not a report value")
