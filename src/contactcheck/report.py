"""Deterministic machine-readable check reports.

Every verification suite returns a list of :class:`CheckResult`; the CLI
wraps them in a :class:`Report` whose JSON serialization is byte-identical
for identical configurations (sorted keys, sorted check ids, no timestamps).

A ``CheckResult`` is an immutable named tuple, equal and hashed by its
fields; a ``Report`` is a plain class holding the echoed config and its own
results list.  Neither needs ``dataclasses``, which would pull ``inspect``
and ``ast`` into every interpreter that imports the CLI.
"""

from __future__ import annotations

import json
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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
