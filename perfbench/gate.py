"""Correctness gate: every pass's reports must be the right bytes, with no check failed.

Reference digests (sha256 of each report text) were recorded at seed 2024
from the commit that added this benchmark; the cocycle reports do not depend
on the seed.  At a seed with no reference, every pass of a run must repeat
the first pass byte for byte.  On top of the digests, facts that hold at
every seed are checked (see :func:`workloads.fact_problems`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import NOMINAL_CHECKS, fact_problems

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Judges the passes of one workload at one seed.

    :meth:`judge` returns ``(attempted, failed, problems)``: the checks the
    pass reported, those that failed, and why.  A check fails when its status
    is ``fail``.  Every check of a report fails when the report misses its
    digest or a fact.  Every check of the pass fails when the process exits
    nonzero or crashes; it then counts the checks of seed 2024 as attempted.
    A ``skipped`` check is not failed: the suites skip a comparison when two
    samples coincide, which happens at some seeds, and the CLI exits 0.
    """

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        self.workload = workload
        self.nominal = NOMINAL_CHECKS[workload]
        self.digests: Optional[Dict[str, str]] = reference["seed_independent"].get(
            workload, reference["seeds"].get(str(seed), {}).get(workload)
        )
        self.first: Dict[str, str] = {}

    def judge(self, rc: int, outputs: Optional[Dict[str, str]]) -> Tuple[int, int, List[str]]:
        if rc != 0 or outputs is None or set(outputs) != set(self.nominal):
            nominal = sum(self.nominal.values())
            return nominal, nominal, [f"{self.workload}: pass exited {rc}"]
        attempted = failed = 0
        problems: List[str] = []
        for name, text in outputs.items():
            checks, failures, report_problems = self._check_report(name, text)
            attempted += checks
            failed += checks if report_problems else failures
            problems += report_problems
            if failures:
                problems.append(f"{name}: {failures} checks failed")
        return attempted, failed, problems

    def _check_report(self, name: str, text: str) -> Tuple[int, int, List[str]]:
        """Checks, failed checks, and problems that fail every check of the report."""
        problems = []
        got = digest(text)
        want = self.digests[name] if self.digests else self.first.setdefault(name, got)
        if got != want:
            problems.append(f"{name}: digest {got[:12]}, expected {want[:12]}")
        try:
            report = json.loads(text)
        except ValueError:
            return self.nominal[name], 0, problems + [f"{name}: report is not JSON"]
        results = report["results"]
        failures = sum(r["status"] == "fail" for r in results)
        return len(results), failures, problems + fact_problems(self.workload, name, report)
