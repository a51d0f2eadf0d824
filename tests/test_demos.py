"""Every demo script runs against the library and prints exactly its pinned output.

The digests are the sha256 of each demo's stdout; the output does not depend
on ``PYTHONHASHSEED``.  A change that alters what a demo prints must update
its digest here on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_root_systems.py": "ea97c6da2b04fe7049484da25396e2227db58b7990428baa5bb7be19513dab0b",
    "02_graded_algebra.py": "2723558edf2edd94da32538d9a53969f3126833f2ceac6230374df928431dbc3",
    "03_contact_models.py": "76662d5c154bf65224d3a252e93677a975de87ea97c81b31a6fd3a1c12ac1697",
    "04_hamiltonian_fields.py": "409c7b02515409b35256b765763adbdf3f628a871eed8857f23a67d7651a9439",
    "05_sections_and_cocycles.py": "427dbec94d5cd84bfdbf9f06743c5cd29feebb64b7432f6659b21bc1d25f0eea",
    "06_moment_maps.py": "6c1cd36d6ed98b41cf8f4b3bc99bc3008eee19255c6cd9a8e0d5fec684c1ac9d",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
