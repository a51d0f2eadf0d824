"""One pass of one workload, in a fresh interpreter.

    python3 -I perfbench/child.py <workload> <seed> <mode>

``mode`` is ``plain`` (timed pass), ``setup`` (stop before the first suite
call), ``spans`` (pass with span wrappers) or ``counts`` (pass with the
scalar counters).  The pass writes one JSON object to stdout: the monotonic
times at which set-up ended and the verdict was reached, the report texts,
and the trace of the traced modes.  It exits 0 when every report's exit code
is 0, else 1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MODES = ("plain", "setup", "spans", "counts")


def main(argv: List[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    if not (SRC / "contactcheck" / "__init__.py").is_file():
        raise SystemExit(f"no library source at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import contactcheck
    import workloads

    if Path(contactcheck.__file__).resolve().parent != SRC / "contactcheck":
        raise SystemExit(f"imported contactcheck from {contactcheck.__file__}, not {SRC}")

    calls = workloads.SETUPS[workload](seed)
    run, recorder, counter = _run, None, None
    if mode in ("spans", "counts"):
        import spans

        if mode == "spans":
            recorder = spans.SpanRecorder()
            spans.install_spans(recorder)
            run = recorder.wrap("bench.pass", _run)
        else:
            counter = spans.ScalarCounter()
            spans.install_counters(counter)
    out = {"t_ready": time.monotonic(), "outputs": {}}
    rcs = run(calls, out["outputs"]) if mode != "setup" else []
    out["t_done"] = time.monotonic()
    if recorder is not None:
        out["trace"] = recorder.summary()
    if counter is not None:
        out["trace"] = counter.counts()
    json.dump(out, sys.stdout)
    return 0 if all(rc == 0 for rc in rcs) else 1


def _run(calls: Dict[str, Callable], outputs: Dict[str, str]) -> List[int]:
    rcs = []
    for name, call in calls.items():
        outputs[name], rc = call()
        rcs.append(rc)
    return rcs


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
