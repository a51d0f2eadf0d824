"""Tests for the benchmark's own code: span arithmetic, wrapper coverage, gate,
host-speed meter.

    python3 -m pytest -q perfbench
"""

import contextlib
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from gate import Gate, load_reference  # noqa: E402
from workloads import SETUPS  # noqa: E402


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(SETUPS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.REPORTED_PER_LAYER)


def test_self_time_on_nested_and_sibling_spans():
    # a.A [0,10] holds b.B [1,4] (holding c.C [2,3]) and b.B [5,9], which
    # recurses into b.B [6,8]; a second root c.C [11,13] follows.
    names = ["a.A", "b.B", "c.C", "b.B", "b.B", "c.C"]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0, 13.0]
    parents = [-1, 0, 1, 0, 3, -1]
    out = spans.summarize(names, starts, ends, parents)
    assert out["a.self_s"] == 3.0
    assert out["b.self_s"] == 2.0 + 2.0 + 2.0
    assert out["c.self_s"] == 1.0 + 2.0
    assert out["a.self_s"] + out["b.self_s"] + out["c.self_s"] == 10.0 + 2.0
    assert out["b.B.calls"] == 3
    assert out["b.B.s"] == 3.0 + 4.0  # the recursive call is not counted twice
    assert out["c.C.s"] == 3.0


def test_recorder_links_children_to_parents():
    recorder = spans.SpanRecorder()
    inner = recorder.wrap("x.inner", lambda: None)
    outer = recorder.wrap("y.outer", lambda: [inner(), inner()])
    outer()
    inner()
    assert list(recorder.parent) == [-1, 0, 0, -1]
    out = recorder.summary()
    assert out["x.inner.calls"] == 3 and out["y.outer.calls"] == 1
    assert out["y.self_s"] + out["x.self_s"] == pytest.approx(
        out["y.outer.s"] + recorder.end[3] - recorder.start[3]
    )


def test_span_keys_of_issue_metrics():
    assert spans.span_key("poly.gcd.calls") == "poly.poly_gcd.calls"
    assert spans.span_key("lie.killing.s") == "lie.killing.s"
    assert spans.span_key("poly.self_s") == "poly.self_s"
    assert spans.span_key("scalars.fraction_new") == "scalars.fraction_new"


@pytest.fixture(scope="module")
def traced_cli_all():
    return run.spawn_pass("cli-all", 2024, "spans")


def test_wrappers_reach_from_import_copies(traced_cli_all):
    # cli calls build_algebra through its own ``from .lie import`` copy, and
    # `contactcheck all` builds each of its 8 algebras twice.
    assert traced_cli_all.rc == 0
    assert traced_cli_all.trace["lie.build_algebra.calls"] == 16
    assert traced_cli_all.trace["orbits.AlgebraAutomorphism.preserves_brackets.calls"] == 8


def test_traced_reports_match_reference(traced_cli_all):
    gate = Gate("cli-all", 2024, load_reference())
    assert gate.judge(traced_cli_all.rc, traced_cli_all.outputs) == (415, 0, [])


def _corrupted(text: str, how: str) -> str:
    if how == "flip":
        k = len(text) // 2
        return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1 :]
    report = json.loads(text)
    report["results"][7]["status"] = "fail"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


class SteadyMeter:
    def seconds(self, start, end):
        return end - start


@pytest.mark.parametrize("how", ["flip", "status"])
@pytest.mark.parametrize("seed", [2024, 7])
def test_gate_fails_a_corrupted_report(traced_cli_all, how, seed, capsys, monkeypatch):
    monkeypatch.setattr(run, "host_meter", lambda: contextlib.nullcontext(SteadyMeter()))
    good = traced_cli_all
    bad = run.Pass(0, 1.0, 0.1, 20.0, {"all": _corrupted(good.outputs["all"], how)})
    # At seed 7 there is no reference digest, so the corrupted pass is caught
    # by differing from the pass before it.
    passes = iter([good, bad] if seed == 7 else [bad, bad])

    def spawn(workload, seed_, mode):
        return good if mode == "setup" else next(passes)

    argv = ["--workload", "cli-all", "--seed", str(seed), "--seconds", "0", "--trace", "0"]
    assert run.main(argv, spawn) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"] == 2 * 415


def test_ref_seconds_counts_the_ticks_in_an_interval():
    rate = run.REF_TICKS_PER_S * run.METER_SHARE  # beside a pass at the reference speed
    ticks = [k / rate for k in range(1, 10 * int(rate) + 1)]  # over (0, 10]
    assert run.ref_seconds(ticks, 2.0, 6.0) == pytest.approx(4.0, abs=2 / rate)
    # On a CPU at half the speed, an interval counts half its length.
    assert run.ref_seconds(ticks[::2], 2.0, 6.0) == pytest.approx(2.0, abs=2 / rate)
    assert run.ref_seconds(ticks, 20.0, 21.0) == 0


def test_host_meter_ticks_until_stopped():
    cpus = run.os.sched_getaffinity(0)
    with run.host_meter() as meter:
        assert run.os.sched_getaffinity(0) == {min(cpus)}
        t0 = time.monotonic()
        time.sleep(0.3)
        t1 = time.monotonic()
    assert run.os.sched_getaffinity(0) == cpus
    assert meter.proc.returncode == 0
    assert t0 < meter.ticks[-1] and list(meter.ticks) == sorted(meter.ticks)
    assert meter.seconds(t0, t1) > 0
