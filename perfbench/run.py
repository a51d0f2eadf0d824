"""Time-to-verdict benchmark for contactcheck.

    python3 perfbench/run.py --workload cli-all --seed 2024 --seconds 50 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each pass runs one workload in a fresh interpreter (``child.py``), one pass
at a time: a closed loop with one client.  A run repeats passes for
``--seconds`` and reports medians.  Every pass goes through the correctness
gate (``gate.py``).  The untraced passes share one CPU with a host-speed
meter (``meter.py``), and their times are reported as the meter's ticks
during them, in seconds at :data:`REF_TICKS_PER_S`.  With ``--trace 1`` the
run alternates untraced and span-traced passes and adds one pass that counts
scalar constructions; it reports per-layer metrics instead of end-to-end
ones.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import Gate, load_reference  # noqa: E402
from spans import span_key  # noqa: E402
from workloads import SETUPS  # noqa: E402

DEFAULT_SEED = 2024
DEFAULT_SECONDS = 30
#: Two passes at least, so a seed without a reference digest is still
#: checked for byte-identical reports.
MIN_PASSES = 2
#: Set-up is short and noisy, so a run takes at least this many samples,
#: from the timed passes and from probes that stop before the first suite.
MIN_SETUPS = 21

#: Meter ticks per second on a CPU of its own at the reference speed: a
#: 2-core x86-64 VM with Python 3.11 in its fast state, 1.4 ms a tick.
REF_TICKS_PER_S = 700.0
#: The meter runs at this nice value, so that it slows a pass by a quarter,
#: not by half: the scheduler weighs nice 5 at 335 against 1024 at nice 0.
METER_NICE = 5
METER_SHARE = 335 / (335 + 1024)

#: ``wall_ref_s`` and ``setup_s`` are seconds at the reference speed.
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

#: Per-layer metrics of the traced run.  ``.s`` is inclusive seconds,
#: ``.calls`` an exact count, ``self_s`` span time minus child spans.
PER_LAYER = (
    ("scalars.fraction_new", "count"),
    ("scalars.gaussian_new", "count"),
    ("poly.self_s", "s"),
    ("poly.mul.calls", "count"),
    ("poly.gcd.calls", "count"),
    ("poly.gcd.s", "s"),
    ("laurent.self_s", "s"),
    ("laurent.mul.calls", "count"),
    ("ratfunc.self_s", "s"),
    ("ratfunc.new.calls", "count"),
    ("ratfunc.compose.s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.row_echelon.calls", "count"),
    ("linalg.row_echelon.s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.s", "s"),
    ("linalg.mat_vec.s", "s"),
    ("linalg.determinant.s", "s"),
    ("rootsystem.build.s", "s"),
    ("lie.self_s", "s"),
    ("lie.build_algebra.calls", "count"),
    ("lie.build_algebra.s", "s"),
    ("lie.killing.s", "s"),
    ("lie.grade.s", "s"),
    ("lie.bracket.calls", "count"),
    ("forms.self_s", "s"),
    ("forms.exterior_derivative.calls", "count"),
    ("forms.interior_product.calls", "count"),
    ("contact.self_s", "s"),
    ("contact.hamiltonian_field.calls", "count"),
    ("contact.hamiltonian_field.s", "s"),
    ("contact.euler_field.s", "s"),
    ("contact.check_scaling_identities.s", "s"),
    ("contact.check_invariance_identities.s", "s"),
    ("contact.verify_axioms.s", "s"),
    ("contact.reconstruct_cstructure.s", "s"),
    ("contact.canonical_cocycle_check.s", "s"),
    ("contact.quotient_checks.s", "s"),
    ("contact.immersion_rank.s", "s"),
    ("orbits.self_s", "s"),
    ("orbits.exp_ad.calls", "count"),
    ("orbits.exp_ad.s", "s"),
    ("orbits.theta_G_checks.s", "s"),
    ("orbits.orbit_sample.s", "s"),
    ("orbits.kappa_round_trip.s", "s"),
    ("orbits.preserves_brackets.s", "s"),
    ("orbits.preserves_form.s", "s"),
    ("orbits.embedding_checks.s", "s"),
    ("cli.self_s", "s"),
    ("report.to_json.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: The per-layer metrics on the result line: every count, and the only times
#: that are nonzero on all four workloads.  A layer a workload does not use
#: reads exactly 0 s on every run, so the other times are printed only.
REPORTED_TIMES = ("linalg.self_s", "report.to_json.s", "trace.overhead_ratio")
REPORTED_PER_LAYER = tuple(
    (name, unit) for name, unit in PER_LAYER if unit == "count" or name in REPORTED_TIMES
)


@dataclass
class Pass:
    rc: int
    wall_s: float
    setup_s: float
    rss_mb: float
    outputs: Optional[Dict[str, str]]
    trace: Dict[str, float] = field(default_factory=dict)
    #: monotonic time of the spawn; ``wall_s`` and ``setup_s`` count from it
    t_start: float = 0.0


Spawn = Callable[[str, int, str], Pass]


def spawn_pass(workload: str, seed: int, mode: str) -> Pass:
    """Run ``child.py`` and time it from spawn to set-up end and to verdict."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "child.py"), workload, str(seed), mode],
        stdout=subprocess.PIPE,
    )
    with proc.stdout:
        raw = proc.stdout.read()
    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give the
    # largest over every child so far.
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(raw)
    except ValueError:
        data = {}
    return Pass(
        rc=proc.returncode,
        wall_s=data.get("t_done", t_exit) - t0,
        setup_s=data.get("t_ready", t_exit) - t0,
        rss_mb=usage.ru_maxrss / 1024,
        outputs=data.get("outputs"),
        trace=data.get("trace", {}),
        t_start=t0,
    )


def ref_seconds(ticks: Sequence[float], start: float, end: float) -> float:
    """The ticks in ``[start, end]`` as seconds of a pass alone at the reference speed."""
    count = bisect.bisect(ticks, end) - bisect.bisect(ticks, start)
    return count / (REF_TICKS_PER_S * METER_SHARE)


class HostMeter:
    """One run's ``meter.py`` process: started ticking on creation.

    The meter and a pass on the same CPU get fixed shares of it, so the
    ticks during the pass measure the pass's work in units of the meter's,
    whatever the CPU's speed and whatever else runs on it.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "meter.py"), str(METER_NICE)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.ticks = array("d")
        if self.proc.stdout.read(1) != b".":
            self.stop()
            raise RuntimeError("the host-speed meter did not start")

    def stop(self) -> None:
        """Tell the meter to stop, collect its ticks, and wait for it."""
        self.proc.stdin.close()
        with self.proc.stdout:
            raw = self.proc.stdout.read()
        self.proc.wait()
        self.ticks.frombytes(raw[: len(raw) - len(raw) % self.ticks.itemsize])

    def seconds(self, start: float, end: float) -> float:
        return ref_seconds(self.ticks, start, end)


@contextlib.contextmanager
def host_meter() -> Iterator[HostMeter]:
    """Pin this process, and so every child it spawns, to one CPU with a meter."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        meter = HostMeter()
        try:
            yield meter
        finally:
            meter.stop()
    finally:
        os.sched_setaffinity(0, cpus)


def repeat(round_: Callable[[], Sequence[Pass]], seconds: float, min_rounds: int) -> List[Sequence[Pass]]:
    """Run rounds until the next one would end after ``seconds``."""
    deadline = time.monotonic() + seconds
    rounds: List[Sequence[Pass]] = []
    durations: List[float] = []
    while len(rounds) < min_rounds or time.monotonic() + statistics.median(durations) <= deadline:
        t0 = time.monotonic()
        rounds.append(round_())
        durations.append(time.monotonic() - t0)
    return rounds


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: name -> (unit, samples) of the reported metrics
    samples: Dict[str, Tuple[str, List[float]]] = field(default_factory=dict)
    #: printed with the reported metrics but not part of the result line
    extra: Dict[str, Tuple[str, List[float]]] = field(default_factory=dict)

    def judge(self, gate: Gate, passes: Sequence[Pass]) -> None:
        for p in passes:
            attempted, failed, problems = gate.judge(p.rc, p.outputs)
            self.attempted += attempted
            self.failed += failed
            self.problems += problems

    def metrics(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in self.samples.items()
        }


def run_untraced(workload: str, seed: int, seconds: float, spawn: Spawn = spawn_pass) -> Result:
    gate = Gate(workload, seed, load_reference())
    with host_meter() as meter:
        # A set-up probe before each pass spreads the set-up samples over the run.
        rounds = repeat(
            lambda: [spawn(workload, seed, "setup"), spawn(workload, seed, "plain")],
            seconds,
            MIN_PASSES,
        )
        passes = [r[1] for r in rounds]
        probes = [r[0] for r in rounds]
        while len(passes) + len(probes) < MIN_SETUPS:
            probes.append(spawn(workload, seed, "setup"))
    result = Result()
    result.judge(gate, passes)
    for probe in probes:
        if probe.rc != 0:
            result.problems.append(f"{workload}: set-up exited {probe.rc}")
    values = {
        "wall_ref_s": [meter.seconds(p.t_start, p.t_start + p.wall_s) for p in passes],
        "setup_s": [meter.seconds(p.t_start, p.t_start + p.setup_s) for p in passes + probes],
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    if 0 in values["wall_ref_s"] + values["setup_s"]:
        result.problems.append(f"{workload}: the host-speed meter did not tick during a pass")
    result.samples = {name: (unit, values[name]) for name, unit in END_TO_END}
    result.extra = {
        "wall_s": ("s", [p.wall_s for p in passes]),
        "setup_wall_s": ("s", [p.setup_s for p in passes + probes]),
    }
    return result


def run_traced(workload: str, seed: int, seconds: float, spawn: Spawn = spawn_pass) -> Result:
    gate = Gate(workload, seed, load_reference())
    rounds = repeat(
        lambda: [spawn(workload, seed, "plain"), spawn(workload, seed, "spans")], seconds, 1
    )
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    counted = spawn(workload, seed, "counts")
    result = Result()
    result.judge(gate, plain + traced + [counted])
    for name, unit in PER_LAYER:
        samples = result.samples if (name, unit) in REPORTED_PER_LAYER else result.extra
        if name == "trace.overhead_ratio":
            values = [
                statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain)
            ]
        else:
            source = counted if name.startswith("scalars.") else None
            values = [p.trace.get(span_key(name), 0) for p in ([source] if source else traced)]
            if unit == "count" and len(set(values)) > 1:
                result.problems.append(f"{name} differs between traced passes: {values}")
        samples[name] = (unit, values)
    for key in sorted(traced[0].trace):
        if key.endswith(".self_s") and key not in result.samples and key not in result.extra:
            result.extra[key] = ("s", [p.trace[key] for p in traced])
    return result


def environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"{platform.platform()}, loadavg {load}"
    )


def print_table(result: Result) -> None:
    for name, (unit, values) in {**result.samples, **result.extra}.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:40s} {median:14.10g} {unit:6s} q1 {q1:<14.10g} q3 {q3:<14.10g} n {len(values)}")
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"{'fail_ratio':40s} {ratio:14.6g} {'1':6s} {result.failed} of {result.attempted} checks")
    for problem in result.problems:
        print(f"FAIL {problem}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float, traced: bool, spawn: Spawn = spawn_pass) -> Result:
    print(f"# workload {workload}, seed {seed}, {seconds} s, trace {int(traced)}")
    print(f"# {environment()}")
    result = (run_traced if traced else run_untraced)(workload, seed, seconds, spawn)
    print_table(result)
    return result


def main(argv: Optional[Sequence[str]] = None, spawn: Spawn = spawn_pass) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SETUPS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "contactcheck" / "__init__.py").is_file():
        print(f"no contactcheck source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(SETUPS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = {}
    for workload in workloads:
        for traced in modes:
            results[workload, traced] = measure(workload, args.seed, args.seconds, traced, spawn)
    everything = list(results.values())
    correct = all(r.failed == 0 and not r.problems for r in everything)
    summary = {
        "correct": correct,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
    }
    if len(results) == 1:
        summary["metrics"] = everything[0].metrics()
    else:
        summary["metrics"] = {
            f"{workload}/{'trace' if traced else 'plain'}": r.metrics()
            for (workload, traced), r in results.items()
        }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
