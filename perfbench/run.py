"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Runs units of the workload (see ``unit.py``), each in a fresh process,
until ``T`` seconds are used, checks every unit's outputs, and prints
one JSON result as the last stdout line.  Any unit whose outputs are
wrong makes the run ``correct: false`` and exit 1.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``, each the median over the run's units.  Times are
scaled to a reference host speed: a fixed ~40 ms pure-Python probe runs
eight times between units, and each unit's times are multiplied by
``HOST_REF_MS`` over the median of the probes around that unit.  The
host this benchmark was built on changes speed by 30-60% within minutes
with its neighbours' load, which moves every time of a unit alike; the
probe sees the same change and cancels much of it.  The medians as
measured are printed on ``#`` lines above the result, with the probe
figures in the ``# stamp`` line.

With ``--trace 1`` the result carries the per-layer metrics (as
measured, never scaled), from traced units alternated with untraced ones.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``study-cold``: ``repro run --seed S`` at paper scale, serial.
* ``orchestrate-queue``: two seeds through a fresh ``Orchestrator`` at
  the ``repro orchestrate`` defaults, then resubmitted and replayed from
  its shared disk store.
* ``stream-serve`` (not in ``BENCHMARK.json``): an in-process
  ``ControlServer`` serving campaigns of distinct seeds, one after
  another, to one SSE client.  Some tails end without their ``end``
  frame: ``ControlServer``'s lag recovery retries the ring once, and an
  unpaced campaign can evict past the retry cursor too, so the handler
  dies.  The workload returns to the benchmark once that is fixed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402  (after the path fix above)
    WORKLOADS,
    parse_importtime,
    quartiles,
    unit_failures,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

UNIT_TIMEOUT = 90.0
#: Units a run makes at least, however short ``--seconds`` is.
MIN_UNITS = 3

ENTRY_IMPORTS = {
    "study-cold": "repro.cli",
    "stream-serve": "repro.stream",
    "orchestrate-queue": "repro.orchestrator",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_pins() -> dict:
    with open(HERE / "pins.json") as handle:
        return json.load(handle)


# -- host speed ------------------------------------------------------------------

#: The probe's median, in ms, on this host type when no neighbour
#: contends (2 vCPU Xeon at 2.1 GHz).  End-to-end times are reported at
#: this host speed: each unit's times are scaled by HOST_REF_MS over the
#: median of the probes taken just before and just after that unit.
HOST_REF_MS = 30.0
PROBES_PER_UNIT = 8


def _probe() -> float:
    """A fixed ~40 ms pure-Python loop; returns its wall seconds."""
    begin = time.perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return time.perf_counter() - begin


def probe_block() -> list:
    return [_probe() for _ in range(PROBES_PER_UNIT)]


def host_stamp(times: list) -> dict:
    return {
        "probe_min_ms": round(min(times) * 1e3, 3),
        "probe_median_ms": round(statistics.median(times) * 1e3, 3),
        "loadavg": list(os.getloadavg()),
    }


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


# -- units ----------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def run_unit(workload: str, seed: int, trace: bool) -> dict:
    """Spawn one unit; returns its record with ``setup_s`` filled in."""
    command = [sys.executable, str(HERE / "unit.py"), workload,
               "--seed", str(seed), "--trace", str(int(trace)),
               "--work", str(WORK)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=child_env(), cwd=str(ROOT),
                              timeout=UNIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"exit_code": "timeout", "elapsed": time.monotonic() - spawned}
    elapsed = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return {"exit_code": proc.returncode or "no-record",
                "elapsed": elapsed}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        record["exit_code"] = proc.returncode
    record["setup_s"] = record["ready"] - spawned
    record["elapsed"] = elapsed
    return record


def import_times(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"import {ENTRY_IMPORTS[workload]}"],
        capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
        timeout=UNIT_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import of {ENTRY_IMPORTS[workload]} failed")
    return parse_importtime(proc.stderr)


# -- metrics ---------------------------------------------------------------------

def median_of(records, key):
    return statistics.median(record[key] for record in records)


def scaled_median(records, key):
    """Median over units of a time, each at the reference host speed."""
    return statistics.median(
        record[key] * record["host_factor"] for record in records)


def end_to_end_metrics(records, units) -> dict:
    return {name: scaled_median(records, name) if unit == "s"
            else median_of(records, name)
            for name, unit in units.items()}


def per_layer_metrics(names, traced, untraced, imports) -> dict:
    """Medians over the traced units; zero for a layer the workload skips."""
    metrics = {}
    for name in names:
        if name.startswith("imports."):
            group = name[len("imports."):-len("_s")]
            metrics[name] = statistics.median(
                sample[group] for sample in imports)
        elif name == "trace.overhead_ratio":
            # Both sides at the reference host speed, so that a change of
            # host speed between the units does not read as overhead.
            metrics[name] = (scaled_median(traced, "wall_s")
                             / scaled_median(untraced, "wall_s") - 1.0)
        else:
            metrics[name] = statistics.median(
                record["layers"].get(name, 0) for record in traced)
    return metrics


# -- the run ---------------------------------------------------------------------

def check_units(workload, seed, records, pins) -> list:
    """Failure reasons per unit (a list of lists, one per record)."""
    pinned = pins.get(workload, {}).get(str(seed), {})
    reference = pinned.get("digest")
    verdicts = []
    for record in records:
        if reference is None and "digest" in record:
            reference = record["digest"]  # equal across units
        failures = unit_failures(workload, record, reference)
        fidelity = record.get("fidelity")
        if fidelity is not None and "fidelity" in pinned:
            for key in ("mean", "max"):
                if abs(fidelity[key] - pinned["fidelity"][key]) > 1e-9:
                    failures.append(f"fidelity {key} {fidelity[key]} != "
                                    f"pinned {pinned['fidelity'][key]}")
        verdicts.append(failures)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    pins = load_pins()
    WORK.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)

    records, traced, imports = [], [], []
    before = probe_block()
    stamp = {"env": environment(), "before": host_stamp(before)}
    started = time.monotonic()
    deadline = started + args.seconds
    durations = []
    trace_next = bool(args.trace)
    while True:
        expected = statistics.median(durations) if durations else 0.0
        enough = (traced and records) if args.trace else (
            len(records) >= MIN_UNITS)
        if enough and time.monotonic() + expected > deadline:
            break
        is_traced = args.trace and trace_next
        record = run_unit(args.workload, args.seed, is_traced)
        after = probe_block()
        record["host_factor"] = HOST_REF_MS / (
            statistics.median(before + after) * 1e3)
        before = after
        durations.append(record["elapsed"])
        (traced if is_traced else records).append(record)
        if is_traced and record.get("exit_code", 0) == 0:
            imports.append(import_times(args.workload))
        if args.trace:
            trace_next = not trace_next
    stamp["after"] = host_stamp(before)
    stamp["host_factors"] = [round(record["host_factor"], 4)
                             for record in records + traced]
    stamp["units"] = len(records) + len(traced)
    stamp["measured_s"] = round(time.monotonic() - started, 3)

    every = records + traced
    verdicts = check_units(args.workload, args.seed, every, pins)
    failed = sum(1 for failures in verdicts if failures)
    for record, failures in zip(every, verdicts):
        for failure in failures:
            print(f"# FAIL unit ({'traced' if record.get('traced') else 'e2e'}"
                  f"): {failure}", file=sys.stderr)
    correct = failed == 0
    stamp["fail_ratio"] = failed / len(every)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    values = {}
    if correct:
        if args.trace:
            values = per_layer_metrics(units, traced, records, imports)
            stamp["unattributed_share"] = median_of(traced,
                                                    "unattributed_share")
            if args.workload == "study-cold":
                stamp["fidelity"] = traced[0]["fidelity"]
        else:
            values = end_to_end_metrics(records, units)
            for name in units:
                q1, median, q3 = quartiles([r[name] for r in records])
                print(f"# {args.workload} {name}: reported {values[name]:.6g}"
                      f" {units[name]}; as measured median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} (n={len(records)})")
        if set(values) != set(units):
            print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                  "differ from BENCHMARK.json", file=sys.stderr)
            return 2
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
