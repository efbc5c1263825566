"""Host-cost benchmark of the Blockumulus reproduction.

Usage (from the repository root)::

    python3 hostbench/run.py --workload burst-sim --seed 7000 --seconds 30 --trace 0

``--trace 0`` runs the workload for about ``--seconds`` and reports the
end-to-end metrics, with host times put on one reference machine speed by
``speed.SpeedProbe``; ``--trace 1`` runs a fixed pass untraced and then
twice with every catalogued layer function wrapped, and reports the
per-layer metrics.  Both check the outputs and print, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

#: Burst workloads: (signature scheme, transactions per burst, deployments
#: per pass).  burst-ecdsa pools four deployments because one 40-transaction
#: burst gives too few latency samples to be steady across seeds.
BURSTS = {"burst-sim": ("sim", 2000, 1), "burst-ecdsa": ("ecdsa", 40, 4)}
#: Matrix rounds (12 scenarios each) per chaos pass, timed and traced.
CHAOS_ROUNDS = 3
CHAOS_TRACED_ROUNDS = 1
WORKLOADS = (*BURSTS, "chaos")
#: Fresh interpreters whose import of the program is timed for ``setup_s``.
IMPORT_SAMPLES = 5
#: Unit of every metric, by name, as declared in ``BENCHMARK.json``.
UNITS: dict[str, str] = {}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import the program; ``workloads``/``layers`` pull in ``repro``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    global workloads, layers, speed, tracing
    import layers  # noqa: F401 - bound as globals for the functions below
    import speed  # noqa: F401
    import tracing  # noqa: F401
    import workloads  # noqa: F401


def import_seconds(samples: int) -> float:
    """The program's import time at the reference speed.

    The import is timed in ``samples`` fresh interpreters, one at a time,
    each sampling the speed probe while it imports and once after it (so
    that a fast import has a sample too); the median import is quoted at
    the median speed of all of them.
    """
    paths = [str(ROOT / name) for name in ("src", "benchmarks", "hostbench")]
    script = (
        "import json, sys, time\n"
        f"sys.path[:0] = {paths!r}\n"
        "import speed\n"
        "probe = speed.SpeedProbe()\n"
        "probe.start()\n"
        "started = time.perf_counter()\n"
        "import layers, tracing, workloads\n"
        "elapsed = time.perf_counter() - started - probe.probe_s\n"
        "probe.stop()\n"
        "probe.sample()\n"
        "print(json.dumps([elapsed, probe.samples]))\n"
    )
    imports, speeds = [], []
    for _ in range(samples):
        seconds, sampled = json.loads(subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, check=True, timeout=60,
            capture_output=True, text=True).stdout)
        imports.append(seconds)
        speeds.extend(sampled)
    return speed.SpeedProbe.normalise(statistics.median(imports), speeds)


def pass_units(workload: str, seed: int, traced: bool = False) -> list[Any]:
    """The units of one pass of ``workload`` for ``seed``."""
    if workload in BURSTS:
        scheme, count, deployments = BURSTS[workload]
        deployments = 1 if traced else deployments
        return [workloads.BurstUnit(scheme, count, seed + index) for index in range(deployments)]
    return workloads.chaos_slice(seed, CHAOS_TRACED_ROUNDS if traced else CHAOS_ROUNDS)


# ----------------------------------------------------------------------
# Simulated-time metrics (deterministic for a seed)
# ----------------------------------------------------------------------
def _percentile(values: list[float], fraction: float) -> float:
    if not values:  # nothing committed: the run is already marked incorrect
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _commit_rate(units: list[Any]) -> float:
    """Operations committed up to 90% of each unit, per simulated second.

    This is the slope of the completion curve; it leaves out the straggler
    tail that makes ``n / makespan`` hinge on one slow reply.
    """
    committed = elapsed = 0.0
    for unit in units:
        if not unit.committed:
            continue
        first = min(start for start, _end in unit.committed)
        ends = sorted(end for _start, end in unit.committed)
        count = -(-len(ends) * 9 // 10)
        committed += count
        elapsed += ends[count - 1] - first
    return committed / elapsed if elapsed else 0.0


def sim_metrics(workload: str, first_pass: list[Any]) -> tuple[dict[str, float], list[str]]:
    """Latency and throughput of the first pass, with how each was taken."""
    committed = sum(len(unit.committed) for unit in first_pass)
    values = {"sim_throughput_tps": _commit_rate(first_pass)}
    if workload in BURSTS:
        # One configuration: pool every committed op of the pass.
        latencies = [end - start for unit in first_pass for start, end in unit.committed]
        tail = min(0.99, 1 - 10 / max(len(latencies), 1))
        values["sim_latency_p50_s"] = _percentile(latencies, 0.5)
        values["sim_latency_p99_s"] = _percentile(latencies, tail)
        note = (f"sim latency over {committed} committed transactions of {len(first_pass)} "
                f"burst(s); sim_latency_p99_s is p{tail * 100:.2f}")
        if tail < 0.99:
            note += " (the highest percentile with 10 samples beyond it)"
    else:
        # Every scenario has its own configuration and fault schedule, so a
        # pooled tail would measure the slice's fault mix.  Take each
        # scenario's percentile and report the median over the pass.
        per = [[end - start for start, end in unit.committed]
               for unit in first_pass if unit.committed]
        values["sim_latency_p50_s"] = _percentile([_percentile(lat, 0.5) for lat in per], 0.5)
        values["sim_latency_p99_s"] = _percentile([_percentile(lat, 0.99) for lat in per], 0.5)
        note = (f"sim latency: median over {len(per)} scenarios of each scenario's p50 and p99 "
                f"({committed} committed ops in all)")
    return values, [note]


# ----------------------------------------------------------------------
# Correctness shared by both modes
# ----------------------------------------------------------------------
def check_repeats(results: list[Any], failures: list[str]) -> None:
    """Every repeat of a unit must reproduce its first digest and counters."""
    first: dict[str, Any] = {}
    for result in results:
        failures.extend(result.failures)
        seen = first.setdefault(result.key, result)
        if seen is not result and (seen.digest, seen.counters) != (result.digest, result.counters):
            failures.append(f"{result.key}: repeat differs from its first run")


def _result_line(correct: bool, attempted: int, failed: int,
                 metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _operations(workload: str, results: list[Any]) -> tuple[int, int]:
    """(attempted, failed) benchmark operations.

    A burst operation is a transaction, which must commit; a chaos
    operation is a scenario, which must pass all four oracles.
    """
    if workload in BURSTS:
        return sum(r.attempted for r in results), sum(r.attempted - r.ok for r in results)
    return len(results), sum(1 for r in results if r.failures)


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(workload: str, seed: int, seconds: float) -> int:
    units = pass_units(workload, seed)
    probe = speed.SpeedProbe()
    marks: list[speed.Mark] = []
    results = []
    probe.start()
    try:
        began = time.perf_counter()
        while len(results) < len(units) or time.perf_counter() - began < seconds:
            unit = units[len(results) % len(units)]
            results.append(unit.run(on_phase=lambda _phase: marks.append(probe.mark())))
    finally:
        probe.stop()
    failures: list[str] = []
    check_repeats(results, failures)

    # Each unit left three marks: set-up, timed phase, done.  Host times
    # lose the probe's own time and are quoted at the reference speed:
    # a pass's wall at the speed sampled during it, set-up at the run's.
    setups = list(zip(marks[0::3], marks[1::3]))
    phases = list(zip(marks[1::3], marks[2::3]))
    complete = len(results) // len(units)
    passes = [results[k * len(units):(k + 1) * len(units)] for k in range(complete)]
    pass_ops = [sum(r.attempted for r in p) for p in passes]
    raw_wall, pass_wall = [], []
    for k, pass_results in enumerate(passes):
        samples, probe_s = probe.window(phases[k * len(units):(k + 1) * len(units)])
        raw_wall.append(sum(r.wall_s for r in pass_results) - probe_s)
        pass_wall.append(probe.normalise(raw_wall[-1], samples))
    unit_setup = statistics.median(
        r.setup_s - probe.window([window])[1] for r, window in zip(results, setups))
    first_pass = passes[0]
    sim, notes = sim_metrics(workload, first_pass)
    values = {
        "wall_ms_per_tx": statistics.median(w / n * 1e3 for w, n in zip(pass_wall, pass_ops)),
        "chaos_scenarios_per_min": statistics.median(len(units) / w * 60 for w in pass_wall),
        "setup_s": import_seconds(IMPORT_SAMPLES) + probe.normalise(unit_setup, probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
        "ok_op_share": sum(r.ok for r in first_pass) / sum(r.attempted for r in first_pass),
    }
    print(f"hostbench {workload} seed={seed}: {len(results)} units in {complete} complete "
          f"pass(es) of {len(units)}, {time.perf_counter() - began:.1f} s")
    notes.append(f"setup_s is the median import time over {IMPORT_SAMPLES} interpreters "
                 f"plus the median set-up of {len(results)} units")
    notes.append(
        f"host times are quoted at the probe's reference speed ({speed.REFERENCE_S * 1e3:g} ms "
        f"per sample); median probe sample {statistics.median(probe.samples) * 1e3:.3f} ms, "
        f"raw wall_ms_per_tx "
        f"{statistics.median(w / n * 1e3 for w, n in zip(raw_wall, pass_ops)):.6g} ms")
    for note in notes:
        print(f"  note: {note}")
    for name, value in values.items():
        print(f"  {name:<26}{value:>14.6g} {UNITS[name]}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    attempted, failed = _operations(workload, results)
    correct = not failures and failed == 0
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Traced run (--trace 1)
# ----------------------------------------------------------------------
def _traced_pass(recorder: Any, units: list[Any]) -> tuple[list[Any], Any, int, list]:
    """Run ``units`` with the recorder installed.

    Returns the unit results, the span summary of their timed phases, the
    traced wall of those phases (ns) and the phases' time windows.
    """
    results, windows = [], []
    for unit in units:
        window: list[int] = []

        def on_phase(phase: str) -> None:
            if phase != "setup":
                window.append(time.perf_counter_ns())

        results.append(unit.run(on_phase=on_phase))
        windows.append((window[0], window[1]))
    wall = sum(high - low for low, high in windows)
    return results, recorder.summarize(layers.group_of, windows), wall, windows


def traced_run(workload: str, seed: int) -> int:
    units = pass_units(workload, seed, traced=True)
    plain = [unit.run() for unit in units]
    recorder = tracing.SpanRecorder(layers.PACKAGES)
    layers.install(recorder)
    try:
        first, summary, traced_wall, windows = _traced_pass(recorder, units)
        spans_path = ROOT / ".hostbench" / f"spans-{workload}-seed{seed}.json"
        recorder.write(spans_path, {"workload": workload, "seed": seed,
                                    "units": [unit.key for unit in units],
                                    "timed_windows_ns": windows})
        recorder.clear()
        second, repeat, _, _ = _traced_pass(recorder, units)
    finally:
        recorder.uninstall()

    failures = [f"span target missing from the program: {label}" for label in recorder.missing]
    for result in plain + first + second:
        failures.extend(result.failures)
    for a, b, c in zip(plain, first, second):
        if not a.digest == b.digest == c.digest:
            failures.append(f"{a.key}: traced and untraced runs disagree on ledgers/state")
        if not a.counters == b.counters == c.counters:
            failures.append(f"{a.key}: traced and untraced runs disagree on program counters")
    counts, repeat_counts = summary.signature(), repeat.signature()
    not_gateable = sorted(
        name for name in set(counts) | set(repeat_counts)
        if counts.get(name) != repeat_counts.get(name)
    )

    counters = {key: sum(r.counters[key] for r in first) for key in first[0].counters}
    ops = len(units) if workload == "chaos" else sum(r.ok for r in first)
    plain_wall = sum(r.wall_s for r in plain)
    values = layers.per_layer_metrics(summary, counters, max(ops, 1), len(units), traced_wall)
    values["trace.overhead_ratio"] = traced_wall / 1e9 / plain_wall

    print(f"hostbench {workload} seed={seed} traced: {len(units)} unit(s), untraced "
          f"{plain_wall:.2f} s, traced {traced_wall / 1e9:.2f} s, "
          f"traced twice; spans in {spans_path.relative_to(ROOT)}")
    print("  call counts repeat exactly across the two traced runs: "
          + ("yes" if not not_gateable else f"no, not gateable: {', '.join(not_gateable)}"))
    for name, value in values.items():
        print(f"  {name:<44}{value:>14.6g} {UNITS[name]}")
    _print_expectations(workload, values, traced_wall / 1e9 / len(units))
    for failure in failures:
        print(f"  FAILED: {failure}")
    attempted, failed = _operations(workload, plain + first + second)
    correct = not failures and failed == 0
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def _print_expectations(workload: str, values: dict[str, float], unit_wall_s: float) -> None:
    """The layer each workload was chosen for should dominate its trace."""
    checks: list[tuple[str, Callable[[], bool]]] = {
        "burst-sim": [
            ("keccak and scalar multiplications ~0 per op",
             lambda: values["crypto.keccak.calls_per_op"] < 0.01
             and values["crypto.secp256k1.scalar_mults_per_op"] < 0.01),
        ],
        "burst-ecdsa": [
            ("crypto.self_share >= 0.8", lambda: values["crypto.self_share"] >= 0.8),
        ],
        "chaos": [
            ("replay stage >= 30% of scenario wall",
             lambda: values["chaos.stage.replay_s"] >= 0.3 * unit_wall_s),
        ],
    }[workload]
    for label, check in checks:
        print(f"  expectation: {label}: {'met' if check() else 'NOT met'}")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        _import_program()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError) as exc:
        print(f"hostbench: cannot load the program from {ROOT}: {exc}", file=sys.stderr)
        return 2
    UNITS.update((m["name"], m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    if args.trace:
        return traced_run(args.workload, args.seed)
    return timed_run(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
