"""The serving benchmark: one command, two closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload warn-routed --seed 1 --seconds 20 --trace 0

It launches the serving stack with ``repro serve``, drives it through the
public ``ReproClient`` from this process, checks every answer, and prints
each metric with its unit. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.harness import HASH_SEED  # noqa: E402

#: Rounds per run; each launches fresh serving processes. The traced run
#: measures its first round untraced and its second traced.
ROUNDS = 2

#: Shortest serving window whose rate ``events_per_s`` ranks: no
#: end-to-end figure is timed over less than a second.
WINDOW_S = 1.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warn-routed", "onboard-recover"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="serving time of the whole run, split over its rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def _latency_summary(samples):
    from perfbench.ledger import percentile

    return {
        "samples": len(samples),
        "p50": percentile(samples, 50),
        "p90": percentile(samples, 90),
        "p99": percentile(samples, 99),
    }


def _serving(rounds) -> dict[str, tuple[float, str, int]]:
    """The two serving metrics: the fast decile of the decision latencies
    and of the window rates, so that a stretch of time in which the host
    runs slow does not move them."""
    from perfbench.ledger import percentile, window_rates

    samples = [value for r in rounds for value in r.latencies_ms]
    rates = [rate for r in rounds for rate in window_rates(r.calls, WINDOW_S)]
    return {
        "decide_p10_ms": (percentile(samples, 10), "ms", len(samples)),
        "events_per_s": (percentile(rates, 90), "decisions/s", len(rates)),
    }


def _end_to_end(rounds, ops) -> dict[str, tuple[float, str, int]]:
    """Each end-to-end metric as ``(value, unit, samples behind it)``."""
    recoveries = [t for r in rounds for t in r.recoveries]
    return {
        **_serving(rounds),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s", len(rounds)),
        "recover_s": (statistics.median(recoveries), "s", len(recoveries)),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MiB", len(rounds)),
        "ok_frac": ((ops.attempted - ops.failed) / max(ops.attempted, 1), "ratio",
                    ops.attempted),
    }


def _per_layer(rounds) -> dict[str, tuple[float, str, int]]:
    """The ledger of the traced round plus the tracing overhead, as
    ``(value, unit, decisions in the round)``."""
    from perfbench.ledger import UNITS, layer_metrics

    traced = [r for r in rounds if r.traced is not None]
    untraced = [r for r in rounds if r.traced is None]
    events = traced[0].acked
    out = {
        name: (value, UNITS[name], events)
        for name, value in layer_metrics(traced[0].traced).items()
    }
    for label, group in (("traced", traced), ("untraced", untraced)):
        out.update({f"{label}.{name}": figure for name, figure in _serving(group).items()})
    out["trace.overhead_frac"] = (
        1.0 - out["traced.events_per_s"][0] / out["untraced.events_per_s"][0],
        "ratio", events,
    )
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    from perfbench import harness, workloads

    generator_cpus, server_cpus = harness.cpu_sets()
    os.sched_setaffinity(0, generator_cpus)
    import numpy
    import scipy

    work = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_digest": _source_digest(),
        "nproc": os.cpu_count(), "generator_cpus": sorted(generator_cpus),
        "server_cpus": sorted(server_cpus), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "reference_loop_s": harness.reference_loop_s(),
    }
    ops = harness.Ops()
    try:
        workload = workloads.build(args.workload, args.seed, work)
        context = workloads.Context(
            root=ROOT, work=work, round_seconds=args.seconds / ROUNDS,
            server_cpus=server_cpus, ops=ops,
        )
        rounds = [
            workload.round(context, index, traced=bool(args.trace) and index == ROUNDS - 1)
            for index in range(ROUNDS)
        ]
        upto = max(
            index + 1 for r in rounds for index in r.done
            if workload.steps[index][0] != "close"
        )
        reference = workload.reference(upto)
        checks = {}
        for number, r in enumerate(rounds):
            r.checks["matches_in_process_reference"] = (
                workloads.digest(r.decisions) == workloads.digest(reference[:len(r.decisions)])
            )
            checks.update({f"round{number}.{name}": ok for name, ok in r.checks.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it

    metrics = _per_layer(rounds) if args.trace else _end_to_end(rounds, ops)
    correct = all(checks.values()) and ops.failed == 0
    samples = [v for r in rounds for v in r.latencies_ms]
    record.update({
        "rounds": [
            {"setup_s": r.setup_s, "serve_s": r.serve_s, "acked": r.acked,
             "recoveries_s": r.recoveries, "peak_rss_mb": r.rss_mb, "boots_s": r.boots,
             "latency_samples": len(r.latencies_ms)}
            for r in rounds
        ],
        "latency_ms": _latency_summary(samples),
        "mean_events_per_s": sum(r.acked for r in rounds) / sum(r.serve_s for r in rounds),
        "samples": {name: count for name, (_value, _unit, count) in metrics.items()},
        "error_frac": ops.failed / max(ops.attempted, 1),
        "errors": ops.errors,
        "checks": checks,
    })
    width = max(len(name) for name in metrics)
    for name, (value, unit, count) in metrics.items():
        print(f"{name:<{width}}  {value:14.6g} {unit:<12} ({count} samples)")
    latency = record["latency_ms"]
    print(f"{'decide latency':<{width}}  p50 {latency['p50']:.4g} ms  p90 "
          f"{latency['p90']:.4g} ms  p99 {latency['p99']:.4g} ms  "
          f"({latency['samples']} samples)")
    print(f"{'mean rate':<{width}}  {record['mean_events_per_s']:14.6g} decisions/s "
          f"over the whole serving phases")
    print(f"{'error_frac':<{width}}  {record['error_frac']:14.6g} "
          f"({ops.failed} of {ops.attempted} operations)")
    failed_checks = [name for name, ok in checks.items() if not ok]
    print("checks: " + ("all passed" if not failed_checks else "FAILED " + ", ".join(failed_checks)))
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _count) in metrics.items()
            if value is not None and math.isfinite(value)
        },
    }))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
