"""One workload process: build one campaign, run it once, report as JSON.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED [--trace SPANS_PATH]``
with ``src/`` on ``PYTHONPATH``.  ``run.py`` starts one of these per
repetition, so every repetition pays the import and population build a
user pays, and ``ru_maxrss`` is this one campaign's peak.

The clock starts before ``repro.scale`` is imported.  ``setup_s`` ends
at the first ``run_unit`` call; the work interval (``run_s``, ``cpu_s``)
runs from there until ``run()`` returns.  Without ``--trace`` the only
instrumentation is an instance attribute that notes the first unit and
runs the ``hostspeed.py`` kernel before each unit.  With ``--trace`` every
layer probe of ``layers.py`` is installed for the run, removed afterwards,
and the removal is verified.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _run(runner, first_unit: dict, host=None) -> object:
    """``runner.run()``, noting wall and CPU clocks at the first unit.

    With a ``host`` gauge, its reference kernel runs before every unit.
    """
    run_unit = runner.run_unit

    def noted(unit):
        if not first_unit:
            first_unit["wall"] = time.perf_counter()
            first_unit["cpu"] = time.process_time()
        if host is not None:
            host.sample()
        return run_unit(unit)

    runner.run_unit = noted
    try:
        return runner.run()
    finally:
        del runner.run_unit


def measure(workload_name: str, seed: int, spans_path=None) -> dict:
    """Run one campaign and return its timings, work figures and checks.

    Untraced, the reference kernel of ``hostspeed.py`` runs before every
    unit; the time it takes is left out of ``run_s``, ``cpu_s`` and
    ``wall_s`` and its mean slowdown is reported beside them.  Traced, it
    does not run, so spans cover only the program.
    """
    from repro.scale.parallel import canonical_result_bytes

    workload = WORKLOADS[workload_name]
    runner = workload.build(seed)
    units = len(runner.unit_specs())
    first_unit: dict = {}
    tracer = probes = host = None
    if spans_path is None:
        from hostspeed import HostSpeed

        host = HostSpeed()
    else:
        import layers

        tracer = layers.Tracer()
        probes, originals = layers.install(tracer, type(runner))
    try:
        run_started = time.perf_counter()
        result = _run(runner, first_unit, host)
        finished = time.perf_counter()
        cpu_finished = time.process_time()
    except Exception as error:  # a raising unit fails the whole campaign
        return {"workload": workload_name, "seed": seed, "units": units,
                "error": f"{type(error).__name__}: {error}"}
    finally:
        if probes is not None:
            probes.uninstall()
    spent_wall = host.spent_wall if host is not None else 0.0
    spent_cpu = host.spent_cpu if host is not None else 0.0
    report = {
        "workload": workload_name,
        "seed": seed,
        "setup_s": first_unit["wall"] - STARTED,
        "run_s": finished - first_unit["wall"] - spent_wall,
        "cpu_s": cpu_finished - first_unit["cpu"] - spent_cpu,
        "wall_s": finished - run_started - spent_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs": workload.epochs(runner, result),
        "units": units,
        "digest": hashlib.sha256(canonical_result_bytes(result)).hexdigest(),
        "unit_failures": workload.unit_failures(runner, result),
        "campaign_failures": workload.campaign_failures(runner, result),
    }
    if host is not None:
        report["slowdown_wall"], report["slowdown_cpu"] = host.slowdown()
    if tracer is not None:
        not_restored = layers.not_restored(originals)
        wall = report["wall_s"]
        times = layers.layer_times(tracer, wall)
        report["trace"] = {
            "metrics": layers.per_layer_metrics(times, tracer.counts, wall),
            "calls": times["calls"],
            "coverage_error_s": times["coverage_error_s"],
            "not_restored": not_restored,
        }
        layers.write_spans(tracer, spans_path, run_started)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", metavar="SPANS_PATH", default=None)
    args = parser.parse_args(argv)
    report = measure(args.workload, args.seed, spans_path=args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
