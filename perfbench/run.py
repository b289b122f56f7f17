"""Benchmark entry point: run one workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload e14_availability --seed 81 \\
        --seconds 30 --trace 0

Every campaign runs in a fresh ``worker.py`` process.  ``--trace 0`` runs
whole rounds over a panel of campaign seeds drawn from ``--seed`` (the seed
itself first) for about ``--seconds`` and reports the end-to-end metrics,
with times converted to the nominal host speed that ``hostspeed.py`` gauges.
``--trace 1`` runs the ``--seed`` campaign once untraced, then traced for
the rest of the time, and reports the median of each per-layer metric.
Either mode fails the run (exit 1, ``"correct": false``) when an output
check fails: a unit or campaign invariant, a recorded digest, two equal
seeds giving different bytes, and in traced runs a work counter that does
not repeat, a traced digest that differs from the untraced one, self times
that do not add up to the wall time, or a probe left installed.  The last
line of standard output is the JSON result; README.md describes it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from hostspeed import at_nominal  # noqa: E402
from layers import WORK_COUNTERS  # noqa: E402
from workloads import DEFAULT_SEED, DIGESTS, WORKLOADS  # noqa: E402

#: Traced campaigns per traced run, at least: two are needed to compare
#: work counters.
MIN_TRACED = 2
#: A single campaign process is killed after this long.
WORKER_TIMEOUT_S = 120


def _worker(workload: str, seed: int, spans_path=None) -> dict:
    """Run one campaign in a fresh process; raise if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if spans_path is not None:
        command += ["--trace", str(spans_path)]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} worker exited "
                           f"{done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _repeat(workload: str, seeds: list, seconds: float, minimum: int,
            spans_path=None) -> list:
    """Whole rounds over ``seeds``, one campaign each, while ``seconds`` allow.

    Runs at least ``minimum`` rounds and stops before a round that would
    end past ``seconds``.  Returns one list of reports per round.
    """
    rounds = []
    started = time.perf_counter()
    while True:
        rounds.append([_worker(workload, seed, spans_path) for seed in seeds])
        elapsed = time.perf_counter() - started
        if (len(rounds) >= minimum
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
            return rounds


def panel(workload: str, seed: int) -> list:
    """The campaign seeds one untraced run measures: ``seed`` and its draws.

    A seed changes how much work a campaign needs (two E14 seeds ran 25%
    apart on the same host), so each round measures a panel of seeds and
    reports their pooled rate.
    """
    draw = random.Random(seed)
    size = WORKLOADS[workload].panel
    return [seed] + [draw.randrange(2**31) for _ in range(size - 1)]


def _failures(workload: str, reports: list) -> list:
    """Why the campaigns' outputs are wrong, if they are."""
    problems = []
    digests = defaultdict(set)
    for report in reports:
        if "error" in report:
            problems.append(f"seed {report['seed']} raised {report['error']}")
            continue
        problems += report["unit_failures"] + report["campaign_failures"]
        digests[report["seed"]].add(report["digest"])
    for seed, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"seed {seed} gave {len(seen)} different results")
        expected = DIGESTS.get((workload, seed))
        if expected is not None and seen != {expected}:
            problems.append(f"seed {seed} result digest {sorted(seen)} "
                            f"!= recorded {expected}")
    return problems


def _failed_units(reports: list, problems: list) -> int:
    """Units counted failed: each wrong unit, or all when the campaign is wrong."""
    unit_wrong = sum(len(report.get("unit_failures", ())) for report in reports)
    if len(problems) > unit_wrong:
        return sum(report["units"] for report in reports)
    return unit_wrong


def end_to_end(rounds: list) -> dict:
    """Medians over campaigns (set-up, memory) and over rounds (work rates).

    Set-up, work and CPU seconds are converted to the nominal host with the
    slowdown that ``hostspeed.py`` measured during the same campaign.  A
    round's throughput is its total epochs over its total work time, so
    every seed of the panel weighs by the work it needs.
    """
    reports = [report for round_ in rounds for report in round_]

    def median(values):
        return statistics.median(list(values))

    return {
        "setup_s": {"value": median(at_nominal(r["setup_s"], r["slowdown_wall"])
                                    for r in reports), "unit": "s"},
        "epochs_per_s": {
            "value": median(sum(r["epochs"] for r in round_)
                            / sum(at_nominal(r["run_s"], r["slowdown_wall"])
                                  for r in round_)
                            for round_ in rounds),
            "unit": "1/s"},
        "cpu_s": {
            "value": median(statistics.fmean(at_nominal(r["cpu_s"], r["slowdown_cpu"])
                                             for r in round_)
                            for round_ in rounds),
            "unit": "s"},
        "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in reports),
                        "unit": "MB"},
    }


def host_note(rounds: list) -> str:
    """The unadjusted throughput and the host slowdown, for standard error."""
    reports = [report for round_ in rounds for report in round_]
    raw = (sum(r["epochs"] for r in reports) / sum(r["run_s"] for r in reports))
    slowdown = statistics.fmean(r["slowdown_wall"] for r in reports)
    return (f"host slowdown {slowdown:.3f} (wall, mean over campaigns); "
            f"unadjusted epochs_per_s {raw:.1f}")


def per_layer(plain: dict, traced: list) -> tuple:
    """Median per-layer metrics over the traced campaigns, and any problems."""
    problems = []
    first = traced[0]["trace"]
    for report in traced[1:]:
        for name in WORK_COUNTERS:
            a, b = first["metrics"][name][0], report["trace"]["metrics"][name][0]
            if a != b:
                problems.append(f"work counter {name} differs between traced "
                                f"runs: {a} vs {b}")
        if report["trace"]["calls"] != first["calls"]:
            problems.append("layer call counts differ between traced runs")
    for report in traced:
        trace = report["trace"]
        if trace["not_restored"]:
            problems.append(f"probes left installed: {trace['not_restored']}")
        if trace["coverage_error_s"] > 1e-6:
            problems.append(f"self times miss the traced wall time by "
                            f"{trace['coverage_error_s']} s")
        if report["digest"] != plain["digest"]:
            problems.append("traced result differs from the untraced result")
    metrics = {}
    for name, (_, unit) in first["metrics"].items():
        values = [report["trace"]["metrics"][name][0] for report in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    metrics["trace_overhead"] = {
        "value": metrics["traced_wall_s"]["value"] / plain["wall_s"], "unit": "ratio"}
    return metrics, problems


def _declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "scale" / "__init__.py").is_file():
        print(f"perfbench: no repro.scale sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        plain = _worker(args.workload, args.seed)
        rounds = _repeat(args.workload, [args.seed],
                         args.seconds - plain["wall_s"], MIN_TRACED, spans_path)
        traced = [round_[0] for round_ in rounds]
        reports = [plain] + traced
    else:
        rounds = _repeat(args.workload, panel(args.workload, args.seed),
                         args.seconds, 1)
        reports = [report for round_ in rounds for report in round_]
    problems = _failures(args.workload, reports)
    metrics = {}
    if not any("error" in report for report in reports):
        if args.trace:
            metrics, trace_problems = per_layer(plain, traced)
            problems += trace_problems
        else:
            metrics = end_to_end(rounds)
            print(f"perfbench: {host_note(rounds)}", file=sys.stderr)
        declared = _declared(bool(args.trace))
        if {name: metric["unit"] for name, metric in metrics.items()} != declared:
            problems.append("reported metrics do not match BENCHMARK.json")

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(report["units"] for report in reports),
        "failed": _failed_units(reports, problems),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
