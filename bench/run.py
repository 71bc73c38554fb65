"""Campaign benchmark for propcheck: one command per workload.

    python3 bench/run.py --workload campaign-dense --seed 0 --seconds 30 --trace 0

A single caller runs campaigns back to back in one thread (a closed loop),
as a developer or CI job does. A round runs one campaign of each shape of
the workload; the loop runs whole rounds until `--seconds` have passed and
checks every campaign's output. Afterwards round 0 runs once more with
counters on, which gives work counts and a report digest that repeat
exactly for a seed.

Every time is scaled to a reference machine speed: it is multiplied by
REFERENCE_CALIBRATION_S over the time of a fixed calibration work measured
right around it (see `workloads.calibration_s`). The raw wall times are in
the result document too.

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` the loop runs traced, the same campaigns run again untraced for
`trace.overhead`, and the last line carries the per-layer metrics. The line
before it is the full result document, which is also written, with the span
file of a traced run, to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 15  # set-up runs per benchmark run; setup_s is their median
# The calibration time on the 2-core x86_64 machine that set the bounds, in
# its faster state; scaled times are seconds at that speed.
REFERENCE_CALIBRATION_S = 0.0005

UNITS = {
    "setup_s": "s",
    "campaigns_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "tests_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of n samples beyond it."""
    if n <= 10:
        return 100
    return min(99, math.floor(100 * (n - 10) / n))


def percentile(values: list[float], p: int) -> float:
    if p >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def scaled(raw: float, calibration: float) -> float:
    return raw * REFERENCE_CALIBRATION_S / calibration


def set_up(workload, reps):
    """Import propcheck afresh and build the workload `reps` times.

    Returns the last build and every set-up's (raw time, calibration time).
    """
    times = []
    for _ in range(reps):
        before = workloads.calibration_s()
        t0 = perf_counter()
        prog = workloads.load_program()
        prepared = workloads.prepare(prog, workload)
        raw = perf_counter() - t0
        times.append((raw, (before + workloads.calibration_s()) / 2))
    return prog, prepared, times


def run_loop(prog, prepared, workload, seed, seconds, tracer=None):
    """Whole rounds until `seconds` have passed; returns the rounds' results."""
    rounds = []
    deadline = perf_counter() + seconds
    for rnd in workloads.rounds(workload, seed):
        rounds.append([
            workloads.run_campaign(prog, prepared[i], s, OUT_DIR, tracer) for i, s in rnd
        ])
        if perf_counter() >= deadline:
            return rounds


def count_pass(prog, prepared, workload, seed):
    """Round 0 again with counters on: exact work counts and report digest."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer, prog, prepared):
        results = [
            workloads.run_campaign(prog, prepared[i], s, OUT_DIR, tracer)
            for i, s in next(workloads.rounds(workload, seed))
        ]
    counts = tracer.exact_counts()
    counts["campaigns"] = len(results)
    counts["tests_run"] = sum(r.tests_run for r in results)
    counts["instances_compared"] = sum(r.compared for r in results)
    counts["redraws"] = sum(r.redraws for r in results)
    counts["bug_hunt.missed"] = sum(r.missed for r in results)
    return counts, workloads.report_digest(results), results


def rerun(prog, prepared, workload, seed, rounds) -> list:
    """Run the campaigns of `rounds` again, unchecked and untraced.

    A campaign whose report differs from its first run is marked failed.
    """
    again = []
    for rnd, seeds in zip(rounds, workloads.rounds(workload, seed)):
        for first, (i, s) in zip(rnd, seeds):
            res = workloads.run_campaign(prog, prepared[i], s, OUT_DIR, check=False)
            if (res.failed or res.report != first.report) and not first.failed:
                first.failed, first.why = True, res.why or "report changed on a rerun"
            again.append(res)
    return again


def end_to_end(results, times, setup_times):
    """The end-to-end metrics from per-campaign and per-set-up times."""
    static = [t for r, t in zip(results, times) if r.static]
    p = tail_percentile(len(times))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "campaigns_per_s": len(times) / sum(times),
        "verdict_s_p50": statistics.median(times),
        "verdict_s_tail": percentile(times, p),
        "tests_per_s": sum(r.compared for r in results if r.static) / sum(static),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"verdict_tail_percentile": p, "verdict_samples": len(times)}


def per_layer(tracer, results, overhead):
    self_s, total_s, calls, wall = tracer.layer_times()
    counts = tracer.counts
    n_ref = sum(counts[f"reference.{k}"] for k in ("inconsistent", "unchanged", "pruned"))
    m = {}
    for level in tracing.LEVELS:
        name = f"reference.{level}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        pred_calls, accepted = tracer.pred[level]
        m[f"checkers.{level}.pred_calls"] = pred_calls
        m[f"checkers.{level}.accept_ratio"] = accepted / pred_calls if pred_calls else 0.0
    m["reference.self_share"] = sum(
        self_s.get(f"reference.{level}", 0.0) for level in tracing.LEVELS
    ) / wall
    m["reference.inconsistent_share"] = counts["reference.inconsistent"] / n_ref if n_ref else 0.0
    m["reference.unchanged_share"] = counts["reference.unchanged"] / n_ref if n_ref else 0.0
    m["reference.cap_exceeded"] = counts["reference.cap_exceeded"]
    m["generator.generate.calls"] = calls["generator.generate"]
    m["generator.generate.self_s"] = self_s.get("generator.generate", 0.0)
    m["generator.shrink.calls"] = calls["generator.shrink"]
    m["generator.shrink.evals"] = counts["shrink.evals"]
    m["generator.shrink.accepted"] = counts["shrink.accepted"]
    m["generator.shrink.self_s"] = self_s.get("generator.shrink", 0.0)
    m["generator.shrink.total_s"] = total_s.get("generator.shrink", 0.0)
    m["generator.shrink.total_share"] = m["generator.shrink.total_s"] / wall
    m["minisolver.filter.calls"] = calls["minisolver.filter"]
    m["minisolver.filter.self_s"] = self_s.get("minisolver.filter", 0.0)
    m["minisolver.stateful.ops"] = calls["minisolver.stateful"]
    m["minisolver.stateful.self_s"] = self_s.get("minisolver.stateful", 0.0)
    m["stateful.incremental.ops"] = calls["stateful.incremental"]
    m["stateful.incremental.self_s"] = self_s.get("stateful.incremental", 0.0)
    m["stateful.dives.calls"] = calls["stateful.dives"]
    m["stateful.dives.self_s"] = self_s.get("stateful.dives", 0.0)
    for kind in ("push", "restrict", "pop"):
        m[f"stateful.dives.{kind}"] = counts[f"stateful.dives.{kind}"]
    m["comparator.campaign.calls"] = calls["comparator.campaign"]
    m["comparator.campaign.self_s"] = self_s.get("comparator.campaign", 0.0)
    m["comparator.redraws"] = sum(r.redraws for r in results)
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    m["cli.replay.calls"] = calls["cli.replay"]
    m["bug_hunt.missed"] = sum(r.missed for r in results)
    m["trace.spans"] = len(tracer.start)
    m["trace.wall_s"] = wall
    m["trace.overhead"] = overhead
    return m


PER_LAYER_UNITS = {
    "calls": "count", "pred_calls": "count", "evals": "count", "accepted": "count",
    "ops": "count", "push": "count", "restrict": "count", "pop": "count",
    "redraws": "count", "cap_exceeded": "count", "missed": "count", "spans": "count",
    "self_s": "s", "total_s": "s", "wall_s": "s",
}


def unit_of(name: str) -> str:
    return UNITS.get(name) or PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def layer_table(tracer) -> str:
    self_s, total_s, calls, wall = tracer.layer_times()
    lines = [f"{'layer':24s} {'calls':>9s} {'self_s':>10s} {'self%':>6s} {'total_s':>10s}"]
    for name in sorted(self_s, key=self_s.get, reverse=True):
        lines.append(
            f"{name:24s} {calls[name]:9d} {self_s[name]:10.4f} "
            f"{100 * self_s[name] / wall:6.1f} {total_s[name]:10.4f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "propcheck", "__init__.py")):
        print(f"error: no propcheck sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    prog, prepared, setups = set_up(args.workload, SETUP_REPS)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        rounds = run_loop(prog, prepared, args.workload, args.seed, args.seconds)
    else:
        with tracing.installed(tracer, prog, prepared):
            rounds = run_loop(prog, prepared, args.workload, args.seed, args.seconds, tracer)
    results = [r for rnd in rounds for r in rnd]
    if tracer is None:
        shown, tail = end_to_end(
            results,
            [scaled(r.elapsed, r.calibration) for r in results],
            [scaled(raw, cal) for raw, cal in setups],
        )
        raw_metrics, raw_tail = end_to_end(
            results, [r.elapsed for r in results], [raw for raw, _ in setups]
        )
    else:
        untraced = rerun(prog, prepared, args.workload, args.seed, rounds)

    counts, digest, round0 = count_pass(prog, prepared, args.workload, args.seed)
    loop_digest = workloads.report_digest(rounds[0])
    dive_time = sum(scaled(r.elapsed, r.calibration) for r in rounds[0] if not r.static)
    dive_ops = sum(counts.get(f"stateful.dives.{k}", 0) for k in ("push", "restrict", "pop"))
    calibrations = [r.calibration for r in results]
    failed = sum(r.failed for r in results)
    doc = {
        "run": record,
        "rounds": len(rounds),
        "failed_share": failed / len(results),
        "bug_hunt.missed": sum(r.missed for r in results),
        "dive_ops_per_s": dive_ops / dive_time if dive_time else None,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "calibration_s": {
            "min": min(calibrations),
            "median": statistics.median(calibrations),
            "max": max(calibrations),
        },
        "setups": setups,
        "exact_counts": counts,
        "report_digest": digest,
        "round0_matches_count_pass": loop_digest == digest,
        "failures": [
            f"{r.shape} seed {r.seed}: {r.why}" for r in results + round0 if r.failed
        ][:10],
    }
    correct = failed == 0 and not any(r.failed for r in round0) and loop_digest == digest

    if tracer is None:
        doc.update(end_to_end=shown, **tail, end_to_end_raw=raw_metrics)
    else:
        overhead = sum(scaled(r.elapsed, r.calibration) for r in results) / sum(
            scaled(r.elapsed, r.calibration) for r in untraced
        )
        shown = per_layer(tracer, results, overhead)
        doc["per_layer"] = shown
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        tracer.write_spans(spans_path)
        doc["span_file"] = os.path.relpath(spans_path, ROOT)
        print(layer_table(tracer), file=sys.stderr)

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
