#!/usr/bin/env python3
"""Validate the JSON emitted by the self-describing benchmarks.

Usage: check_bench.py BENCH_JSON

Dispatches on the top-level "benchmark" id:

* "resilience" (bench_resilience) — the permanent-fault lane: a
  non-empty k-resilient front, every point's analytic availability and
  error inside the injected Wilson interval, injection bit-identical
  across thread counts, and a sane resilience-agnostic baseline.
* "scale" (bench_scale) — the island-model lane: every size ran both
  configurations at an equal evaluation budget, with monotone
  hypervolume-vs-evaluations curves that end at the reported budget.

Convergence speedups are a soft gate: a value below the warning threshold
prints a WARN (shared CI runners are noisy) but does not fail the job.
Structural violations exit non-zero on the first one found.
"""

import json
import sys

# Warn (don't fail) below this island-model time-to-quality speedup — the
# target is 2x on the 1000-task graph, but the search is seed-sensitive and
# single-core runners cannot overlap the islands.
SCALE_SOFT_SPEEDUP_WARN = 2.0


def fail(message: str) -> None:
    print(f"check_bench: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def warn(message: str) -> None:
    print(f"check_bench: WARN: {message}")


def check_resilience(report: dict) -> str:
    for key in ("max_failures", "mission_hours", "trials_per_point",
                "front_points", "points", "availability_covered",
                "error_covered", "covered", "deterministic",
                "baseline_front_points", "baseline_survivors",
                "baseline_survivor_fraction"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    n = report["front_points"]
    if n <= 0:
        fail(f"empty k-resilient front (front_points={n})")
    points = report["points"]
    if not isinstance(points, list) or len(points) != n:
        fail(f"'points' missing or inconsistent with front_points={n}")
    for point in points:
        for key in ("analytic_availability", "injected_availability",
                    "availability_ci_lo", "availability_ci_hi",
                    "availability_covered", "analytic_error_prob",
                    "injected_error_prob", "error_ci_lo", "error_ci_hi",
                    "error_covered", "available_trials"):
            if key not in point:
                fail(f"points entry missing '{key}': {point}")
        if not 0 <= point["analytic_availability"] <= 1:
            fail(f"analytic availability out of range: {point}")
        if point["availability_ci_lo"] > point["availability_ci_hi"]:
            fail(f"availability CI inverted: {point}")
        if point["error_ci_lo"] > point["error_ci_hi"]:
            fail(f"error CI inverted: {point}")
        if point["available_trials"] <= 0:
            fail(f"no available trials — injection never found a surviving "
                 f"configuration: {point}")
    if report["deterministic"] is not True:
        fail("injection diverged across thread counts (deterministic=false)")
    if report["covered"] is not True:
        fail(
            f"Monte Carlo oracle disagrees with the analytic degraded-mode "
            f"prediction (availability {report['availability_covered']}/{n}, "
            f"error {report['error_covered']}/{n} covered)"
        )
    if not 0 <= report["baseline_survivor_fraction"] <= 1:
        fail(f"baseline_survivor_fraction out of range: "
             f"{report['baseline_survivor_fraction']}")
    return (
        f"k={report['max_failures']}, {n} front points covered at "
        f"{report['trials_per_point']} trials, baseline survivors "
        f"{100 * report['baseline_survivor_fraction']:.0f}%"
    )


def check_scale_run(entry: dict, label: str) -> None:
    for key in ("wall_seconds", "evaluations", "hypervolume", "curve"):
        if key not in entry:
            fail(f"{label} run missing '{key}': {entry}")
    if entry["wall_seconds"] <= 0:
        fail(f"{label} run has non-positive wall_seconds: {entry}")
    if entry["evaluations"] <= 0:
        fail(f"{label} run has non-positive evaluations: {entry}")
    curve = entry["curve"]
    if not isinstance(curve, list) or not curve:
        fail(f"{label} run has missing/empty 'curve'")
    last_evals = -1
    for point in curve:
        for key in ("evaluations", "wall_seconds", "front_size",
                    "hypervolume"):
            if key not in point:
                fail(f"{label} curve point missing '{key}': {point}")
        if point["evaluations"] < last_evals:
            fail(f"{label} curve evaluations not monotone: {curve}")
        last_evals = point["evaluations"]
    if curve[-1]["evaluations"] != entry["evaluations"]:
        fail(
            f"{label} curve ends at {curve[-1]['evaluations']} evaluations "
            f"but the run reports {entry['evaluations']}"
        )


def check_scale(report: dict) -> str:
    for key in ("flow", "population", "generations", "islands",
                "migration_interval", "migration_size", "seed", "fast_mode",
                "speedup_wall_to_single_hv", "hv_ratio", "sizes"):
        if key not in report:
            fail(f"missing top-level key '{key}'")
    sizes = report["sizes"]
    if not isinstance(sizes, list) or not sizes:
        fail("'sizes' missing or empty")
    for entry in sizes:
        for key in ("tasks", "single", "islands", "equal_budget",
                    "wall_ratio_equal_budget", "hv_ratio",
                    "time_to_single_hv_seconds", "evaluations_to_single_hv",
                    "speedup_wall_to_single_hv"):
            if key not in entry:
                fail(f"sizes entry missing '{key}': {list(entry)}")
        if entry["equal_budget"] is not True:
            fail(
                f"{entry['tasks']}-task comparison ran unequal evaluation "
                f"budgets — the island layer re-evaluated migrants"
            )
        check_scale_run(entry["single"], f"{entry['tasks']}-task single")
        check_scale_run(entry["islands"], f"{entry['tasks']}-task islands")
        if entry["single"]["evaluations"] != entry["islands"]["evaluations"]:
            fail(f"{entry['tasks']}-task runs report different budgets")

    # Convergence quality is a soft gate: the headline targets come from a
    # quiet dedicated box; shared CI runners are noisy and the search is
    # seed-sensitive. Structural violations above are the hard contract.
    speedup = report["speedup_wall_to_single_hv"]
    hv_ratio = report["hv_ratio"]
    if speedup < SCALE_SOFT_SPEEDUP_WARN:
        warn(
            f"islands matched the single-population hypervolume at "
            f"{speedup:.2f}x wall-clock speedup, below the "
            f"{SCALE_SOFT_SPEEDUP_WARN}x soft gate — seed-sensitive, "
            f"investigate if persistent"
        )
    if hv_ratio < 1.0:
        warn(
            f"final island front hypervolume is {hv_ratio:.3f}x the "
            f"single-population run (soft gate at 1.0)"
        )
    return (
        f"{len(sizes)} sizes, {report['islands']} islands, "
        f"speedup-to-single-hv {speedup:.2f}x, hv ratio {hv_ratio:.3f}"
    )


CHECKERS = {
    "resilience": check_resilience,
    "scale": check_scale,
}


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(argv[1], encoding="utf-8") as handle:
        report = json.load(handle)

    checker = CHECKERS.get(report.get("benchmark"))
    if checker is None:
        fail(f"unexpected benchmark id {report.get('benchmark')!r}")
    detail = checker(report)
    print(f"check_bench: OK — {argv[1]} ({detail})")


if __name__ == "__main__":
    main(sys.argv)
