#!/usr/bin/env python3
"""Validate the files written by --metrics-out / --trace-out.

Usage: check_observability.py METRICS_JSON [TRACE_JSON]

Asserts the structural contract the docs promise and CI relies on:

* the metrics snapshot parses and has the counters/gauges/histograms/
  caches/manifest sections with sane types;
* every counter, gauge and histogram has a row of its kind in the metric
  catalogue of docs/OBSERVABILITY.md (read from this repository);
* histogram bucket counts sum to the histogram count;
* each cache entry's hit_rate matches hits / (hits + misses);
* a run that requested chain solves with the cache enabled reports the
  live chain-solve cache: present, with lookups and a non-zero capacity;
* the manifest is complete;
* the trace (when given) is valid Chrome trace-event JSON: every event has
  name/ph/ts/pid/tid, complete events have durations, counter events carry
  args.value, and dropped_events is reported.

Exits non-zero with a message on the first violation.
"""

import json
import math
import re
import sys
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
KINDS = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}


def fail(message: str) -> None:
    print(f"check_observability: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def catalogue() -> dict[str, str]:
    """Name -> kind of every row in the catalogue table of OBSERVABILITY.md."""
    text = CATALOGUE.read_text(encoding="utf-8")
    start = text.find("## Metric catalogue")
    if start < 0:
        fail(f"{CATALOGUE}: no '## Metric catalogue' section")
    end = text.find("\n## ", start + 1)
    table = text[start:end if end >= 0 else len(text)]
    return dict(re.findall(r"^\| `([^`]+)` \| (\w+) \|", table, re.MULTILINE))


def check_catalogued(snapshot: dict) -> None:
    rows = catalogue()
    for section, kind in KINDS.items():
        for name in snapshot[section]:
            if rows.get(name) != kind:
                fail(f"metrics: {kind} '{name}' has no {kind} row in the "
                     f"catalogue of {CATALOGUE}")


def check_chain_cache(snapshot: dict) -> None:
    requests = snapshot["counters"].get("chain.batch.requests", 0)
    if requests == 0 or snapshot["manifest"]["cache_capacity"] == 0:
        return
    chain = snapshot["caches"].get("chain_solve")
    if chain is None:
        fail(f"metrics: {requests} chain requests with the cache enabled, "
             f"but no 'chain_solve' cache in the snapshot")
    if chain["hits"] + chain["misses"] == 0:
        fail("metrics: cache 'chain_solve' reports no lookups after "
             f"{requests} chain requests")
    if chain["capacity"] == 0:
        fail("metrics: cache 'chain_solve' reports capacity 0 — the "
             "snapshot did not see the live cache")


def check_metrics(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        snapshot = json.load(handle)

    for section in ("counters", "gauges", "histograms", "caches", "manifest"):
        if section not in snapshot:
            fail(f"metrics: missing section '{section}'")
    check_catalogued(snapshot)

    for name, value in snapshot["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"metrics: counter '{name}' has bad value {value!r}")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)) or math.isnan(value):
            fail(f"metrics: gauge '{name}' has bad value {value!r}")

    for name, hist in snapshot["histograms"].items():
        for key in ("count", "sum", "min", "max", "buckets"):
            if key not in hist:
                fail(f"metrics: histogram '{name}' missing '{key}'")
        total = 0
        previous_bound = -math.inf
        for bucket in hist["buckets"]:
            total += bucket["count"]
            if "le" in bucket:
                if bucket["le"] <= previous_bound:
                    fail(f"metrics: histogram '{name}' bounds not ascending")
                previous_bound = bucket["le"]
            elif not bucket.get("overflow"):
                fail(f"metrics: histogram '{name}' bucket lacks le/overflow")
        if total != hist["count"]:
            fail(
                f"metrics: histogram '{name}' buckets sum to {total}, "
                f"count says {hist['count']}"
            )

    for name, cache in snapshot["caches"].items():
        for key in ("hits", "misses", "evictions", "entries", "capacity",
                    "hit_rate"):
            if key not in cache:
                fail(f"metrics: cache '{name}' missing '{key}'")
        lookups = cache["hits"] + cache["misses"]
        expected = cache["hits"] / lookups if lookups else 0.0
        if abs(cache["hit_rate"] - expected) > 1e-9:
            fail(
                f"metrics: cache '{name}' hit_rate {cache['hit_rate']} "
                f"inconsistent with hits/misses (expected {expected})"
            )

    manifest = snapshot["manifest"]
    for key in ("program", "args", "seed", "threads", "cache_capacity",
                "build_type", "log_level"):
        if key not in manifest:
            fail(f"metrics: manifest missing '{key}'")
    if not manifest["program"]:
        fail("metrics: manifest has an empty program")
    if manifest["build_type"] not in ("Release", "Debug"):
        fail(f"metrics: manifest build_type {manifest['build_type']!r}")
    check_chain_cache(snapshot)

    print(
        f"check_observability: metrics OK — "
        f"{len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms, "
        f"{len(snapshot['caches'])} caches"
    )


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)

    if trace.get("displayTimeUnit") not in ("ms", "ns"):
        fail("trace: bad or missing displayTimeUnit")
    other = trace.get("otherData")
    if not isinstance(other, dict) or "dropped_events" not in other:
        fail("trace: otherData.dropped_events missing")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace: traceEvents missing or empty")

    for index, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"trace: event {index} missing '{key}'")
        phase = event["ph"]
        if phase == "X":
            if "dur" not in event or event["dur"] < 0:
                fail(f"trace: complete event {index} has bad duration")
        elif phase == "C":
            if "value" not in event.get("args", {}):
                fail(f"trace: counter event {index} lacks args.value")
        elif phase != "i":
            fail(f"trace: event {index} has unexpected phase {phase!r}")

    spans = sum(1 for e in events if e["ph"] == "X")
    print(
        f"check_observability: trace OK — {len(events)} events "
        f"({spans} spans), {other['dropped_events']} dropped"
    )


def main(argv: list[str]) -> None:
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_metrics(argv[1])
    if len(argv) == 3:
        check_trace(argv[2])


if __name__ == "__main__":
    main(sys.argv)
