#!/usr/bin/env python3
"""Submit a DSE job to a running `clrearly serve` daemon and wait for it.

Stdlib-only client for the v1 wire format (docs/SERVER.md). Builds a
JobSpec from flags (or posts --spec FILE verbatim), POSTs it to
/v1/jobs, streams per-generation progress events while polling, fetches
the result, and optionally checks it:

  --compare-csv FRONT.csv   the result front must equal the CSV written
                            by the offline `clrearly dse --csv` run, value
                            for value (both sides print shortest-round-trip
                            doubles, so parsed floats compare exactly);
  --expect-min-chain-hits N assert that at least N of the job's chain
                            solves hit the process-wide chain-solve cache.

429 rejections (queue full or over the per-client quota) are retried with
capped exponential backoff seeded from the server's Retry-After header.
--sse streams progress over Server-Sent Events instead of cursor polling;
--submit-only / --wait-job ID split submission from waiting (the CI
restart-replay smoke submits, SIGKILLs the daemon, restarts it on the same
spool, and waits for the journal-replayed job by id).

Exits non-zero if the job fails, is cancelled, or any check fails.

Example (the CI smoke lane):
  clrearly serve --port 0 --port-file /tmp/port &
  submit_job.py --port-file /tmp/port --app sobel --flow proposed \
      --seed 1 --pop 16 --gens 4 --compare-csv build/offline_front.csv
"""

import argparse
import http.client
import json
import sys
import time
import urllib.error
import urllib.request

RETRY_AFTER_CAP = 5.0  # seconds: never honor a Retry-After beyond this


def fail(message: str) -> None:
    print(f"submit_job: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_for_port(args: argparse.Namespace) -> int:
    if args.port is not None:
        return args.port
    if not args.port_file:
        fail("need --port or --port-file")
    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        try:
            with open(args.port_file, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.05)
    fail(f"port file {args.port_file} did not appear within {args.timeout}s")
    return 0  # unreachable


def request(base: str, method: str, path: str, body: dict | None = None,
            headers: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return (response.status, json.loads(response.read() or b"{}"),
                    dict(response.headers))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}"), dict(error.headers)


def submit_with_backoff(base: str, spec: dict, headers: dict,
                        timeout: float) -> dict:
    """POST the spec, honoring 429 Retry-After with capped exponential
    backoff: the wait starts from the server's Retry-After hint and doubles
    per consecutive rejection, never exceeding RETRY_AFTER_CAP seconds."""
    deadline = time.monotonic() + timeout
    attempt = 0
    while True:
        status, accepted, response_headers = request(
            base, "POST", "/v1/jobs", spec, headers)
        if status == 202:
            return accepted
        if status != 429:
            fail(f"submit returned {status}: {accepted}")
        try:
            retry_after = float(response_headers.get("Retry-After", 1))
        except ValueError:
            retry_after = 1.0
        delay = min(retry_after * (2 ** attempt), RETRY_AFTER_CAP)
        attempt += 1
        if time.monotonic() + delay > deadline:
            fail(f"daemon still rejecting (429) after {timeout}s: {accepted}")
        print(f"submit_job: 429 (Retry-After {retry_after:g}s), "
              f"backing off {delay:.2f}s")
        time.sleep(delay)


def stream_sse(host: str, port: int, job_id: str, deadline: float) -> bool:
    """Stream progress over SSE; returns True once the terminal `state`
    frame arrived, False if the stream ended early (caller falls back to
    polling)."""
    conn = http.client.HTTPConnection(host, port,
                                      timeout=max(1.0, deadline - time.monotonic()))
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events?from=0",
                     headers={"Accept": "text/event-stream"})
        response = conn.getresponse()
        if response.status != 200:
            print(f"submit_job: SSE unavailable ({response.status}), "
                  f"falling back to polling")
            return False
        event, data = "", ""
        while time.monotonic() < deadline:
            raw = response.readline()
            if not raw:
                return False  # server drained before the job finished
            line = raw.decode().rstrip("\n").rstrip("\r")
            if line.startswith(":"):
                continue  # heartbeat comment
            if line.startswith("event:"):
                event = line[6:].strip()
            elif line.startswith("data:"):
                data = line[5:].strip()
            elif not line and data:
                payload = json.loads(data)
                if event == "state":
                    print(f"submit_job: SSE stream closed, job "
                          f"{payload.get('state')}")
                    return True
                print(f"submit_job: [sse] {payload['stage']} generation "
                      f"{payload['generation']}/{payload['generations']} "
                      f"(front {payload['front_size']}, "
                      f"evals {payload['evaluations']})")
                event, data = "", ""
        return False
    except (OSError, http.client.HTTPException) as error:
        print(f"submit_job: SSE stream error ({error}), falling back")
        return False
    finally:
        conn.close()


def build_spec(args: argparse.Namespace) -> dict:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            return json.load(handle)
    spec = {
        "format_version": 1,
        "flow": args.flow,
        "seed": args.seed,
        "ga": {"population_size": args.pop, "generations": args.gens},
        "application": args.app,
    }
    if args.threads is not None:
        spec["threads"] = args.threads
    if args.qos_max_makespan_us is not None:
        spec["qos"] = {"max_makespan_us": args.qos_max_makespan_us}
    return spec


def compare_csv(result: dict, path: str) -> None:
    """The offline CSV holds the first two objectives of every front point."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    front = result["front"]
    if len(rows) != len(front):
        fail(f"front size mismatch: CSV has {len(rows)} points, "
             f"server returned {len(front)}")
    for i, (row, point) in enumerate(zip(rows, front)):
        if row[0] != point[0] or row[1] != point[1]:
            fail(f"front[{i}] differs: CSV ({row[0]}, {row[1]}) vs "
                 f"server ({point[0]}, {point[1]}) — the serve path is "
                 f"not bit-identical to the offline run")
    print(f"submit_job: front matches {path} exactly ({len(rows)} points)")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int)
    parser.add_argument("--port-file", help="file the daemon wrote its port to")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="seconds to wait for the port file / the job")
    parser.add_argument("--spec", help="JobSpec JSON file to post verbatim")
    parser.add_argument("--app", default="sobel")
    parser.add_argument("--flow", default="proposed",
                        choices=("fcclr", "pfclr", "proposed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pop", type=int, default=16)
    parser.add_argument("--gens", type=int, default=4)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--qos-max-makespan-us", type=float,
                        help="adds a QoS bound (changes the model key)")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--compare-csv",
                        help="offline `clrearly dse --csv` file to match")
    parser.add_argument("--expect-min-chain-hits", type=int)
    parser.add_argument("--client-key",
                        help="X-Client-Key admission-quota bucket")
    parser.add_argument("--priority", choices=("high", "normal"),
                        help="X-Priority scheduling level")
    parser.add_argument("--sse", action="store_true",
                        help="stream progress over Server-Sent Events "
                        "instead of cursor polling")
    parser.add_argument("--submit-only", action="store_true",
                        help="submit and print the job id without waiting "
                        "(restart-replay testing)")
    parser.add_argument("--wait-job",
                        help="skip submission; wait for this existing job id "
                        "(e.g. one replayed from the journal)")
    args = parser.parse_args()

    port = wait_for_port(args)
    base = f"http://{args.host}:{port}"

    if args.wait_job:
        job_id = args.wait_job
    else:
        headers = {}
        if args.client_key:
            headers["X-Client-Key"] = args.client_key
        if args.priority:
            headers["X-Priority"] = args.priority
        accepted = submit_with_backoff(base, build_spec(args), headers,
                                       args.timeout)
        job_id = accepted["id"]
        print(f"submit_job: {job_id} accepted "
              f"(queue position {accepted.get('queue_position')})")
        if args.submit_only:
            print(f"submit_job: submitted {job_id}")
            return

    deadline = time.monotonic() + args.timeout
    if args.sse:
        stream_sse(args.host, port, job_id, deadline)
        # The terminal state (and result) is always re-read via the plain
        # API: the SSE path streams progress, it is not the source of truth.
    next_event = 0
    while True:
        if not args.sse:
            status, events, _ = request(
                base, "GET", f"/v1/jobs/{job_id}/events?from={next_event}")
            if status == 200:
                for event in events.get("events", []):
                    print(f"submit_job: {event['stage']} generation "
                          f"{event['generation']}/{event['generations']} "
                          f"(front {event['front_size']}, "
                          f"evals {event['evaluations']})")
                next_event = events.get("next", next_event)
        status, job = request(base, "GET", f"/v1/jobs/{job_id}")[:2]
        if status != 200:
            fail(f"status poll returned {status}: {job}")
        state = job["state"]
        if state in ("done", "failed", "cancelled"):
            break
        if time.monotonic() > deadline:
            fail(f"{job_id} still {state} after {args.timeout}s")
        time.sleep(0.05)
    if state != "done":
        fail(f"{job_id} ended {state}: {job.get('error', '')}")

    status, result, _ = request(base, "GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        fail(f"result fetch returned {status}: {result}")
    cache = result["cache"]
    print(f"submit_job: {job_id} done — {len(result['front'])} front points, "
          f"{result['evaluations']} evaluations in "
          f"{result['wall_seconds'] * 1e3:.1f} ms; chain cache "
          f"{cache['chain_hits']}h/{cache['chain_misses']}m")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"submit_job: wrote {args.out}")
    if args.compare_csv:
        compare_csv(result, args.compare_csv)
    if args.expect_min_chain_hits is not None:
        if cache["chain_hits"] < args.expect_min_chain_hits:
            fail(f"expected >= {args.expect_min_chain_hits} chain-cache "
                 f"hits, saw {cache['chain_hits']} — the process-wide "
                 f"chain cache is not shared across sessions")
        print(f"submit_job: chain-cache sharing OK "
              f"({cache['chain_hits']} hits)")


if __name__ == "__main__":
    main()
