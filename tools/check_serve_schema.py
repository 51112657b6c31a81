#!/usr/bin/env python3
"""Validate a `schsim serve` NDJSON response transcript.

Every response line must be a self-contained JSON object with a known
"type"; report rows embedded in "report" lines must satisfy the pinned
RunReport row schema (imported from check_report_schema.py, so the two
checkers can never drift apart).

Two modes:

  check_serve_schema.py TRANSCRIPT.ndjson [...]
      Validate saved transcripts (e.g. `schsim run --stream` output).

  check_serve_schema.py --run SCHSIM REQUESTS.ndjson
      Launch `SCHSIM serve` as a subprocess, feed it the request file on
      stdin, validate everything it writes to stdout, and additionally
      check the protocol contract (docs/SERVE.md, session FIFO order):
      exactly one terminal response (done / error / pong / stats /
      dropped / bye) per non-blank request line, in request order, each
      echoing its request's "id" (null for a request without one).

Exit codes: 0 ok, 1 schema violation, 2 bad input / subprocess failure.
"""

import argparse
import json
import subprocess
import sys

import check_report_schema as report_schema

LINE_TYPES = {"report", "done", "error", "pong", "stats", "dropped", "bye"}
TERMINAL_TYPES = {"done", "error", "pong", "stats", "dropped", "bye"}
ROLLUP_KEYS = [
    "jobs", "ok", "failures", "geomean_cycles", "total_cycles",
    "total_iss_instructions", "total_useful_flops", "fpu_utilization", "tcdm",
]
CACHE_COUNTER_KEYS = ["hits", "misses", "evictions", "entries"]


class SchemaError(Exception):
    pass


def need(line, key, types, where):
    if key not in line:
        raise SchemaError(f"{where}: missing key '{key}'")
    value = line[key]
    if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in (
                types if isinstance(types, tuple) else (types,))):
        raise SchemaError(
            f"{where}: key '{key}' has type {type(value).__name__}")
    return value


def check_cache_counters(cache, where, require_report):
    # The build-cache block is always present; the report-cache block is
    # absent in `schsim run --stream` output (the scenario path has no
    # report cache), so it is optional unless the caller demands it.
    blocks = ["build", "report"] if require_report else ["build"]
    for block in blocks:
        counters = need(cache, block, dict, where)
        for key in CACHE_COUNTER_KEYS:
            need(counters, key, int, f"{where}.{block}")
    if "report" in cache:
        for key in CACHE_COUNTER_KEYS:
            need(cache["report"], key, int, f"{where}.report")


def check_failure(failure, where):
    kind = need(failure, "kind", str, where)
    if kind not in report_schema.FAILURE_KINDS:
        raise SchemaError(f"{where}: failure kind '{kind}' not in "
                          f"{sorted(report_schema.FAILURE_KINDS)}")
    for key in ("hart", "pc", "cycle"):
        need(failure, key, int, where)


def check_line(path, n, line):
    where = f"line {n}"
    if not isinstance(line, dict):
        raise SchemaError(f"{where}: not a JSON object")
    ltype = need(line, "type", str, where)
    if ltype not in LINE_TYPES:
        raise SchemaError(f"{where}: unknown type '{ltype}'")
    if "id" not in line:
        raise SchemaError(f"{where}: missing key 'id'")

    if ltype == "report":
        seq = need(line, "seq", int, where)
        of = need(line, "of", int, where)
        need(line, "cached", bool, where)
        if not 0 <= seq < of:
            raise SchemaError(f"{where}: seq {seq} outside [0, {of})")
        row = need(line, "report", dict, where)
        # check_report_schema exits on violation; that IS the failure path.
        report_schema.check_row(path, n, row)
        for key in ("sizes", "sim"):
            need(row, key, dict, f"{where}.report")
        need(row, "repeat", int, f"{where}.report")
    elif ltype == "done":
        need(line, "jobs", int, where)
        need(line, "failures", int, where)
        need(line, "wall_s", (int, float), where)
        rollup = need(line, "rollup", dict, where)
        for key in ROLLUP_KEYS:
            need(rollup, key, (int, float, dict), f"{where}.rollup")
        for key in ("p50", "p90", "p99"):
            need(rollup["fpu_utilization"], key, (int, float),
                 f"{where}.rollup.fpu_utilization")
        for key in ("reads", "writes", "conflicts", "top_banks"):
            if key not in rollup["tcdm"]:
                raise SchemaError(f"{where}: rollup.tcdm missing '{key}'")
        check_cache_counters(need(line, "cache", dict, where), f"{where}.cache",
                             require_report=False)
    elif ltype == "error":
        need(line, "error", str, where)
        check_failure(need(line, "failure", dict, where), f"{where}.failure")
    elif ltype == "stats":
        check_cache_counters(need(line, "cache", dict, where), f"{where}.cache",
                             require_report=True)
        served = need(line, "served", dict, where)
        for key in ("requests", "jobs", "failures"):
            need(served, key, int, f"{where}.served")


def check_transcript(path, text, request_lines=None):
    """Validate one transcript; returns (lines, reports, terminals)."""
    reports = 0
    terminals = 0
    terminal_ids = []
    n = 0
    for raw in text.splitlines():
        if not raw.strip():
            continue
        n += 1
        try:
            line = json.loads(raw)
        except ValueError as e:
            raise SchemaError(f"line {n}: not valid JSON: {e}") from e
        check_line(path, n, line)
        if line["type"] == "report":
            reports += 1
        if line["type"] in TERMINAL_TYPES:
            terminals += 1
            terminal_ids.append(line["id"])

    if request_lines is not None:
        expected = [l for l in request_lines if l.strip("\r\n \t")]
        if terminals != len(expected):
            raise SchemaError(
                f"{terminals} terminal responses for {len(expected)} requests")
        # One session answers strictly in request order: the k-th terminal
        # response echoes the k-th request's id.
        for k, (req, got) in enumerate(zip(expected, terminal_ids)):
            try:
                doc = json.loads(req)
            except ValueError:
                doc = None  # malformed on purpose; answered with id null
            want = doc.get("id") if isinstance(doc, dict) else None
            if got != want:
                raise SchemaError(f"terminal response {k + 1} has id {got!r}, "
                                  f"expected {want!r} (request order)")
    print(f"{path}: ok ({n} lines, {reports} reports, {terminals} terminal)")
    return n, reports, terminals


def run_mode(schsim, requests_path):
    with open(requests_path, encoding="utf-8") as f:
        request_lines = f.readlines()
    cmd = [schsim, "serve"]
    proc = subprocess.run(cmd, input="".join(request_lines),
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        print(f"check_serve_schema: `{' '.join(cmd)}` exited "
              f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return 2
    label = f"{requests_path} -> serve"
    try:
        check_transcript(label, proc.stdout, request_lines)
    except SchemaError as e:
        print(f"{label}: SCHEMA ERROR: {e}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="+",
                        help="transcripts, or the request file with --run")
    parser.add_argument("--run", metavar="SCHSIM", default=None,
                        help="launch `SCHSIM serve` and validate its output "
                             "for the given request file")
    args = parser.parse_args()

    if args.run is not None:
        if len(args.paths) != 1:
            print("check_serve_schema: --run takes exactly one request file",
                  file=sys.stderr)
            return 2
        return run_mode(args.run, args.paths[0])

    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"check_serve_schema: cannot read {path}: {e}",
                  file=sys.stderr)
            return 2
        try:
            check_transcript(path, text)
        except SchemaError as e:
            print(f"{path}: SCHEMA ERROR: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
