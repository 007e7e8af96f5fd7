#!/usr/bin/env python3
"""Validate and summarize the observability exports.

Two modes, both stdlib-only:

  trace_report.py TRACE.json [--require-events a,b,c] [--attribution]
      Validate a Chrome trace_event file produced by --trace (well-formed
      JSON, required top-level keys, every event carries ph/name/ts) and
      print a per-(process, track) summary: event counts by name, span time
      by name, and the observed batch-size distribution for drain_batch
      spans. Complete ("X") spans on each track must nest properly -- a
      span that PARTIALLY overlaps another on the same track means the
      emitter's begin/end bookkeeping is broken, and the report exits 2.
      --require-events fails (exit 2) unless every named event type
      appears at least once -- CI uses this to pin the acceptance events
      (newEnqSeg, newDeqSeg, drain_batch). --attribution additionally
      prints the per-phase latency attribution recoverable from the spans
      alone (total span time by name per process, plus the op-span /
      req_dispatch causal-correlation coverage).

  trace_report.py --check-bench BENCH.json
      Validate a bench --json file: well-formed, has a "records" list with
      {name, ops_per_sec} rows, the schema-stable "conformance" section
      ({"rows": [{name, predicted_ops_per_sec, measured_ops_per_sec,
      divergence_pct}]}) and "attribution" object (a phase's optional
      p50_ns/p99_ns must be non-negative with p50 <= p99), and -- when a
      "metrics" section is present -- that histograms carry
      count/p50/p99/p999.
      When the optional "telemetry" section is present (runs with
      --telemetry <file>), it must be {"path": str, "interval_ms": num > 0,
      "samples": int >= 0}. Exit 2 on any violation.

Exit codes: 0 ok, 1 usage/IO error, 2 validation failure.
"""

import argparse
import json
import sys
from collections import defaultdict


def fail(msg):
    print(f"trace_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        print(f"trace_report: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def check_latency_block(lat, where):
    """Validate one record-level "latency" percentile object (pimds.bench.v2).

    Percentile ladder must be present, numeric, and monotone non-decreasing
    p50 <= p90 <= p99 <= p999 <= max; the model fields (md1_*/mm1_*) are
    optional because off-knee and deterministic-arrival rows omit them.
    """
    if not isinstance(lat, dict):
        fail(f"{where}: latency must be an object")
    for key in ("schedule", "rate_frac", "ops", "rho", "mean_ns",
                "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns", "gated"):
        if key not in lat:
            fail(f"{where}: latency missing {key!r}")
    ladder = [lat["p50_ns"], lat["p90_ns"], lat["p99_ns"],
              lat["p999_ns"], lat["max_ns"]]
    for v in ladder:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail(f"{where}: latency percentile is not numeric")
    # The ladder is serialized at 6 significant digits, so equal adjacent
    # quantiles can print up to ~1e-5 apart; only violations past that
    # rounding are real.
    for lo, hi in zip(ladder, ladder[1:]):
        if lo > hi * (1 + 1e-5):
            fail(f"{where}: latency percentile ladder not monotone: {ladder}")
    if not isinstance(lat["gated"], bool):
        fail(f'{where}: latency "gated" must be a bool')


def check_phase_percentiles(where, phase):
    """p50_ns / p99_ns are optional (older files lack them); when present
    they must be non-negative numbers with p50 <= p99."""
    values = {}
    for key in ("p50_ns", "p99_ns"):
        if key not in phase:
            continue
        v = phase[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            fail(f'attribution phase "{where}" {key!r} must be a '
                 f"non-negative number, got {v!r}")
        values[key] = v
    if len(values) == 2 and values["p50_ns"] > values["p99_ns"]:
        fail(f'attribution phase "{where}" has p50_ns {values["p50_ns"]} '
             f'> p99_ns {values["p99_ns"]}')


def check_bench(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("bench JSON top level must be an object")
    if "bench" not in doc:
        fail('bench JSON missing "bench" name field')
    schema = doc.get("schema")
    if schema is not None and schema != "pimds.bench.v2":
        fail(f'unknown bench schema {schema!r} (expected "pimds.bench.v2")')
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        fail('bench JSON missing a non-empty "records" list')
    n_latency = 0
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            fail(f"records[{i}] is not an object")
        if "name" not in rec:
            fail(f"records[{i}] has no name")
        if "ops_per_sec" not in rec:
            fail(f"records[{i}] ({rec.get('name')}) has no ops_per_sec")
        if not isinstance(rec["ops_per_sec"], (int, float)):
            fail(f"records[{i}] ops_per_sec is not numeric")
        if "latency" in rec:
            n_latency += 1
            check_latency_block(rec["latency"], f"records[{i}] ({rec['name']})")
    conformance = doc.get("conformance")
    if not isinstance(conformance, dict) or "rows" not in conformance:
        fail('bench JSON missing the "conformance" section with "rows"')
    if not isinstance(conformance["rows"], list):
        fail('"conformance.rows" must be a list')
    for i, row in enumerate(conformance["rows"]):
        if not isinstance(row, dict):
            fail(f"conformance.rows[{i}] is not an object")
        for key in (
            "name",
            "predicted_ops_per_sec",
            "measured_ops_per_sec",
            "divergence_pct",
        ):
            if key not in row:
                fail(f"conformance.rows[{i}] missing {key!r}")
    lat_rows = conformance.get("latency", [])
    if not isinstance(lat_rows, list):
        fail('"conformance.latency" must be a list when present')
    for i, row in enumerate(lat_rows):
        if not isinstance(row, dict):
            fail(f"conformance.latency[{i}] is not an object")
        for key in (
            "name",
            "rho",
            "predicted_mean_ns",
            "measured_mean_ns",
            "mean_divergence_pct",
            "predicted_p99_ns",
            "measured_p99_ns",
            "p99_divergence_pct",
        ):
            if key not in row:
                fail(f"conformance.latency[{i}] missing {key!r}")
            if key != "name" and (
                not isinstance(row[key], (int, float))
                or isinstance(row[key], bool)
            ):
                fail(f"conformance.latency[{i}] {key!r} is not numeric")
    if not isinstance(doc.get("attribution"), dict):
        fail('bench JSON missing the "attribution" object')
    for domain, a in doc["attribution"].items():
        for key in ("ops", "coverage_pct", "phases"):
            if key not in a:
                fail(f'attribution "{domain}" missing {key!r}')
        for phase, ph in a["phases"].items():
            check_phase_percentiles(f"{domain}.{phase}", ph)
    metrics = doc.get("metrics")
    n_hist = 0
    if metrics is not None:
        if not isinstance(metrics, dict):
            fail('"metrics" must be an object')
        for section in ("counters", "gauges", "derived", "histograms"):
            if section in metrics and not isinstance(metrics[section], dict):
                fail(f'metrics "{section}" must be an object')
        for name, h in metrics.get("histograms", {}).items():
            n_hist += 1
            for key in ("count", "mean", "p50", "p99", "p999", "max"):
                if key not in h:
                    fail(f'histogram "{name}" missing "{key}"')
    telemetry = doc.get("telemetry")
    if telemetry is not None:
        if not isinstance(telemetry, dict):
            fail('"telemetry" must be an object')
        if not isinstance(telemetry.get("path"), str) or not telemetry["path"]:
            fail('telemetry section missing a non-empty string "path"')
        interval = telemetry.get("interval_ms")
        if (
            not isinstance(interval, (int, float))
            or isinstance(interval, bool)
            or interval <= 0
        ):
            fail('telemetry "interval_ms" must be a positive number')
        samples = telemetry.get("samples")
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
            fail('telemetry "samples" must be a non-negative integer')
    print(
        f"{path}: OK bench={doc['bench']} records={len(records)} "
        f"latency_records={n_latency} "
        f"conformance_rows={len(conformance['rows'])} "
        f"conformance_latency_rows={len(lat_rows)} "
        f"attribution_domains={len(doc['attribution'])} "
        f"metrics={'yes' if metrics is not None else 'no'} "
        f"histograms={n_hist} "
        f"telemetry={'yes' if telemetry is not None else 'no'}"
    )


def check_nesting(spans_by_track):
    """Complete spans on one track must be properly nested.

    Sorted by (ts, -dur), a well-formed track behaves like balanced
    brackets: each span either starts after every open ancestor has ended
    (pop them) or lies fully inside the innermost open one. A span that
    straddles an ancestor's end is a begin/end bookkeeping bug in the
    emitter. The epsilon absorbs microsecond rounding in the export.
    """
    eps = 0.011
    for (pid, tid), spans in sorted(spans_by_track.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # (end_ts, name) of open ancestors
        for ts, dur, name in spans:
            end = ts + dur
            while stack and ts >= stack[-1][0] - eps:
                stack.pop()
            if stack and end > stack[-1][0] + eps:
                fail(
                    f"unbalanced span nesting on track ({pid},{tid}): "
                    f'"{name}" [{ts:.3f}, {end:.3f}]us straddles the end of '
                    f'enclosing "{stack[-1][1]}" ({stack[-1][0]:.3f}us)'
                )
            stack.append((end, name))


def print_attribution(events):
    """Per-phase attribution recoverable from the spans alone."""
    span_total = defaultdict(lambda: [0, 0.0])  # name -> [count, dur_us]
    op_reqs = set()
    dispatch_reqs = set()
    for ev in events:
        if not isinstance(ev, dict):
            continue
        name = ev.get("name")
        args = ev.get("args", {})
        if ev.get("ph") == "X":
            slot = span_total[name]
            slot[0] += 1
            slot[1] += float(ev.get("dur", 0))
        if name == "op" and "req" in args:
            op_reqs.add(args["req"])
        if name == "req_dispatch" and "req" in args:
            dispatch_reqs.add(args["req"])
    print("attribution (from spans):")
    for name in sorted(span_total, key=lambda k: -span_total[k][1]):
        count, dur = span_total[name]
        mean = dur / count if count else 0.0
        print(f"  {name:<24} x{count:<8} total={dur:.1f}us mean={mean:.2f}us")
    if op_reqs:
        matched = len(op_reqs & dispatch_reqs)
        print(
            f"  causal correlation: {len(op_reqs)} op spans, "
            f"{len(dispatch_reqs)} req_dispatch instants, "
            f"{matched} matched ({100.0 * matched / len(op_reqs):.1f}%)"
        )


def check_trace(path, require_events, attribution=False):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("trace top level must be an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('trace missing "traceEvents" list')

    proc_names = {}
    track_names = {}
    # (pid, tid) -> name -> [count, total_dur_us]
    tracks = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    spans_by_track = defaultdict(list)  # (pid, tid) -> [(ts, dur, name)]
    drain_sizes = []
    seen_names = set()

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"traceEvents[{i}] is not an object")
        for key in ("ph", "pid", "tid"):
            if key not in ev:
                fail(f"traceEvents[{i}] missing {key!r}")
        ph = ev["ph"]
        if ph == "M":
            args = ev.get("args", {})
            if ev.get("name") == "process_name":
                proc_names[ev["pid"]] = args.get("name", "?")
            elif ev.get("name") == "thread_name":
                track_names[(ev["pid"], ev["tid"])] = args.get("name", "?")
            continue
        if "name" not in ev or "ts" not in ev:
            fail(f"traceEvents[{i}] ({ph}) missing name/ts")
        if ph == "X" and "dur" not in ev:
            fail(f"traceEvents[{i}] is a complete event with no dur")
        name = ev["name"]
        seen_names.add(name)
        slot = tracks[(ev["pid"], ev["tid"])][name]
        slot[0] += 1
        if ph == "X":
            slot[1] += float(ev["dur"])
            spans_by_track[(ev["pid"], ev["tid"])].append(
                (float(ev["ts"]), float(ev["dur"]), name)
            )
        if name == "drain_batch":
            n = ev.get("args", {}).get("n")
            if isinstance(n, (int, float)):
                drain_sizes.append(n)

    n_real = sum(c for per in tracks.values() for c, _ in per.values())
    print(f"{path}: OK {n_real} events on {len(tracks)} tracks")
    for (pid, tid) in sorted(tracks):
        pname = proc_names.get(pid, f"pid{pid}")
        tname = track_names.get((pid, tid), f"tid{tid}")
        print(f"  [{pname}/{tname}]")
        per = tracks[(pid, tid)]
        for name in sorted(per, key=lambda k: -per[k][0]):
            count, dur = per[name]
            extra = f"  span_total={dur:.1f}us" if dur > 0 else ""
            print(f"    {name:<24} x{count}{extra}")
    if drain_sizes:
        drain_sizes.sort()
        mean = sum(drain_sizes) / len(drain_sizes)
        p50 = drain_sizes[len(drain_sizes) // 2]
        print(
            f"  drain_batch sizes: n={len(drain_sizes)} mean={mean:.2f} "
            f"p50={p50:g} max={drain_sizes[-1]:g}"
        )

    check_nesting(spans_by_track)
    if attribution:
        print_attribution(events)

    missing = [e for e in require_events if e not in seen_names]
    if missing:
        fail(f"required event types never appear: {', '.join(missing)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("file", help="trace JSON (or bench JSON with --check-bench)")
    ap.add_argument(
        "--check-bench",
        action="store_true",
        help="validate a bench --json file instead of a trace",
    )
    ap.add_argument(
        "--require-events",
        default="",
        help="comma-separated event names that must appear in the trace",
    )
    ap.add_argument(
        "--attribution",
        action="store_true",
        help="print per-phase span totals and causal-correlation coverage",
    )
    args = ap.parse_args()
    if args.check_bench:
        check_bench(args.file)
    else:
        require = [e for e in args.require_events.split(",") if e]
        check_trace(args.file, require, attribution=args.attribution)


if __name__ == "__main__":
    main()
