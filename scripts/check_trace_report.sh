#!/usr/bin/env bash
# ctest wrapper: trace_report.py must accept a real trace (including the
# span-nesting validation and --attribution summary) and a real bench JSON
# (including its phase percentiles), and must REJECT a hand-built trace
# whose spans partially overlap on one track and a bench JSON whose phase
# p50 exceeds its p99.
#
# Usage: check_trace_report.sh <build_dir> <scripts_dir>
set -u

BUILD_DIR=${1:?usage: check_trace_report.sh <build_dir> <scripts_dir>}
SCRIPTS_DIR=${2:?usage: check_trace_report.sh <build_dir> <scripts_dir>}
PY=${PYTHON:-python3}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# 1. A real trace from the runtime passes, with attribution output.
"$BUILD_DIR/bench/ablation_batch_drain" --threads 4 --ops 40 \
    --trace "$TMP/real.trace.json" --json "$TMP/real.json" > /dev/null || exit 1
"$PY" "$SCRIPTS_DIR/trace_report.py" "$TMP/real.trace.json" --attribution \
    --require-events op,vault_service,drain_batch,req_dispatch || exit 1
"$PY" "$SCRIPTS_DIR/trace_report.py" --check-bench "$TMP/real.json" || exit 1

# 2. Properly nested spans pass.
cat > "$TMP/nested.trace.json" <<'EOF'
{"traceEvents": [
  {"ph": "X", "pid": 0, "tid": 1, "name": "outer", "ts": 0.0, "dur": 100.0},
  {"ph": "X", "pid": 0, "tid": 1, "name": "inner", "ts": 10.0, "dur": 50.0},
  {"ph": "X", "pid": 0, "tid": 1, "name": "later", "ts": 120.0, "dur": 5.0}
]}
EOF
"$PY" "$SCRIPTS_DIR/trace_report.py" "$TMP/nested.trace.json" || exit 1

# 3. A partially overlapping span pair must be rejected (exit 2): "b"
#    starts inside "a" but ends after it.
cat > "$TMP/overlap.trace.json" <<'EOF'
{"traceEvents": [
  {"ph": "X", "pid": 0, "tid": 1, "name": "a", "ts": 0.0, "dur": 100.0},
  {"ph": "X", "pid": 0, "tid": 1, "name": "b", "ts": 50.0, "dur": 100.0}
]}
EOF
if "$PY" "$SCRIPTS_DIR/trace_report.py" "$TMP/overlap.trace.json" \
    > /dev/null 2>&1; then
  echo "check_trace_report: overlapping spans were NOT rejected" >&2
  exit 1
fi

# 4. A bench JSON without the conformance section must be rejected.
cat > "$TMP/bad_bench.json" <<'EOF'
{"bench": "x", "records": [{"name": "r", "params": {}, "ops_per_sec": 1.0}]}
EOF
if "$PY" "$SCRIPTS_DIR/trace_report.py" --check-bench "$TMP/bad_bench.json" \
    > /dev/null 2>&1; then
  echo "check_trace_report: bench JSON without conformance was accepted" >&2
  exit 1
fi

# 5. Phase percentiles, when present, must be ordered: swap one phase's
#    p50_ns and p99_ns in the real bench JSON and expect a rejection.
"$PY" - "$TMP/real.json" "$TMP/inverted.json" <<'EOF' || exit 1
import json, sys
doc = json.load(open(sys.argv[1]))
for a in doc["attribution"].values():
    for ph in a["phases"].values():
        if ph["p50_ns"] < ph["p99_ns"]:
            ph["p50_ns"], ph["p99_ns"] = ph["p99_ns"], ph["p50_ns"]
            json.dump(doc, open(sys.argv[2], "w"))
            sys.exit(0)
sys.exit("no phase with p50_ns < p99_ns to invert")
EOF
if "$PY" "$SCRIPTS_DIR/trace_report.py" --check-bench "$TMP/inverted.json" \
    > /dev/null 2>&1; then
  echo "check_trace_report: phase p50_ns > p99_ns was accepted" >&2
  exit 1
fi

echo "check_trace_report: OK"
