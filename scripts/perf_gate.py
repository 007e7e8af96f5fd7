#!/usr/bin/env python3
"""Noise-aware perf regression gate over BENCH_*.json baselines.

    scripts/perf_gate.py --baseline-dir . --fresh-dir /tmp/run1 \
        [--fresh-dir /tmp/run2 ...]
    scripts/perf_gate.py --baseline-dir . --self-check

Compares freshly produced bench JSON against the committed baselines.
--self-check instead holds every committed baseline to its own policy (each
file is its own single fresh run), so a baseline that could never pass the
gate it is meant to anchor fails here. To
stay non-flaky in CI the gate is built on three ideas:

  * Paired comparison, best-of-N: each --fresh-dir is one full run;
    per record the gate takes the BEST fresh value across runs, so a
    single noisy run cannot fail the gate alone.
  * Per-bench policy keyed on how the number was produced. The simulator
    benches run in virtual time -- their throughput is deterministic up to
    float formatting, so a tight relative tolerance is safe. The
    real-thread bench (batch_drain) is gated only on its *internal*
    speedup ratio (batched vs seed measured in the same process), which
    divides out host speed; its absolute ops/sec are never compared.
  * Attribution coverage: for benches with a phase-attribution section the
    per-phase sums must add up to the independently measured end-to-end
    total within the configured band -- a silent accounting regression
    fails even when throughput looks fine.

Exit codes: 0 pass, 1 usage/IO error, 2 regression or invalid input.
"""

import argparse
import json
import pathlib
import sys

# bench name -> policy. rel_tol gates per-record ops_per_sec of the fresh
# best-of-N against the baseline (two-sided: a silent 2x speedup on a
# virtual-time bench means the simulation changed, which also needs a
# baseline refresh). coverage bands gate attribution coverage_pct.
GATES = {
    "sec52_fifo_queues": {"rel_tol": 0.10, "coverage": ("sim", 90.0, 110.0)},
    "fig4_skiplists": {"rel_tol": 0.10, "coverage": ("sim", 90.0, 110.0)},
    "table1_linked_lists": {"rel_tol": 0.10},
    "table2_skiplists": {"rel_tol": 0.10, "coverage": ("sim", 90.0, 110.0)},
    # Zipf-skewed twin of table2 (--skew 0.99): holds the skewed-workload
    # throughput the rebalancing work is judged against.
    "table2_skiplists_skew": {"rel_tol": 0.10, "coverage": ("sim", 90.0, 110.0)},
    # Active-rebalancer acceptance scenario (virtual time, deterministic):
    # rel_tol holds the per-record throughput; notes_min holds the issue's
    # bar -- the active policy must cut the final-third peak vault imbalance
    # >= 2x vs observe-only AND keep throughput >= 95% of the uniform-key
    # baseline (and lose no keys doing it).
    "ablation_rebalance_sim": {
        "rel_tol": 0.10,
        "notes_min": {
            "imbalance_cut": 2.0,
            "active_vs_uniform_tput": 0.95,
            "active_size_consistent": 1.0,
        },
    },
    # Real threads: hold only the within-run speedup of the batched path
    # over the seed path (>= min_speedup) -- host-speed independent. The
    # runtime attribution section is additionally gated on coverage (the
    # phase sums must explain >= 90% of measured wall time) and on the
    # mailbox_queue share (the lane transport must keep sender-side queueing
    # below 17% of attributed time; the shared-ring seed sat at ~34%).
    "batch_drain": {
        "min_speedup": 2.0,
        "coverage": ("runtime", 90.0, 130.0),
        "max_phase_share": ("runtime", "mailbox_queue", 17.0),
    },
    # Open-loop tail-latency sweep (coordinated-omission-free). Three-part
    # policy, matched to how each number is produced:
    #   * sim_*_div_pct: the "openloop.sim.*" conformance.latency rows run
    #     in VIRTUAL time (deterministic), so the measured-vs-M/D/1
    #     divergence bounds hold exactly across hosts and runs.
    #   * p99_regression_pct: the runtime rate points marked gated=true
    #     (well below the knee) must not regress their CO-free p99 beyond
    #     the band; best-of-N takes the MINIMUM fresh p99 so one noisy run
    #     cannot fail the gate. Regression-only (one-sided): latency
    #     improvements always pass. The band is WIDE (+100%) on purpose:
    #     on an oversubscribed host the below-knee tail is OS-scheduler
    #     delay with ~2x run-to-run spread (measured across 6 sweeps on a
    #     1-CPU box), so this check is a catastrophic-tail detector (a new
    #     lock or O(n) scan on the hot path shows up as 10x), not a
    #     precision instrument -- precision lives in the sim rows above.
    #   * Above the knee the absolute tail is host-noise; what must hold is
    #     the open-loop saturation signature -- positive injector backlog
    #     at 1.1x and a late share no lower than at 1.0x.
    "openloop_latency": {
        "latency_bounds": {
            "sim_mean_div_pct": 25.0,
            "sim_p99_div_pct": 35.0,
            "p99_regression_pct": 100.0,
            "min_gated_points": 2,
        },
    },
}

failures = []


def problem(msg):
    print(f"perf_gate: FAIL: {msg}", file=sys.stderr)
    failures.append(msg)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        print(f"perf_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(f"perf_gate: {path} invalid JSON: {e}", file=sys.stderr)
        sys.exit(2)


def records_by_name(doc):
    # Key on (name, params): some benches reuse a record name across
    # configs (e.g. table1 runs the same algorithms at two sizes).
    out = {}
    for r in doc.get("records", []):
        params = tuple(sorted(r.get("params", {}).items()))
        out[(r["name"], params)] = r["ops_per_sec"]
    return out


def latency_by_name(doc):
    # Record name -> attached "latency" object (pimds.bench.v2 sweeps).
    # Names are unique within the latency benches, so no params key needed.
    out = {}
    for r in doc.get("records", []):
        if isinstance(r.get("latency"), dict):
            out[r["name"]] = r["latency"]
    return out


def gate_latency_bounds(name, lb, baseline, fresh_docs):
    checked = 0

    # 1) Deterministic M/D/1 conformance (virtual time): every
    # openloop.sim.* row of at least one fresh run must sit within the
    # divergence bounds. Deterministic, so best-of-N == every-run here;
    # best-of-N keeps the shape uniform with the other checks.
    checked += 1
    best_bad = None
    saw_rows = False
    for doc in fresh_docs:
        rows = [
            r
            for r in doc.get("conformance", {}).get("latency", [])
            if str(r.get("name", "")).startswith("openloop.sim.")
        ]
        if not rows:
            continue
        saw_rows = True
        bad = [
            r
            for r in rows
            if abs(r.get("mean_divergence_pct", 1e9)) > lb["sim_mean_div_pct"]
            or abs(r.get("p99_divergence_pct", 1e9)) > lb["sim_p99_div_pct"]
        ]
        if not bad:
            best_bad = []
            break
        if best_bad is None or len(bad) < len(best_bad):
            best_bad = bad
    if not saw_rows:
        problem(f"{name}: no openloop.sim.* conformance.latency rows in any "
                "fresh run")
    elif best_bad:
        for r in best_bad:
            problem(
                f"{name}: sim M/D/1 divergence out of bounds at {r['name']}: "
                f"mean {r.get('mean_divergence_pct', 0.0):+.1f}% "
                f"(tol ±{lb['sim_mean_div_pct']:.0f}%), "
                f"p99 {r.get('p99_divergence_pct', 0.0):+.1f}% "
                f"(tol ±{lb['sim_p99_div_pct']:.0f}%)"
            )

    # 2) Below-knee p99 regression band on the gated runtime rate points.
    base_lat = latency_by_name(baseline)
    gated_names = sorted(n for n, l in base_lat.items() if l.get("gated"))
    matched = 0
    for n in gated_names:
        base_p99 = base_lat[n].get("p99_ns", 0.0)
        fresh = [
            latency_by_name(d).get(n, {}).get("p99_ns") for d in fresh_docs
        ]
        fresh = [v for v in fresh if isinstance(v, (int, float)) and v > 0]
        if not fresh:
            problem(f"{name}: gated point {n!r} missing from fresh runs")
            continue
        matched += 1
        if base_p99 <= 0:
            continue
        best = min(fresh)
        rel = (best - base_p99) / base_p99
        checked += 1
        if rel * 100.0 > lb["p99_regression_pct"]:
            problem(
                f"{name}: {n} CO-free p99 regressed {100 * rel:+.1f}% "
                f"(baseline {base_p99:.6g} ns, best fresh {best:.6g} ns, "
                f"tol +{lb['p99_regression_pct']:.0f}%)"
            )
    checked += 1
    if matched < lb["min_gated_points"]:
        problem(
            f"{name}: only {matched} gated rate point(s) matched between "
            f"baseline and fresh runs (need >= {lb['min_gated_points']})"
        )

    # 3) Open-loop saturation signature above the knee: at 1.1x capacity
    # the injectors must report positive schedule backlog and a late share
    # no lower than at 1.0x (within 5pp slack). A closed-loop bench can
    # never fail this -- it would just issue slower.
    checked += 1
    ok = False
    saw_pair = False
    for doc in fresh_docs:
        lat = latency_by_name(doc)
        hi, lo = lat.get("queue.rate1.10"), lat.get("queue.rate1.00")
        if not hi or not lo:
            continue
        saw_pair = True
        if (
            hi.get("backlog_ns", 0.0) > 0.0
            and hi.get("late_share_pct", 0.0)
            >= lo.get("late_share_pct", 100.0) - 5.0
        ):
            ok = True
            break
    if not saw_pair:
        problem(f"{name}: no queue.rate1.10/1.00 pair in any fresh run")
    elif not ok:
        problem(
            f"{name}: saturation signature missing at 1.1x capacity "
            "(expected positive backlog_ns and late share >= the 1.0x point)"
        )
    return checked


def gate_bench(name, policy, baseline, fresh_docs):
    base_recs = records_by_name(baseline)
    fresh_best = {}
    for doc in fresh_docs:
        for rec, val in records_by_name(doc).items():
            if rec not in fresh_best or val > fresh_best[rec]:
                fresh_best[rec] = val

    n_checked = 0
    if "rel_tol" in policy:
        tol = policy["rel_tol"]
        for key, base in sorted(base_recs.items()):
            label = key[0] + (f" {dict(key[1])}" if key[1] else "")
            if key not in fresh_best:
                problem(f"{name}: record {label!r} missing from fresh runs")
                continue
            val = fresh_best[key]
            if base <= 0:
                continue
            rel = (val - base) / base
            n_checked += 1
            if abs(rel) > tol:
                problem(
                    f"{name}: {label} moved {100 * rel:+.1f}% "
                    f"(baseline {base:.6g}, best fresh {val:.6g}, "
                    f"tol ±{100 * tol:.0f}%)"
                )

    if "min_speedup" in policy:
        best = max(
            (d.get("speedup", 0.0) for d in fresh_docs), default=0.0
        )
        n_checked += 1
        if best < policy["min_speedup"]:
            problem(
                f"{name}: speedup {best:.2f}x below the "
                f"{policy['min_speedup']:.2f}x floor"
            )

    if "notes_min" in policy:
        # Doc-level scalar notes (JsonReporter::note) with a hard floor.
        # Best-of-N like the speedup check: the note must clear its floor
        # in at least one fresh run.
        for note, floor in sorted(policy["notes_min"].items()):
            vals = [
                doc[note]
                for doc in fresh_docs
                if isinstance(doc.get(note), (int, float))
            ]
            n_checked += 1
            if not vals:
                problem(f"{name}: note {note!r} missing from every fresh run")
            elif max(vals) < floor:
                problem(
                    f"{name}: note {note} = {max(vals):.3f} "
                    f"(best of {len(vals)}) below the {floor:.2f} floor"
                )

    if "coverage" in policy:
        domain, lo, hi = policy["coverage"]
        covs = [
            doc["attribution"][domain].get("coverage_pct", 0.0)
            for doc in fresh_docs
            if domain in doc.get("attribution", {})
        ]
        n_checked += 1
        if not covs:
            problem(f"{name}: no {domain!r} attribution in any fresh run")
        elif not any(lo <= c <= hi for c in covs):
            # Best-of-N like the speedup check: one noisy run can't fail it.
            problem(
                f"{name}: {domain} attribution coverage "
                f"{max(covs):.1f}% (best of {len(covs)}) outside "
                f"[{lo:.0f}, {hi:.0f}]%"
            )

    if "latency_bounds" in policy:
        n_checked += gate_latency_bounds(
            name, policy["latency_bounds"], baseline, fresh_docs
        )

    if "max_phase_share" in policy:
        domain, phase, cap = policy["max_phase_share"]
        shares = []
        for doc in fresh_docs:
            ph = (
                doc.get("attribution", {})
                .get(domain, {})
                .get("phases", {})
                .get(phase)
            )
            if ph is not None:
                shares.append(ph.get("share_pct", 100.0))
        n_checked += 1
        if not shares:
            problem(f"{name}: no {domain}.{phase} share in any fresh run")
        elif min(shares) >= cap:
            problem(
                f"{name}: {domain} phase {phase!r} share "
                f"{min(shares):.1f}% (best of {len(shares)}) is at or "
                f"above the {cap:.0f}% ceiling"
            )

    print(f"perf_gate: {name}: {n_checked} checks, best-of-{len(fresh_docs)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=".", help="committed BENCH_*.json")
    ap.add_argument(
        "--fresh-dir",
        action="append",
        default=[],
        help="directory with freshly produced BENCH_*.json (repeatable; "
        "best-of-N across all given directories)",
    )
    ap.add_argument(
        "--only",
        action="append",
        help="gate only this bench (repeatable; must name a known gate). "
        "For focused smoke runs, e.g. the tier-1 latency smoke.",
    )
    ap.add_argument(
        "--self-check",
        action="store_true",
        help="gate each committed baseline against its own policy instead "
        "of fresh runs",
    )
    args = ap.parse_args()
    if args.self_check == bool(args.fresh_dir):
        print("perf_gate: give --fresh-dir or --self-check (not both)",
              file=sys.stderr)
        return 1

    gates = GATES
    if args.only:
        unknown = [n for n in args.only if n not in GATES]
        if unknown:
            print(
                f"perf_gate: unknown --only bench(es): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(GATES))})",
                file=sys.stderr,
            )
            return 1
        gates = {n: GATES[n] for n in args.only}

    base_dir = pathlib.Path(args.baseline_dir)
    gated = 0
    for name, policy in gates.items():
        base_path = base_dir / f"BENCH_{name}.json"
        if not base_path.exists():
            problem(f"no committed baseline {base_path}")
            continue
        baseline = load(base_path)
        if args.self_check:
            gate_bench(name, policy, baseline, [baseline])
            gated += 1
            continue
        fresh_docs = []
        for d in args.fresh_dir:
            p = pathlib.Path(d) / f"BENCH_{name}.json"
            if p.exists():
                fresh_docs.append(load(p))
        if not fresh_docs:
            # A bench can be absent from a reduced fresh run (e.g. a
            # second best-of-N pass that only reruns the noisy bench) --
            # but absent from EVERY fresh dir means it never ran.
            problem(f"{name}: no fresh BENCH_{name}.json in any --fresh-dir")
            continue
        gate_bench(name, policy, baseline, fresh_docs)
        gated += 1

    if failures:
        print(
            f"perf_gate: FAIL ({len(failures)} problem(s) across "
            f"{gated} bench(es))",
            file=sys.stderr,
        )
        return 2
    print(f"perf_gate: PASS ({gated} bench(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
