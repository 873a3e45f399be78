#!/usr/bin/env python3
"""Noise-aware diff of two BENCH_*.json benchmark artifacts.

Usage:
    bench_compare.py BASELINE.json NEW.json
    bench_compare.py --self-check

Each artifact is a schema-versioned report written by the bench binaries
(bench/regress or any binary's --json flag; schema reference in
EXPERIMENTS.md).  Result entries are matched on their key fields (queue,
workload, threads, batch, ...) and every row of RULES below is applied to
each matched pair; a row's comment says why its limits are what they are.

Data that is missing on one side only is itself a finding: a null metric
in NEW where BASELINE had a number means a run stopped producing data and
is flagged (never treated as "infinitely fast").

Exit codes: 0 no regressions, 1 regressions found, 2 usage/schema error,
3 self-check failure.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from collections import namedtuple

SCHEMA_VERSION = 1
KEY_FIELDS = (
    "bench",
    "queue",
    "workload",
    "threads",
    "batch",
    "mode",
    "ring_order",
    "lanes",
    "producers",
    "experiment",
    "preemptors",
    "base_queue",
    "workers",
    "offered_mops",
    "capacity",
)

# One regression rule.  `better` is "lower" or "higher"; `shape` is how a
# move in the worse direction is judged against `rel` (a fraction) and
# `abs` (in the metric's unit):
#   slack  worse than base * (1 + rel) + abs      (mirrored for "higher")
#   both   relative move > rel AND absolute move > abs
#   cv     relative move > max(rel, 3 * cv), cv the larger of the two
#          artifacts' values at `cv` (a floor widened by three sigmas of
#          measured run noise)
#   data   only a vanished number flags
# Under every shape a number present in BASELINE and null in NEW flags.
Rule = namedtuple("Rule", "path label better shape rel abs cv", defaults=(None,))

RULES = (
    # Headline throughput: a drop must clear both the floor and three
    # sigmas of run-to-run noise.
    Rule("throughput.mean_ops_per_sec", "throughput", "higher", "cv", 0.05, 0.0,
         "throughput.cv"),
    # Software counters are near-deterministic, so this is tight.
    Rule("counters.derived.atomics_per_op", "atomics/op", "lower", "slack", 0.05, 0.02),
    # Timing tails are the noisiest closed-loop metric: both a relative and
    # an absolute bar must be cleared.
    Rule("latency.p99_ns", "p99 latency", "lower", "both", 0.50, 200.0),
    # Contention canary: more failed CAS per attempt means more wasted
    # coherence traffic at the same op count.
    Rule("counters.derived.cas_failure_rate", "CAS failure rate", "lower", "slack",
         0.25, 0.02),
    # Multilane lane-balance canary: dequeues drifting from local hits to
    # steals means the home-lane mapping or the steal hint rotted.
    Rule("counters.derived.lane_steal_rate", "lane steal rate", "lower", "slack",
         0.25, 0.02),
    # §4.1.1 batching canary (-h variants): enters resolving by timeout
    # claims instead of same-cluster hits means the segment's cache lines
    # ping-pong again.
    Rule("counters.derived.cluster_handoff_rate", "cluster handoff rate", "lower",
         "slack", 0.25, 0.02),
    # The batched paths' whole point is many tickets per F&A: losing
    # amortization is a regression even when throughput noise hides it.
    Rule("bulk.tickets_per_faa", "tickets/F&A", "higher", "slack", 0.10, 0.05),
    # PMU counts on a shared host swing with co-tenants, so only a blowup
    # flags: the ring stopped fitting its dTLB reach, or the working set
    # fell out of LLC.
    Rule("hw.dtlb_miss_per_op", "dTLB misses/op", "lower", "slack", 0.50, 0.5),
    Rule("hw.llc_miss_per_op", "LLC misses/op", "lower", "slack", 0.50, 0.5),
    # Autotune pick creeping up: each +1 order doubles segment memory for
    # the same throughput.
    Rule("recommended_ring_order", "recommended ring order", "lower", "slack", 0.0, 2.0),
    # wCQ's bounded-stall win (Nikolaev & Ravindran, arXiv 2201.02179): p99
    # under CPU-hog preemption, whose cv is of the p99 statistic across runs.
    Rule("p99.mean_ns", "stall p99", "lower", "cv", 0.10, 0.0, "p99.cv"),
    # The same win as a ratio against the baseline queue's tail.
    Rule("p99_ratio", "stall p99 ratio", "lower", "slack", 0.10, 0.02),
    # Open-loop e2e latency includes queueing delay and OS scheduling, far
    # noisier than closed-loop service time: both wide bars must clear.
    Rule("e2e.p99_ns", "e2e p99", "lower", "both", 0.75, 250000.0),
    # Backpressure discarding requests the baseline served is a capacity
    # loss even when the survivors' latency looks fine.
    Rule("shed_rate", "shed rate", "lower", "slack", 0.50, 0.05),
    Rule("deadline_miss_rate", "deadline miss rate", "lower", "slack", 0.50, 0.05),
    # dispatch_slo summary: highest offered load meeting the p99 target.
    Rule("max_sustainable_mops", "max sustainable Mops", "higher", "slack", 0.50, 0.1),
    Rule("ns_per_op", "ns_per_op", "lower", "data", 0.0, 0.0),
)


def load_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    if not isinstance(doc, dict) or "results" not in doc:
        raise SystemExit(f"bench_compare: {path} is not a bench report (no results[])")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SystemExit(
            f"bench_compare: {path} has schema_version {version!r}, "
            f"this tool understands {SCHEMA_VERSION}"
        )
    return doc


def result_key(doc, entry):
    parts = [str(doc.get("bench", ""))]
    for field in KEY_FIELDS[1:]:
        if field in entry:
            parts.append(f"{field}={entry[field]}")
    return " ".join(parts)


def index_results(doc):
    index = {}
    for entry in doc.get("results", []):
        key = result_key(doc, entry)
        if key in index:
            raise SystemExit(f"bench_compare: duplicate result key: {key}")
        index[key] = entry
    return index


def number_at(entry, dotted):
    node = entry
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, (int, float)) and math.isfinite(node):
        return float(node)
    return None


def judge(rule, base, new):
    """The regression message for one rule on one pair, or None."""
    b = number_at(base, rule.path)
    n = number_at(new, rule.path)
    if b is None:
        return None
    if n is None:
        return f"{rule.label} disappeared (baseline had data, new is null)"
    lower = rule.better == "lower"
    if rule.shape == "slack":
        if lower and n > b * (1.0 + rule.rel) + rule.abs:
            verb = "grew"
        elif not lower and n < b * (1.0 - rule.rel) - rule.abs:
            verb = "shrank"
        else:
            return None
        return (f"{rule.label} {verb} {b:.3f} -> {n:.3f} "
                f"(limit {100 * rule.rel:.0f}% + {rule.abs})")
    if rule.shape == "data" or b <= 0:
        return None
    delta = n - b if lower else b - n
    move = delta / b
    verb = "grew" if lower else "dropped"
    if rule.shape == "both":
        if move > rule.rel and delta > rule.abs:
            return (f"{rule.label} {verb} {100 * move:.0f}% ({b:.6g} -> {n:.6g}; "
                    f"limit {100 * rule.rel:.0f}% and {rule.abs:g})")
        return None
    cv = max(number_at(base, rule.cv) or 0.0, number_at(new, rule.cv) or 0.0)
    limit = max(rule.rel, 3.0 * cv)
    if move > limit:
        return (f"{rule.label} {verb} {100 * move:.1f}% ({b:.6g} -> {n:.6g}; "
                f"limit {100 * limit:.1f}% = max({100 * rule.rel:.0f}%, "
                f"3*cv {100 * cv:.1f}%))")
    return None


class Comparison:
    def __init__(self):
        self.regressions = []
        self.notes = []
        self.compared = 0

    def check_pair(self, key, base, new):
        self.compared += 1
        headline = "throughput.mean_ops_per_sec"
        if number_at(base, headline) is None and number_at(new, headline) is not None:
            self.notes.append(f"{key}: new data appeared (no baseline throughput)")
        for rule in RULES:
            message = judge(rule, base, new)
            if message:
                self.regressions.append(f"{key}: {message}")


def compare_files(baseline_path, new_path):
    base_doc = load_report(baseline_path)
    new_doc = load_report(new_path)
    base_index = index_results(base_doc)
    new_index = index_results(new_doc)

    cmp = Comparison()
    for key, base_entry in base_index.items():
        if key not in new_index:
            cmp.regressions.append(f"{key}: result missing from new artifact")
            continue
        cmp.check_pair(key, base_entry, new_index[key])
    for key in new_index:
        if key not in base_index:
            cmp.notes.append(f"{key}: new result (not in baseline)")
    return cmp


def report(cmp, baseline_path, new_path):
    print(f"bench_compare: {cmp.compared} configurations compared")
    for note in cmp.notes:
        print(f"  note: {note}")
    if not cmp.regressions:
        print(f"OK: no regressions ({new_path} vs {baseline_path})")
        return 0
    print(f"REGRESSIONS ({len(cmp.regressions)}):")
    for r in cmp.regressions:
        print(f"  FAIL {r}")
    return 1


# --- self-check --------------------------------------------------------------
#
# Synthesizes a baseline artifact and a variant with injected regressions
# (20% throughput drop, atomics/op growth, p99 blowup, data loss), writes
# both to a temp dir, and asserts the file-level comparison path flags each
# one — and that a self-compare is clean.  Run from ctest and CI.


def synthetic_report(
    throughput_scale=1.0,
    atomics=2.0,
    p99=150.0,
    lose_data=False,
    cas_fail=0.05,
    tickets=7.5,
    steal_rate=0.10,
    handoff_rate=0.08,
):
    def entry(queue, threads, tput, cv=0.01, lanes=None, producers=None,
              timeout_us=None):
        return {
            "queue": queue,
            "workload": "pairs",
            "threads": threads,
            **({"lanes": lanes} if lanes is not None else {}),
            **({"producers": producers} if producers is not None else {}),
            **({"timeout_us": timeout_us} if timeout_us is not None else {}),
            "throughput": {
                "mean_ops_per_sec": None if lose_data and queue == "ms" else tput,
                "cv": cv,
                "min": tput * 0.99,
                "max": tput * 1.01,
                "runs": 3,
            },
            "ns_per_op": None if lose_data and queue == "ms" else 1e9 / tput,
            "total_ops": 80000,
            "empty_dequeues": 0,
            "counters": {
                "counts": {"faa": 80000, "cas2": 80000},
                "derived": {
                    "atomics_per_op": atomics if queue == "lcrq" else 1.5,
                    "faa_per_op": 1.0,
                    "cas_fails_per_op": 0.0,
                    "cas_failure_rate": cas_fail if queue == "lcrq" else None,
                    "cas2_failure_rate": 0.0,
                    **(
                        {"lane_steal_rate": steal_rate}
                        if lanes is not None
                        else {}
                    ),
                    **(
                        {"cluster_handoff_rate": handoff_rate}
                        if queue.endswith("-h") or timeout_us is not None
                        else {}
                    ),
                },
            },
            "bulk": {
                "tickets_per_faa": tickets if queue == "lcrq" else None,
                "wasted_per_batch": 0.1,
            },
            "latency": {
                "samples": 4000,
                "mean_ns": 90.0,
                "p50_ns": 80.0,
                "p90_ns": 120.0,
                "p99_ns": p99 if queue == "lcrq" else 140.0,
                "p999_ns": 900.0,
                "max_ns": 5000.0,
            },
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "regress/queue_ops",
        "host": {"description": "self-check", "cpus": 1, "clusters": 1, "hw_threads": 1},
        "results": [
            entry("lcrq", 2, 7.0e6 * throughput_scale),
            entry("ms", 2, 6.5e6),
            # Two lane-sweep points differing only in the lanes/producers
            # key fields: they must index as distinct configurations.
            entry("lcrq-ml", 4, 7.2e6, lanes=2, producers=3),
            entry("lcrq-ml", 4, 7.4e6, lanes=4, producers=3),
            # Hierarchy-phase point: carries cluster_handoff_rate (the
            # knob spelling lives in the queue name, as regress writes it).
            entry("lcrq-h100", 4, 6.8e6, timeout_us=100),
        ],
    }


def synthetic_stall_report(p99=480.0, cv=0.02, ratio=0.62):
    # Mirrors regress.cpp phase 5: one stall_latency entry per queue (the
    # baseline lock-free queue and a wait-free backend), plus the
    # cross-queue stall_p99_ratio comparator entry.
    def entry(queue, mean):
        return {
            "experiment": "stall_latency",
            "queue": queue,
            "threads": 4,
            "preemptors": 4,
            "p99": {
                "mean_ns": mean,
                "cv": cv,
                "min_ns": mean * 0.95,
                "max_ns": mean * 1.05,
                "runs": 5,
                "samples": 20000,
            },
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "regress/stall_latency",
        "host": {"description": "self-check", "cpus": 1, "clusters": 1, "hw_threads": 1},
        "results": [
            entry("lscq", 780.0),
            entry("lwcq", p99),
            {
                "experiment": "stall_p99_ratio",
                "queue": "lwcq",
                "base_queue": "lscq",
                "p99_ratio": ratio,
            },
        ],
    }


def synthetic_dispatch_report(p99=400000.0, shed=0.01, miss=0.02, sustain=0.3):
    # Mirrors regress.cpp phase 7: per-(queue, offered-load) dispatch rows
    # plus the per-queue dispatch_slo summary row.
    def entry(offered, p99_ns, shed_rate, miss_rate):
        return {
            "experiment": "dispatch",
            "queue": "lcrq",
            "producers": 1,
            "workers": 1,
            "offered_mops": offered,
            "capacity": 1024,
            "requests": 30000,
            "accepted": int(30000 * (1 - shed_rate)),
            "shed": int(30000 * shed_rate),
            "shed_rate": shed_rate,
            "completed": int(30000 * (1 - shed_rate)),
            "deadline_missed": int(30000 * miss_rate),
            "deadline_miss_rate": miss_rate,
            "achieved_mops": offered * (1 - shed_rate),
            "e2e": {
                "samples": 30000,
                "mean_ns": p99_ns / 4,
                "p50_ns": p99_ns / 8,
                "p90_ns": p99_ns / 2,
                "p99_ns": p99_ns,
                "p999_ns": p99_ns * 2,
                "max_ns": p99_ns * 3,
            },
            "latency_kind": "e2e_intended_start",
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "regress/dispatch",
        "host": {"description": "self-check", "cpus": 1, "clusters": 1, "hw_threads": 1},
        "results": [
            entry(0.1, p99 / 2, 0.0, 0.0),
            entry(0.3, p99, shed, miss),
            {
                "experiment": "dispatch_slo",
                "queue": "lcrq",
                "producers": 1,
                "capacity": 1024,
                "p99_target_us": 1000.0,
                "max_shed_rate": 0.01,
                "max_sustainable_mops": sustain,
            },
        ],
    }


def synthetic_autotune_report(dtlb=0.02, llc=0.05, pick=6):
    # Mirrors regress.cpp phase 8: per-(queue, ring_order) sweep rows with
    # an hw block, plus the per-queue ring_autotune_pick summary row.
    def entry(order, tput):
        return {
            "experiment": "ring_autotune",
            "queue": "lcrq",
            "workload": "pairs",
            "threads": 4,
            "ring_order": order,
            "throughput": {
                "mean_ops_per_sec": tput,
                "cv": 0.01,
                "min": tput * 0.99,
                "max": tput * 1.01,
                "runs": 3,
            },
            "ns_per_op": 1e9 / tput,
            "total_ops": 80000,
            "counters": {"derived": {"segment_reuse_rate": 0.9}},
            "hw": {
                "instructions_per_op": 120.0,
                "l1d_miss_per_op": 0.8,
                "llc_miss_per_op": llc,
                "dtlb_miss_per_op": dtlb,
            },
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "bench": "regress/ring_autotune",
        "host": {"description": "self-check", "cpus": 1, "clusters": 1, "hw_threads": 1},
        "tolerance_pct": 5.0,
        "results": [
            entry(6, 6.9e6),
            entry(8, 7.0e6),
            {
                "experiment": "ring_autotune_pick",
                "queue": "lcrq",
                "threads": 4,
                "recommended_ring_order": pick,
                "best_ring_order": 8,
                "best_mean_ops_per_sec": 7.0e6,
                "tolerance_pct": 5.0,
            },
        ],
    }


def self_check():
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="bench_compare_self_") as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(doc, f, indent=1)
            return path

        baseline = write("baseline.json", synthetic_report())

        # 1. Self-compare must be clean.
        cmp = compare_files(baseline, baseline)
        expect(cmp.regressions == [], f"self-compare flagged: {cmp.regressions}")
        expect(cmp.compared == 5, "self-compare did not compare every entry")

        # 2. A 20% throughput drop must be flagged (cv 1% -> limit is the 5% floor).
        slow = write("slow.json", synthetic_report(throughput_scale=0.8))
        cmp = compare_files(baseline, slow)
        expect(
            any("throughput dropped" in r for r in cmp.regressions),
            f"20% throughput regression not flagged: {cmp.regressions}",
        )

        # 3. A drop inside the noise band must NOT be flagged (2% < 5% floor).
        noisy = write("noisy.json", synthetic_report(throughput_scale=0.98))
        cmp = compare_files(baseline, noisy)
        expect(
            not any("throughput dropped" in r for r in cmp.regressions),
            f"2% within-noise drop was flagged: {cmp.regressions}",
        )

        # 4. atomics/op growth must be flagged.
        fat = write("fat.json", synthetic_report(atomics=2.5))
        cmp = compare_files(baseline, fat)
        expect(
            any("atomics/op grew" in r for r in cmp.regressions),
            f"atomics/op growth not flagged: {cmp.regressions}",
        )

        # 5. p99 blowup must be flagged.
        tail = write("tail.json", synthetic_report(p99=900.0))
        cmp = compare_files(baseline, tail)
        expect(
            any("p99 latency grew" in r for r in cmp.regressions),
            f"p99 growth not flagged: {cmp.regressions}",
        )

        # 6. Bulk amortization collapse (tickets/F&A 7.5 -> 1.2, batching
        # silently degenerating to one F&A per item) must be flagged.
        unbatched = write("unbatched.json", synthetic_report(tickets=1.2))
        cmp = compare_files(baseline, unbatched)
        expect(
            any("tickets/F&A shrank" in r for r in cmp.regressions),
            f"tickets/F&A collapse not flagged: {cmp.regressions}",
        )

        # 7. ...but a within-noise amortization dip must NOT be (4% < 10%).
        dipped = write("dipped.json", synthetic_report(tickets=7.2))
        cmp = compare_files(baseline, dipped)
        expect(
            not any("tickets/F&A" in r for r in cmp.regressions),
            f"4% tickets/F&A dip was flagged: {cmp.regressions}",
        )

        # 8. CAS failure rate blowing up (0.05 -> 0.30) must be flagged.
        contended = write("contended.json", synthetic_report(cas_fail=0.30))
        cmp = compare_files(baseline, contended)
        expect(
            any("CAS failure rate grew" in r for r in cmp.regressions),
            f"CAS failure rate growth not flagged: {cmp.regressions}",
        )

        # 9. ...but growth inside the relative limit + slack must NOT be
        # (0.05 -> 0.06 is 20% < 25%, and under the 0.02 absolute slack).
        jittery = write("jittery.json", synthetic_report(cas_fail=0.06))
        cmp = compare_files(baseline, jittery)
        expect(
            not any("CAS failure rate" in r for r in cmp.regressions),
            f"within-noise CAS failure growth was flagged: {cmp.regressions}",
        )

        # 10. Lane balance rotting (steal rate 0.10 -> 0.40) must be
        # flagged on the multilane entries.
        unbalanced = write("unbalanced.json", synthetic_report(steal_rate=0.40))
        cmp = compare_files(baseline, unbalanced)
        expect(
            any("lane steal rate grew" in r for r in cmp.regressions),
            f"lane steal rate growth not flagged: {cmp.regressions}",
        )

        # 11. ...but jitter inside the limit + slack must NOT be
        # (0.10 -> 0.12 is 20% growth, under the 25% relative limit
        # before the 0.02 absolute slack is even spent).
        drifting = write("drifting.json", synthetic_report(steal_rate=0.12))
        cmp = compare_files(baseline, drifting)
        expect(
            not any("lane steal rate" in r for r in cmp.regressions),
            f"within-noise steal rate growth was flagged: {cmp.regressions}",
        )

        # 11a. Cluster batching rotting (handoff rate 0.08 -> 0.35) must
        # be flagged on the hierarchical entry.
        ponging = write("ponging.json", synthetic_report(handoff_rate=0.35))
        cmp = compare_files(baseline, ponging)
        expect(
            any("cluster handoff rate grew" in r for r in cmp.regressions),
            f"cluster handoff rate growth not flagged: {cmp.regressions}",
        )

        # 11b. ...but jitter inside the limit + slack must NOT be
        # (0.08 -> 0.09 is 12.5% growth, under the 25% relative limit
        # before the 0.02 absolute slack is even spent).
        settling = write("settling.json", synthetic_report(handoff_rate=0.09))
        cmp = compare_files(baseline, settling)
        expect(
            not any("cluster handoff rate" in r for r in cmp.regressions),
            f"within-noise handoff rate growth was flagged: {cmp.regressions}",
        )

        # 12. Vanished data must be flagged, not read as infinitely fast.
        lost = write("lost.json", synthetic_report(lose_data=True))
        cmp = compare_files(baseline, lost)
        expect(
            any("disappeared" in r for r in cmp.regressions),
            f"lost data not flagged: {cmp.regressions}",
        )

        # 14-17: the stall-latency artifact.  The wait-free backend's p99
        # under preemption is the metric the whole phase exists for.
        stall_base = write("stall_base.json", synthetic_stall_report())
        cmp = compare_files(stall_base, stall_base)
        expect(cmp.regressions == [], f"stall self-compare flagged: {cmp.regressions}")

        # 14. A 50% p99 blowup (cv 2% -> the 10% floor governs) must flag.
        stalled = write("stall_slow.json", synthetic_stall_report(p99=720.0))
        cmp = compare_files(stall_base, stalled)
        expect(
            any("stall p99 grew" in r for r in cmp.regressions),
            f"50% stall p99 growth not flagged: {cmp.regressions}",
        )

        # 15. 5% growth is under the 10% floor: not a regression.
        steady = write("stall_steady.json", synthetic_stall_report(p99=504.0))
        cmp = compare_files(stall_base, steady)
        expect(
            not any("stall p99" in r for r in cmp.regressions),
            f"5% within-floor stall growth was flagged: {cmp.regressions}",
        )

        # 16. 30% growth under a 15% run-to-run cv is inside 3*cv = 45%:
        # the noise widening must absorb it.
        jittery_tail = write(
            "stall_jittery.json", synthetic_stall_report(p99=624.0, cv=0.15)
        )
        cmp = compare_files(stall_base, jittery_tail)
        expect(
            not any("stall p99" in r for r in cmp.regressions),
            f"within-3cv stall growth was flagged: {cmp.regressions}",
        )

        # 17. The cross-queue comparator eroding (tail win 0.62x -> 0.97x)
        # must flag even when each absolute p99 stays inside its own band.
        eroded = write("stall_eroded.json", synthetic_stall_report(ratio=0.97))
        cmp = compare_files(stall_base, eroded)
        expect(
            any("stall p99 ratio grew" in r for r in cmp.regressions),
            f"stall p99 ratio erosion not flagged: {cmp.regressions}",
        )

        # 18-23: the dispatch artifact — open-loop SLO gating.
        disp_base = write("disp_base.json", synthetic_dispatch_report())
        cmp = compare_files(disp_base, disp_base)
        expect(cmp.regressions == [], f"dispatch self-compare flagged: {cmp.regressions}")
        expect(cmp.compared == 3, "dispatch self-compare did not compare every entry")

        # 18. An e2e p99 blowup (400us -> 2ms: 400% and 1.6ms absolute)
        # must flag on the overloaded row.
        slow_disp = write("disp_slow.json", synthetic_dispatch_report(p99=2000000.0))
        cmp = compare_files(disp_base, slow_disp)
        expect(
            any("e2e p99 grew" in r for r in cmp.regressions),
            f"dispatch e2e p99 blowup not flagged: {cmp.regressions}",
        )

        # 19. 25% growth is under the 75% relative bar: not a regression
        # (e2e tails on a shared host swing far more than service time).
        warm_disp = write("disp_warm.json", synthetic_dispatch_report(p99=500000.0))
        cmp = compare_files(disp_base, warm_disp)
        expect(
            not any("e2e p99" in r for r in cmp.regressions),
            f"within-noise dispatch p99 growth was flagged: {cmp.regressions}",
        )

        # 20. The shed rate exploding (1% -> 20%) must flag — backpressure
        # discarding requests the baseline served is a capacity loss even
        # when the latency of the survivors looks fine.
        shedding = write("disp_shed.json", synthetic_dispatch_report(shed=0.20))
        cmp = compare_files(disp_base, shedding)
        expect(
            any("shed rate grew" in r for r in cmp.regressions),
            f"shed rate growth not flagged: {cmp.regressions}",
        )

        # 21. ...but 1% -> 4% sits inside the 50% + 0.05 slack: no flag.
        trickle = write("disp_trickle.json", synthetic_dispatch_report(shed=0.04))
        cmp = compare_files(disp_base, trickle)
        expect(
            not any("shed rate" in r for r in cmp.regressions),
            f"within-noise shed growth was flagged: {cmp.regressions}",
        )

        # 22. Deadline misses exploding (2% -> 30%) must flag.
        missing = write("disp_miss.json", synthetic_dispatch_report(miss=0.30))
        cmp = compare_files(disp_base, missing)
        expect(
            any("deadline miss rate grew" in r for r in cmp.regressions),
            f"deadline miss rate growth not flagged: {cmp.regressions}",
        )

        # 23. Max sustainable throughput collapsing (0.3 -> 0 Mops: the
        # backend no longer meets the SLO at any swept load) must flag on
        # the dispatch_slo summary row.
        unsustained = write("disp_unsust.json", synthetic_dispatch_report(sustain=0.0))
        cmp = compare_files(disp_base, unsustained)
        expect(
            any("max sustainable Mops shrank" in r for r in cmp.regressions),
            f"max sustainable collapse not flagged: {cmp.regressions}",
        )

        # 23a. ...but 0.3 -> 0.25 is inside the 50% + 0.1 slack: no flag.
        steady_disp = write("disp_steady.json", synthetic_dispatch_report(sustain=0.25))
        cmp = compare_files(disp_base, steady_disp)
        expect(
            not any("max sustainable" in r for r in cmp.regressions),
            f"within-noise sustainable dip was flagged: {cmp.regressions}",
        )

        # 24-27: the ring-autotune artifact — substrate health gating.
        at_base = write("at_base.json", synthetic_autotune_report())
        cmp = compare_files(at_base, at_base)
        expect(cmp.regressions == [], f"autotune self-compare flagged: {cmp.regressions}")
        expect(cmp.compared == 3, "autotune self-compare did not compare every entry")

        # 24. A dTLB miss-rate blowup (0.02 -> 1.5/op: the ring stopped
        # fitting its translation reach) must flag on the sweep row.
        thrashing = write("at_thrash.json", synthetic_autotune_report(dtlb=1.5))
        cmp = compare_files(at_base, thrashing)
        expect(
            any("dTLB misses/op grew" in r for r in cmp.regressions),
            f"dTLB miss blowup not flagged: {cmp.regressions}",
        )

        # 25. ...but PMU jitter inside the 50% + 0.5 slack must NOT be.
        warm_tlb = write("at_warm.json", synthetic_autotune_report(dtlb=0.4))
        cmp = compare_files(at_base, warm_tlb)
        expect(
            not any("dTLB" in r for r in cmp.regressions),
            f"within-noise dTLB growth was flagged: {cmp.regressions}",
        )

        # 26. Same gate for LLC misses/op (0.05 -> 2.0).
        spilled = write("at_spill.json", synthetic_autotune_report(llc=2.0))
        cmp = compare_files(at_base, spilled)
        expect(
            any("LLC misses/op grew" in r for r in cmp.regressions),
            f"LLC miss blowup not flagged: {cmp.regressions}",
        )

        # 27. The recommended ring order jumping past the slack (2^6 ->
        # 2^12: the queue needs 64x the segment memory for the same
        # throughput) must flag on the pick row...
        inflated = write("at_inflated.json", synthetic_autotune_report(pick=12))
        cmp = compare_files(at_base, inflated)
        expect(
            any("recommended ring order grew" in r for r in cmp.regressions),
            f"recommended-order inflation not flagged: {cmp.regressions}",
        )

        # 27a. ...but a one-order wobble is inside the +-2 slack.
        wobble = write("at_wobble.json", synthetic_autotune_report(pick=7))
        cmp = compare_files(at_base, wobble)
        expect(
            not any("recommended ring order" in r for r in cmp.regressions),
            f"one-order wobble was flagged: {cmp.regressions}",
        )

        # 13. Wrong schema version must be rejected.
        bad = synthetic_report()
        bad["schema_version"] = SCHEMA_VERSION + 1
        bad_path = write("bad.json", bad)
        try:
            compare_files(baseline, bad_path)
            expect(False, "mismatched schema_version was accepted")
        except SystemExit:
            pass

        # 28. ns_per_op vanishing on its own (throughput still recorded)
        # must flag under its own name.
        no_ns = synthetic_report()
        no_ns["results"][1]["ns_per_op"] = None
        cmp = compare_files(baseline, write("no_ns.json", no_ns))
        expect(
            any("ns_per_op disappeared" in r for r in cmp.regressions),
            f"lost ns_per_op not flagged: {cmp.regressions}",
        )

        # 29-33: within-limit moves of rows whose flagging cases are above.
        # 29. atomics/op 2.0 -> 2.1 is inside 5% + 0.02.
        lean = write("lean.json", synthetic_report(atomics=2.1))
        cmp = compare_files(baseline, lean)
        expect(
            not any("atomics/op" in r for r in cmp.regressions),
            f"within-limit atomics/op growth was flagged: {cmp.regressions}",
        )

        # 30. p99 150ns -> 300ns clears the 50% bar but not the 200ns one.
        blip = write("blip.json", synthetic_report(p99=300.0))
        cmp = compare_files(baseline, blip)
        expect(
            not any("p99 latency" in r for r in cmp.regressions),
            f"under-200ns p99 growth was flagged: {cmp.regressions}",
        )

        # 31. LLC misses/op 0.05 -> 0.5 is inside 50% + 0.5.
        warm_llc = write("at_warm_llc.json", synthetic_autotune_report(llc=0.5))
        cmp = compare_files(at_base, warm_llc)
        expect(
            not any("LLC" in r for r in cmp.regressions),
            f"within-noise LLC growth was flagged: {cmp.regressions}",
        )

        # 32. stall p99 ratio 0.62 -> 0.68 is inside 10% + 0.02.
        nudged = write("stall_nudged.json", synthetic_stall_report(ratio=0.68))
        cmp = compare_files(stall_base, nudged)
        expect(
            not any("stall p99 ratio" in r for r in cmp.regressions),
            f"within-limit stall ratio growth was flagged: {cmp.regressions}",
        )

        # 33. deadline miss rate 2% -> 5% is inside 50% + 0.05.
        late = write("disp_late.json", synthetic_dispatch_report(miss=0.05))
        cmp = compare_files(disp_base, late)
        expect(
            not any("deadline miss rate" in r for r in cmp.regressions),
            f"within-noise deadline miss growth was flagged: {cmp.regressions}",
        )

    if failures:
        print("self-check FAILED:")
        for f in failures:
            print(f"  {f}")
        return 3
    print("self-check OK: all synthetic regressions detected, self-compare clean")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="Noise-aware diff of two BENCH_*.json artifacts"
    )
    parser.add_argument("baseline", nargs="?", help="baseline artifact")
    parser.add_argument("new", nargs="?", help="new artifact to gate")
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="run the built-in fixture suite and exit",
    )
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()
    if not args.baseline or not args.new:
        parser.print_usage()
        return 2
    cmp = compare_files(args.baseline, args.new)
    return report(cmp, args.baseline, args.new)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
