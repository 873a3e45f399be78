"""Metric derivation for the repository benchmark.

perfbench_measure only measures; every number the benchmark reports is
derived here from its raw.json and sample files, so the rules below are
the whole definition of each metric and are unit-tested on synthetic
inputs (test_metrics.py).

Naming: per-layer metrics without a family prefix belong to the lcrq
family; the same metric for another family carries its backend name as
prefix ("lscq.ring.self_ns.t1").  Each ratio is published next to the
count it divides by.
"""

import array
import math
import os
import statistics

BACKENDS = ("lcrq", "lscq", "lwcq")
LADDER_FAMILIES = ("lcrq", "lscq")

# Ladder rungs, bottom to top; the layer named at rung k is the increment
# from rung k-1 to rung k (rung 1 is absolute).
RUNG_LAYERS = {
    1: "ring",
    2: "list",
    3: "hazard",
    4: "segment_pool",
    5: "registry",
    6: "blocking_queue",
    7: "async_queue",
}

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("lcrq.mops", "Mop/s", "higher", 0.2),
    ("lscq.mops", "Mop/s", "higher", 0.2),
    ("lwcq.mops", "Mop/s", "higher", 0.2),
    ("lcrq.peak_rss_mb", "MiB", "lower", 0.1),
    ("lscq.peak_rss_mb", "MiB", "lower", 0.1),
    ("lwcq.peak_rss_mb", "MiB", "lower", 0.1),
    ("e2e_p50_us", "us", "lower", 0.25),
)

_PER_BACKEND = (
    ("ring.faa_per_op", "1/op"),
    ("ring.ticket_yield", "ratio"),
    ("ring.cas2_fail_per_op", "1/op"),
    ("ring.spin_wait_per_op", "1/op"),
    ("ring.empty_transition_per_op", "1/op"),
    ("ring.unsafe_per_op", "1/op"),
    ("ring.close_per_kop", "1/kop"),
    ("ring.wcq_slow_per_kop", "1/kop"),
    ("list.append_per_kop", "1/kop"),
    ("list.append_win_ratio", "ratio"),
    ("segment_pool.reuse_ratio", "ratio"),
    ("segment_pool.alloc_per_kop", "1/kop"),
    ("ops_base", "count"),
    ("ring.faa_base", "count"),
    ("list.segments_obtained", "count"),
)

_PER_FAMILY = tuple(
    [(f"{RUNG_LAYERS[r]}.self_ns.{t}", "ns")
     for r in (1, 2, 3) for t in ("t1", "tN")]
    + [(f"segment_pool.pairs_self_ns.{t}", "ns") for t in ("t1", "tN")]
    + [(f"{RUNG_LAYERS[r]}.self_ns.{t}", "ns")
       for r in (5, 6, 7) for t in ("t1", "tN")]
    + [
        ("list.churn_ns.tN", "ns"),
        ("hazard.churn_self_ns.tN", "ns"),
        ("segment_pool.self_ns.tN", "ns"),
        ("list.segments_live_max", "count"),
        ("hazard.retired_backlog_max", "count"),
    ]
)

_SHARED = (
    # Single-thread throughput drifts with the host by more than a usable
    # end-to-end bound, so it is reported here, from the traced run.
    ("lcrq.mops_t1", "Mop/s"),
    ("lscq.mops_t1", "Mop/s"),
    ("lwcq.mops_t1", "Mop/s"),
    ("calls.enqueue_ns.p50", "ns"),
    ("calls.enqueue_ns.p99", "ns"),
    ("calls.dequeue_ns.p50", "ns"),
    ("calls.dequeue_ns.p99", "ns"),
    ("calls.span_samples", "count"),
    ("blocking_queue.e2e_p99_us", "us"),
    ("blocking_queue.admit_ns.p50", "ns"),
    ("blocking_queue.admit_ns.p99", "ns"),
    ("blocking_queue.queue_wait_us.p50", "us"),
    ("blocking_queue.queue_wait_us.p99", "us"),
    ("blocking_queue.sleeps_per_req", "1/req"),
    ("blocking_queue.shed_frac", "frac"),
    ("blocking_queue.requests_base", "count"),
    ("blocking_queue.offered_base", "count"),
    ("generator.lag_us.p50", "us"),
    ("generator.lag_us.p99", "us"),
    ("service.ns.p50", "ns"),
    ("host.stall_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("failed_frac", "frac"),
    ("e2e_samples", "count"),
)


def prefixed(backend, name):
    return name if backend == "lcrq" else f"{backend}.{name}"


def per_layer_spec():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for b in BACKENDS:
        out += [(prefixed(b, n), u) for n, u in _PER_BACKEND]
    for f in LADDER_FAMILIES:
        out += [(prefixed(f, n), u) for n, u in _PER_FAMILY]
    out += list(_SHARED)
    return out


# --- statistics ------------------------------------------------------------

MIN_BEYOND = 10  # samples a reported percentile must have beyond it


def percentile_reportable(n, p):
    """A percentile is reported only with at least MIN_BEYOND samples above it."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND


def percentile(sorted_vals, p):
    """Nearest-rank percentile of ascending `sorted_vals`, or None when the
    sample is too small for `p` (see percentile_reportable)."""
    n = len(sorted_vals)
    if n == 0 or not percentile_reportable(n, p):
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_vals[rank - 1]


def ratio(num, den):
    """num/den, and 0 for an empty base (the base is published beside it)."""
    return num / den if den else 0.0


def median(vals):
    return statistics.median(vals) if vals else None


def ladder_increments(rungs):
    """Layer self time from rung costs: rung 1 is absolute, every other
    rung's layer is its increment over the rung below.  `rungs` maps rung
    number to ns/op; a layer whose rung or lower rung is missing is absent."""
    out = {}
    for r, layer in RUNG_LAYERS.items():
        if r not in rungs:
            continue
        if r == 1:
            out[layer] = rungs[1]
        elif r - 1 in rungs:
            out[layer] = rungs[r] - rungs[r - 1]
    return out


# --- window arithmetic -----------------------------------------------------

def window_mops(w):
    """Throughput of the window in Mop/s: the median over its ~2 ms slices
    of operations completed per slice, so that a host stall costs the few
    slices it covers instead of the window's mean."""
    rates = [ratio(ops, ns) for ns, ops in w["slices"] if ns > 0]
    if not rates:
        raise DerivationError("window has no throughput slices")
    return statistics.median(rates) * 1e3


def ns_per_op(windows):
    """Thread time per completed operation, pooled over windows."""
    return ratio(sum(w["active_ns"] for w in windows), sum(w["ops"] for w in windows))


def setup_seconds(windows, once_ns=0):
    """Median over rounds of the set-up time of one round's windows; each
    round sets up every cell once.  `once_ns` is set-up paid once per pass
    (the open loop's), counted in every round."""
    rounds = {}
    for w in windows:
        rounds[w["round"]] = rounds.get(w["round"], 0) + w["setup_ns"]
    return median([(ns + once_ns) / 1e9 for ns in rounds.values()])


def window_failures(w):
    """Items lost or duplicated (count mismatch), out of per-producer order,
    or corrupted (equal counts with a checksum mismatch)."""
    lost_or_dup = abs(w["enqueued"] - w["dequeued"])
    failed = lost_or_dup + w["fifo_violations"]
    if failed == 0 and not w["correct"]:
        failed = 1
    return failed


# --- sample files ----------------------------------------------------------

def load_u32(path):
    a = array.array("I")
    with open(path, "rb") as f:
        a.frombytes(f.read())
    return a


def load_span_ticks(path):
    """Durations (ticks) and kinds of perfbench_measure's 16-byte span records
    {u64 start, u32 ticks, u16 thread, u16 kind}."""
    words = load_u32(path)
    ticks = words[2::4]
    kinds = [w >> 16 for w in words[3::4]]
    return ticks, kinds


# --- derivation ------------------------------------------------------------

class DerivationError(Exception):
    pass


def _select(windows, **kw):
    return [w for w in windows if all(w[k] == v for k, v in kw.items())]


def _required_percentile(sorted_vals, p, what):
    v = percentile(sorted_vals, p)
    if v is None:
        raise DerivationError(
            f"{what}: {len(sorted_vals)} samples cannot support p{p}")
    return v


def closed_e2e(raw, pass_name, load):
    """End-to-end metrics of one pass's closed-loop windows."""
    wins = _select(raw["windows"], **{"pass": pass_name})
    nproc = raw["nproc"]
    m = {}
    for b in BACKENDS:
        tn = _select(wins, backend=b, threads=nproc)
        t1 = _select(wins, backend=b, threads=1)
        m[f"{b}.mops"] = median([window_mops(w) for w in tn])
        m[f"{b}.peak_rss_mb"] = median([w["rss_peak_mb"] for w in tn])
        if t1:
            m[f"{b}.mops_t1"] = median([window_mops(w) for w in t1])
    lat = []
    for w in wins:
        if w["lat_file"]:
            lat.extend(load(w["lat_file"]))
    return m, wins, sorted(lat)


def dispatch_e2e(d, load):
    """Latency (ns) of every measured request from its intended arrival; a
    request never completed reads UINT32_MAX, slower than any limit."""
    return load(d["files"] + "e2e.u32")


def _gate(raw, load):
    """The correctness gate: (correct, attempted, failed, notes)."""
    notes = []
    correct = True
    attempted = failed = 0
    for w in raw["windows"]:
        attempted += w["enqueued"]
        failed += window_failures(w)
        if not w["correct"]:
            correct = False
            notes.append(f"window {w['pass']}/{w['kind']}/{w['backend']}/"
                         f"rung{w['rung']}/t{w['threads']}: {w['error']}")
    for d in raw["dispatch"]:
        e2e = dispatch_e2e(d, load)
        attempted += len(e2e)
        failed += sum(1 for v in e2e if v > d["deadline_ns"])
        if not d["correct"]:
            correct = False
            notes.append(f"dispatch {d['pass']}: {d['error']}")
    notes.append(f"failed_frac {ratio(failed, attempted):.3g} ({failed} of {attempted})")
    return correct, attempted, failed, notes


def derive(raw, outdir):
    """Return (metrics {name: (value, unit)}, correct, attempted, failed, notes).

    A run that failed the correctness gate may not support every metric
    (a thread that gave up leaves no samples); its metrics then read 0."""
    def path(name):
        return os.path.join(outdir, name)

    def load(name):
        return load_u32(path(name))

    correct, attempted, failed, notes = _gate(raw, load)
    spec = per_layer_spec() if raw["trace"] else [(n, u) for n, u, _, _ in END_TO_END]
    try:
        m = _metrics(raw, path, load, ratio(failed, attempted), notes)
        out = {}
        for n, u in spec:
            if m.get(n) is None:
                raise DerivationError(f"{n}: not measured")
            out[n] = (m[n], u)
    except DerivationError as e:
        if correct:
            raise
        notes.append(f"metrics not derivable from a failed run: {e}")
        out = {n: (0.0, u) for n, u in spec}
    return out, correct, attempted, failed, notes


def _metrics(raw, path, load, failed_frac, notes):
    # End-to-end metrics come from the untraced pass ("main", or the traced
    # run's short "untraced" pass, used for the overhead).
    base_pass = "main" if not raw["trace"] else "untraced"
    e2e, wins, lat = closed_e2e(raw, base_pass, load)
    dmain = [d for d in raw["dispatch"] if d["pass"] == base_pass]
    if raw["workload"] == "dispatch" and not dmain:
        raise DerivationError("dispatch pass missing")
    once_ns = 0
    if dmain:
        lat = sorted(dispatch_e2e(dmain[0], load))
        once_ns = dmain[0]["setup_ns"]
    e2e["setup_s"] = setup_seconds(wins, once_ns)
    e2e["e2e_p50_us"] = _required_percentile(lat, 50, "e2e latency") / 1e3
    notes.append(f"e2e latency samples: {len(lat)}")
    stall = ratio(raw["host"]["stalled_ns"], raw["host"]["span_ns"])
    notes.append(f"host.stall_frac {stall:.4f} (longest gap "
                 f"{raw['host']['longest_ns'] / 1e3:.0f} us)")
    if not raw["trace"]:
        return e2e

    m = {}
    m.update(_counter_ratios(raw))
    m.update(_ladder(raw))
    m.update(_spans(raw, path))
    m.update(_dispatch_layers(raw, load))
    # Dispatch p99 is host-dominated (wake-up of a parked worker), so it is
    # recorded here instead of gated end to end.
    m["blocking_queue.e2e_p99_us"] = (_required_percentile(lat, 99, "e2e latency") / 1e3
                                      if dmain else 0.0)
    m["host.stall_frac"] = stall
    m["failed_frac"] = failed_frac
    m["e2e_samples"] = len(lat)
    m["trace.overhead_frac"] = _overhead(raw, e2e, load)
    for b in BACKENDS:
        m[f"{b}.mops_t1"] = e2e.get(f"{b}.mops_t1")
    return m


def _overhead(raw, untraced, load):
    """Relative cost of tracing on the workload's headline metric: lcrq.mops
    lost for the closed loops, e2e p50 gained for dispatch."""
    if raw["workload"] == "dispatch":
        traced = [d for d in raw["dispatch"] if d["pass"] == "traced"]
        p50 = percentile(sorted(dispatch_e2e(traced[0], load)), 50)
        return ratio(p50 / 1e3, untraced["e2e_p50_us"]) - 1.0
    traced, _, _ = closed_e2e(raw, "traced", load)
    return 1.0 - ratio(traced["lcrq.mops"], untraced["lcrq.mops"])


def _counter_ratios(raw):
    m = {}
    nproc = raw["nproc"]
    for b in BACKENDS:
        wins = _select(raw["windows"], backend=b, threads=nproc, **{"pass": "traced"})
        c = {}
        for w in wins:
            for k, v in w["counters"].items():
                c[k] = c.get(k, 0) + v
        ops = sum(w["ops"] for w in wins)
        calls = ops + sum(w["empties"] for w in wins)
        faa = c.get("faa", 0)
        obtained = c.get("segment_alloc", 0) + c.get("segment_reuse", 0)
        vals = {
            "ring.faa_per_op": ratio(faa, calls),
            "ring.ticket_yield": ratio(ops, faa),
            "ring.cas2_fail_per_op": ratio(c.get("cas2_failure", 0), calls),
            "ring.spin_wait_per_op": ratio(c.get("spin_wait", 0), calls),
            "ring.empty_transition_per_op": ratio(c.get("empty_transition", 0), calls),
            "ring.unsafe_per_op": ratio(c.get("unsafe_transition", 0), calls),
            "ring.close_per_kop": 1e3 * ratio(c.get("crq_close", 0), calls),
            "ring.wcq_slow_per_kop": 1e3 * ratio(c.get("wcq_slow_path", 0), calls),
            "list.append_per_kop": 1e3 * ratio(c.get("crq_append", 0), calls),
            "list.append_win_ratio": ratio(c.get("crq_append", 0), obtained),
            "segment_pool.reuse_ratio": ratio(c.get("segment_reuse", 0), obtained),
            "segment_pool.alloc_per_kop": 1e3 * ratio(c.get("segment_alloc", 0), calls),
            "ops_base": calls,
            "ring.faa_base": faa,
            "list.segments_obtained": obtained,
        }
        m.update({prefixed(b, k): v for k, v in vals.items()})
    return m


def _ladder(raw):
    m = {}
    lad = _select(raw["windows"], **{"pass": "ladder"})
    nproc = raw["nproc"]
    for f in LADDER_FAMILIES:
        for tag, threads in (("t1", 1), ("tN", nproc)):
            rungs = {}
            for r in RUNG_LAYERS:
                ws = _select(lad, backend=f, kind="pairs", rung=r, threads=threads)
                if ws:
                    rungs[r] = ns_per_op(ws)
            for layer, v in ladder_increments(rungs).items():
                name = ("segment_pool.pairs_self_ns" if layer == "segment_pool"
                        else f"{layer}.self_ns")
                m[prefixed(f, f"{name}.{tag}")] = v
        churn = _select(lad, backend=f, kind="churn")
        rungs = {r: ns_per_op(_select(churn, rung=r)) for r in (2, 3, 4)
                 if _select(churn, rung=r)}
        inc = ladder_increments(rungs)
        if 2 in rungs:
            m[prefixed(f, "list.churn_ns.tN")] = rungs[2]
        if "hazard" in inc:
            m[prefixed(f, "hazard.churn_self_ns.tN")] = inc["hazard"]
        if "segment_pool" in inc:
            m[prefixed(f, "segment_pool.self_ns.tN")] = inc["segment_pool"]
        m[prefixed(f, "list.segments_live_max")] = max(
            (w.get("segments_max", 0) for w in churn), default=0)
        protected = [w for w in churn if w["rung"] >= 3]
        m[prefixed(f, "hazard.retired_backlog_max")] = max(
            (w.get("retired_max", 0) for w in protected), default=0)
    return m


def _p(sorted_vals, p, scale=1.0):
    v = percentile(sorted_vals, p)
    return 0.0 if v is None else v * scale


def _spans(raw, path):
    tick_ns = 1.0 / raw["tsc_per_ns"]
    enq, deq = [], []
    for w in _select(raw["windows"], **{"pass": "traced"}):
        if not w["span_file"]:
            continue
        ticks, kinds = load_span_ticks(path(w["span_file"]))
        for t, k in zip(ticks, kinds):
            (enq if k == 0 else deq).append(t)
    enq.sort()
    deq.sort()
    return {
        "calls.enqueue_ns.p50": _p(enq, 50, tick_ns),
        "calls.enqueue_ns.p99": _p(enq, 99, tick_ns),
        "calls.dequeue_ns.p50": _p(deq, 50, tick_ns),
        "calls.dequeue_ns.p99": _p(deq, 99, tick_ns),
        "calls.span_samples": len(enq) + len(deq),
    }


def _dispatch_layers(raw, load):
    traced = [d for d in raw["dispatch"] if d["pass"] == "traced"]
    if not traced:
        # No open loop on this workload: the facade's request metrics have
        # an empty base.
        return {n: 0.0 for n, _ in _SHARED
                if n.startswith(("blocking_queue.", "generator.", "service."))}
    d = traced[0]
    tick_ns = 1.0 / raw["tsc_per_ns"]
    f = d["files"]
    e2e = load(f + "e2e.u32")
    admit = load(f + "admit.u32")
    wait = load(f + "wait.u32")
    service = load(f + "service.u32")
    done = [i for i, v in enumerate(e2e) if v != 0xFFFFFFFF]
    # The worker stamps dequeue-return against the admission start; the
    # queue wait starts when admission returns.
    qwait = sorted(max(0, wait[i] - admit[i]) for i in done)
    admit_s = sorted(admit)
    svc = sorted(service[i] for i in done)
    lag = sorted(load(f + "lag.u32"))
    return {
        "blocking_queue.admit_ns.p50": _p(admit_s, 50, tick_ns),
        "blocking_queue.admit_ns.p99": _p(admit_s, 99, tick_ns),
        "blocking_queue.queue_wait_us.p50": _p(qwait, 50, tick_ns / 1e3),
        "blocking_queue.queue_wait_us.p99": _p(qwait, 99, tick_ns / 1e3),
        "blocking_queue.sleeps_per_req": ratio(d["counters"]["blocked_deq"], d["completed"]),
        "blocking_queue.shed_frac": ratio(d["shed"], d["offered"]),
        "blocking_queue.requests_base": d["completed"],
        "blocking_queue.offered_base": d["offered"],
        "generator.lag_us.p50": _p(lag, 50, 1e-3),
        "generator.lag_us.p99": _p(lag, 99, 1e-3),
        "service.ns.p50": _p(svc, 50, tick_ns),
    }
