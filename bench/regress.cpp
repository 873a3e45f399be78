// The one benchmark program.  Without --figure it sweeps the registry line-up
// across workloads and thread counts at laptop scale and writes eight
// machine-readable artifacts at --out-dir (default: the current
// directory, i.e. the repo root when run from it):
//
//   BENCH_queue_ops.json — pairs + producer/consumer throughput and the
//                          software-counter delta (atomics/op, CAS-failure
//                          rates) per queue × workload × thread count;
//   BENCH_bulk_ops.json  — enqueue_bulk/dequeue_bulk throughput across
//                          batch sizes, with the batched-F&A amortization
//                          counters (tickets/F&A, wasted tickets/batch);
//   BENCH_latency.json   — sampled latency percentiles per queue.
//   BENCH_lane_sweep.json — producer-heavy (T-1 producers, 1 consumer)
//                          throughput of the multilane front-ends across
//                          lane counts vs their single-queue bases, with
//                          the lane-balance counters (local-hit / steal /
//                          empty-scan) — plus "frontend_faa" entries
//                          asserting the coordination-free enqueue claim:
//                          a single-threaded ml enqueue executes exactly
//                          as many F&A as its base queue (the presence
//                          bookkeeping is single-writer plain stores —
//                          zero RMW added to the hot path).
//   BENCH_hierarchy.json — §4.1.1 parity sweep: the flat bases vs the
//                          hierarchical -h variants across the
//                          -h<timeout_us> knob, on virtual clusters by
//                          default so the handoff window executes on any
//                          host.  Each result carries the
//                          cluster_handoff_rate counter column the
//                          compare script gates on.  The --paper profile
//                          switches this phase to the discovered topology
//                          (real sockets) — big-box-only, like the
//                          paper's 4-socket Figure 7/Table 3 runs.
//   BENCH_stall_latency.json — per-run p99 latency (mean + cv over runs)
//                          of the pairs workload while CPU-hogging
//                          preemptor threads oversubscribe the host, so
//                          the scheduler stalls queue threads
//                          mid-operation.  This is the workload where
//                          wait-freedom is visible as a number: wCQ's
//                          helping bounds the damage a stalled peer can
//                          do, lock-free queues let it stretch the tail.
//                          Each non-baseline queue also gets a
//                          "stall_p99_ratio" comparator entry against
//                          the first (baseline) stall queue.
//   BENCH_dispatch.json  — open-loop Poisson offered-load sweep against the
//                          bounded BlockingQueue facade per backend: e2e
//                          latency from intended arrival, shed and
//                          deadline-miss rates, plus a "dispatch_slo"
//                          row carrying max_sustainable_mops.
//   BENCH_ring_autotune.json — fig9 ring-order sweep per queue joining
//                          throughput with segment_reuse_rate and the
//                          dTLB/LLC per-op miss rates, plus a
//                          "ring_autotune_pick" row recommending the
//                          smallest order within tolerance of the best
//                          (pick_ring_order, bench_framework/report.hpp).
//
// With --figure <id> it runs one experiment of the paper's evaluation
// (§5) or of its extensions instead, prints the paper-shaped table and
// writes <out-dir>/BENCH_<id>.json.  The experiments are rows of one
// preset table (presets() below): a queue line-up per part (a mode,
// workload, prefill or option override, with its placement), the sizes
// at each scale, and the view that runs it.
//
// scripts/bench_compare.py diffs two generations of these files using
// each metric's recorded cv and exits nonzero on a regression, so every
// perf PR gets a before/after artifact instead of an anecdote.  --smoke
// shrinks everything for CI; --paper scales to the paper's parameters.
// Every other setting is a constant of the scale, not a flag.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/primitives.hpp"
#include "bench_framework/dispatch.hpp"
#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "topology/pinning.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace lcrq;
using namespace lcrq::bench;

namespace {

enum class Scale { kSmoke, kDefault, kPaper };

Json int_list_json(const std::vector<std::int64_t>& xs) {
    Json a = Json::array();
    for (std::int64_t x : xs) a.push_back(x);
    return a;
}

Json string_list_json(const std::vector<std::string>& xs) {
    Json a = Json::array();
    for (const auto& x : xs) a.push_back(x);
    return a;
}

double per_op(std::uint64_t n, double ops) {
    return ops > 0 ? static_cast<double>(n) / ops : 0.0;
}

// --- sweeps shared by a regression phase and a preset -----------------------

// One bulk configuration: every thread alternates enqueue_bulk(k) /
// dequeue_bulk(k) rounds on one shared queue (the bulk analogue of the
// paper's pairs workload).  Returns ops/sec for the run.
double run_bulk_once(AnyQueue& q, int threads, std::size_t batch,
                     std::uint64_t items_per_thread,
                     const std::vector<topo::ThreadSlot>& plan) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> total_ops{0};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            topo::pin_self(plan[static_cast<std::size_t>(t)]);
            std::vector<value_t> buf(batch);
            for (std::size_t i = 0; i < batch; ++i) buf[i] = static_cast<value_t>(i + 1);
            ready.fetch_add(1);
            SpinWait waiter;
            while (!go.load(std::memory_order_acquire)) waiter.spin();
            std::uint64_t ops = 0;
            for (std::uint64_t round = 0; round < items_per_thread / batch; ++round) {
                q.enqueue_bulk(std::span<const value_t>(buf.data(), batch));
                ops += batch;
                ops += q.dequeue_bulk(buf.data(), batch);
            }
            total_ops.fetch_add(ops);
        });
    }
    while (ready.load() < threads) std::this_thread::yield();
    const std::uint64_t t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const std::uint64_t t1 = now_ns();
    const double secs = static_cast<double>(t1 > t0 ? t1 - t0 : 1) / 1e9;
    return static_cast<double>(total_ops.load()) / secs;
}

// Bulk throughput + amortization counters per queue × threads × batch,
// with each batch's speedup over the first batch size of its row.
bool bulk_sweep(const std::vector<std::string>& queues,
                const std::vector<std::int64_t>& thread_list,
                const std::vector<std::int64_t>& batches, std::uint64_t items, int runs,
                topo::Placement placement, const QueueOptions& qopt,
                JsonReport& report) {
    const topo::Topology topology = topo::discover();
    const auto ratio = [](std::uint64_t num, std::uint64_t den) {
        return den == 0 ? Json()
                        : Json(static_cast<double>(num) / static_cast<double>(den));
    };
    for (const auto& name : queues) {
        for (std::int64_t threads : thread_list) {
            const auto plan =
                topo::plan_placement(topology, static_cast<int>(threads), placement);
            double first_mean = 0;
            for (std::int64_t batch : batches) {
                RunningStats throughput;
                const stats::Snapshot before = stats::global_snapshot();
                for (int run = 0; run < runs; ++run) {
                    auto q = make_queue(name, qopt);
                    if (q == nullptr) {
                        std::fprintf(stderr, "unknown queue: %s\n", name.c_str());
                        return false;
                    }
                    throughput.add(run_bulk_once(*q, static_cast<int>(threads),
                                                 static_cast<std::size_t>(batch), items,
                                                 plan));
                }
                const stats::Snapshot delta = stats::global_snapshot() - before;
                if (first_mean == 0) first_mean = throughput.mean();
                const double speedup =
                    first_mean > 0 ? throughput.mean() / first_mean : 0;
                report.add_result(
                    Json::object()
                        .set("queue", name)
                        .set("workload", "bulk-pairs")
                        .set("threads", threads)
                        .set("batch", batch)
                        .set("throughput", throughput_json(throughput))
                        .set("speedup_vs_k1", speedup)
                        .set("counters", counters_json(delta))
                        .set("bulk",
                             Json::object()
                                 .set("tickets_per_faa",
                                      ratio(delta[stats::Event::kBulkTickets],
                                            delta[stats::Event::kBulkFaa]))
                                 .set("wasted_per_batch",
                                      ratio(delta[stats::Event::kBulkWasted],
                                            delta[stats::Event::kBulkEnqueue] +
                                                delta[stats::Event::kBulkDequeue]))));
                std::printf(
                    "bulk_ops   %-10s t=%-2lld k=%-3lld  %sops/s  x%.2f vs k=%lld\n",
                    name.c_str(), static_cast<long long>(threads),
                    static_cast<long long>(batch),
                    format_si(throughput.mean(), 2).c_str(), speedup,
                    static_cast<long long>(batches.front()));
            }
        }
    }
    return true;
}

// Open-loop Poisson sweep against the bounded BlockingQueue facade per
// backend, latency stamped from *intended* arrival (no coordinated
// omission), plus a per-backend dispatch_slo summary row.
constexpr double kDispatchP99TargetUs = 1'000;
constexpr double kDispatchMaxShedRate = 0.01;

bool dispatch_sweep(const std::vector<std::string>& queues,
                    const std::vector<std::int64_t>& loads_kops,
                    const DispatchConfig& base, JsonReport& report) {
    const auto p99_target_ns = static_cast<std::uint64_t>(kDispatchP99TargetUs * 1e3);
    const auto pct = [](std::uint64_t n, std::uint64_t of) {
        return of > 0 ? 100.0 * static_cast<double>(n) / static_cast<double>(of) : 0.0;
    };
    for (const auto& name : queues) {
        std::vector<DispatchConfig> cfgs;
        std::vector<DispatchResult> results;
        for (std::int64_t kops : loads_kops) {
            DispatchConfig cfg = base;
            cfg.queue = name;
            cfg.offered_mops = static_cast<double>(kops) / 1e3;
            DispatchResult r = run_dispatch(cfg);
            if (!r.ok) {
                std::fprintf(stderr, "dispatch: unknown queue %s\n", name.c_str());
                return false;
            }
            report.add_result(dispatch_result_json(cfg, r));
            std::printf("dispatch   %-10s offered=%.3fMops achieved=%.3f  p50=%.1fus "
                        "p99=%.1fus  shed=%.2f%%  miss=%.2f%%\n",
                        name.c_str(), cfg.offered_mops, r.achieved_mops,
                        static_cast<double>(r.e2e.percentile(0.50)) / 1e3,
                        static_cast<double>(r.e2e.percentile(0.99)) / 1e3,
                        pct(r.shed, r.offered), pct(r.deadline_missed, r.completed));
            cfgs.push_back(cfg);
            results.push_back(std::move(r));
        }
        const double sustainable = max_sustainable_mops(cfgs, results, p99_target_ns,
                                                        kDispatchMaxShedRate);
        report.add_result(dispatch_slo_json(name, base.producers, base.capacity,
                                            p99_target_ns, kDispatchMaxShedRate,
                                            sustainable));
        std::printf("dispatch   %-10s max sustainable %.3f Mops at p99<=%.0fus\n",
                    name.c_str(), sustainable, kDispatchP99TargetUs);
    }
    return true;
}

// --- the eight regression phases --------------------------------------------

// The sweep's sizes per scale; everything else in run_phases is constant.
struct PhaseSizes {
    std::vector<std::int64_t> threads{1, 2, 4};
    std::vector<std::int64_t> batches{1, 8, 32};
    std::uint64_t pairs = 10'000;
    int runs = 3;
    std::uint64_t bulk_items = 20'000;
    int latency_threads = 4;
    std::vector<std::int64_t> lanes{2, 4};  // -ml<N> knob
    std::vector<std::int64_t> lane_threads{2, 4, 8};
    int stall_threads = 2;
    int stall_preemptors = 2;
    int hier_clusters = 2;  // 0 = discovered topology
    std::vector<std::int64_t> hier_timeouts_us{0, 100};  // -h<timeout_us> knob
    std::vector<std::int64_t> hier_threads{2, 4};
    std::vector<std::int64_t> dispatch_loads_kops{100, 300};
    int dispatch_threads = 1;  // load generators, and as many workers
    std::uint64_t dispatch_ms = 300;
    std::vector<std::int64_t> autotune_orders{6, 8, 10, 12};
    int autotune_threads = 4;
};

PhaseSizes phase_sizes(Scale scale) {
    PhaseSizes s;
    if (scale == Scale::kSmoke) {
        s.threads = {1, 2};
        s.batches = {1, 8};
        s.pairs = 2'000;
        s.runs = 2;
        s.bulk_items = 4'000;
        s.latency_threads = 2;
        s.lanes = {2};
        s.lane_threads = {2, 4};
        s.hier_threads = {2};
        s.dispatch_loads_kops = {50, 200};
        s.dispatch_ms = 150;
        s.autotune_orders = {4, 6, 8};
        s.autotune_threads = 2;
    } else if (scale == Scale::kPaper) {
        s.threads = {1, 2, 4, 8, 12, 16, 20};
        s.batches = {1, 4, 16, 64};
        s.pairs = 1'000'000;
        s.runs = 10;
        s.bulk_items = 1'000'000;
        s.latency_threads = 20;
        s.lanes = {2, 4, 8, 16};
        s.lane_threads = {2, 4, 8, 16, 32};
        s.stall_threads = 8;
        s.stall_preemptors = 8;
        // §4.1.1 is a cross-socket effect: the paper profile runs the
        // hierarchical phase on the *discovered* topology (real sockets,
        // paper timeout 100 µs) — only meaningful on a multi-socket box.
        s.hier_clusters = 0;
        s.hier_timeouts_us = {0, 10, 100, 1'000};
        s.hier_threads = {2, 4, 8, 16, 20};
        s.dispatch_loads_kops = {500, 1'000, 2'000, 4'000};
        s.dispatch_threads = 4;
        s.dispatch_ms = 2'000;
        // Include the paper's R = 2^17 so the autotuner can answer "was
        // the paper's ring size right for this host?"
        s.autotune_orders = {8, 10, 12, 14, 17};
        s.autotune_threads = 8;
    }
    return s;
}

int run_phases(Scale scale, const std::string& out_dir) {
    const PhaseSizes s = phase_sizes(scale);
    const std::vector<std::string> queues = {"lcrq", "lcrq-cas", "lscq",
                                             "scq",  "ms",       "cc-queue"};
    const std::vector<std::string> lane_queues = {"lcrq-ml", "lscq-ml"};
    const std::vector<std::string> lane_bases = {"lcrq", "lscq"};
    const std::vector<std::string> hier_queues = {"lcrq-h", "lscq-h"};
    const std::vector<std::string> hier_bases = {"lcrq", "lscq"};
    const std::vector<std::string> stall_queues = {"lscq", "lwcq"};  // baseline first
    const std::vector<std::string> dispatch_queues = {"lcrq", "lscq"};
    const std::vector<std::string> autotune_queues = {"lcrq", "lscq"};
    constexpr std::uint64_t kSampleEvery = 4;  // latency sampling period
    // Ring-size pick rule: smallest order within this percentage of the
    // best mean throughput.
    constexpr double kAutotuneTolerancePct = 5;

    RunConfig base;
    base.pairs_per_thread = s.pairs;
    base.runs = s.runs;
    base.placement = topo::Placement::kUnpinned;
    const QueueOptions qopt;  // ring order 12
    const auto out_path = [&](const char* name) { return out_dir + "/" + name; };

    print_banner("regress: machine-readable sweep for regression gating",
                 "every future perf PR diffs these artifacts with "
                 "scripts/bench_compare.py",
                 base);

    // --- phase 1: single-op throughput + counters --------------------------
    {
        JsonReport report("regress/queue_ops");
        report.set_config(base);
        report.set_extra("queues", string_list_json(queues));
        report.set_extra("thread_list", int_list_json(s.threads));
        for (const auto& name : queues) {
            for (Workload w : {Workload::kPairs, Workload::kProducerConsumer}) {
                for (std::int64_t threads : s.threads) {
                    // prodcons needs at least one producer and one consumer.
                    if (w == Workload::kProducerConsumer && threads < 2) continue;
                    RunConfig cfg = base;
                    cfg.workload = w;
                    cfg.threads = static_cast<int>(threads);
                    const RunResult r = run_pairs(name, qopt, cfg);
                    report.add_result(result_json(name, cfg, r));
                    std::printf("queue_ops  %-10s %-8s t=%-2lld  %s\n", name.c_str(),
                                workload_name(w), static_cast<long long>(threads),
                                throughput_cell(r).c_str());
                }
            }
        }
        if (!report.write(out_path("BENCH_queue_ops.json"))) return 1;
    }

    // --- phase 2: bulk throughput + amortization counters -------------------
    {
        JsonReport report("regress/bulk_ops");
        report.set_config(base);
        report.set_extra("queues", string_list_json(queues));
        report.set_extra("thread_list", int_list_json(s.threads));
        report.set_extra("batch_list", int_list_json(s.batches));
        if (!bulk_sweep(queues, s.threads, s.batches, s.bulk_items, s.runs,
                        base.placement, qopt, report) ||
            !report.write(out_path("BENCH_bulk_ops.json"))) {
            return 1;
        }
    }

    // --- phase 3: latency percentiles ---------------------------------------
    {
        RunConfig cfg = base;
        cfg.threads = s.latency_threads;
        cfg.latency_sample_every = kSampleEvery;
        JsonReport report("regress/latency");
        report.set_config(cfg);
        report.set_extra("queues", string_list_json(queues));
        // Closed loop: each thread starts its next op only when the last
        // one finished, so these are *service times* — queueing delay is
        // invisible (coordinated omission).  The dispatch phase below is
        // the open-loop measurement; latency_kind labels which is which.
        for (const auto& name : queues) {
            const RunResult r = run_pairs(name, qopt, cfg);
            report.add_result(result_json(name, cfg, r)
                                  .set("latency_kind", "service_time_closed_loop"));
            std::printf("latency    %-10s t=%-2d  service-time p99=%lluns (%llu samples)\n",
                        name.c_str(), cfg.threads,
                        static_cast<unsigned long long>(r.latency.percentile(0.99)),
                        static_cast<unsigned long long>(r.latency.total()));
        }
        if (!report.write(out_path("BENCH_latency.json"))) return 1;
    }

    // --- phase 4: multilane lane sweep (producer-heavy) ---------------------
    {
        RunConfig lane_base = base;
        lane_base.workload = Workload::kProducerConsumer;
        JsonReport report("regress/lane_sweep");
        report.set_config(lane_base);
        report.set_extra("queues", string_list_json(lane_queues));
        report.set_extra("base_queues", string_list_json(lane_bases));
        report.set_extra("lane_list", int_list_json(s.lanes));
        report.set_extra("thread_list", int_list_json(s.lane_threads));

        const auto run_one = [&](const std::string& name, std::int64_t threads,
                                 Json lanes) -> bool {
            RunConfig cfg = lane_base;
            cfg.threads = static_cast<int>(threads);
            cfg.producers = cfg.threads - 1;  // enqueue contention dominates
            const RunResult r = run_pairs(name, qopt, cfg);
            if (r.throughput.count() == 0) {
                std::fprintf(stderr, "lane_sweep: no completed run for %s\n",
                             name.c_str());
                return false;
            }
            Json entry = result_json(name, cfg, r);
            entry.set("producers", effective_producers(cfg));
            entry.set("lanes", std::move(lanes));
            report.add_result(std::move(entry));
            std::printf("lane_sweep %-10s t=%-2lld p=%-2d  %s\n", name.c_str(),
                        static_cast<long long>(threads), effective_producers(cfg),
                        throughput_cell(r).c_str());
            return true;
        };

        for (std::int64_t threads : s.lane_threads) {
            for (const auto& name : lane_bases) {
                if (!run_one(name, threads, Json())) return 1;
            }
            for (const auto& name : lane_queues) {
                for (std::int64_t lanes : s.lanes) {
                    if (!run_one(name + std::to_string(lanes), threads,
                                 Json(lanes))) {
                        return 1;
                    }
                }
            }
        }

        // Coordination-free enqueue witness: single-threaded, the ml
        // front-end executes exactly as many F&A per enqueue as its base
        // queue (1 for CRQ, 2 for the SCQ ring pair) — the presence
        // bookkeeping is single-writer plain stores, not RMWs.  Any
        // nonzero overhead means a shared counter crept into the hot
        // path; fail the artifact, don't just record it.
        constexpr std::uint64_t kFaaProbeEnqueues = 2'000;
        const auto faa_per_enqueue = [&](const std::string& name,
                                         double& out) -> bool {
            auto q = make_queue(name, qopt);
            if (q == nullptr) {
                std::fprintf(stderr, "unknown queue: %s\n", name.c_str());
                return false;
            }
            const stats::Snapshot before = stats::global_snapshot();
            for (std::uint64_t i = 0; i < kFaaProbeEnqueues; ++i) {
                q->enqueue(static_cast<value_t>(i + 1));
            }
            const stats::Snapshot delta = stats::global_snapshot() - before;
            out = static_cast<double>(delta[stats::Event::kFaa]) /
                  static_cast<double>(kFaaProbeEnqueues);
            return true;
        };
        for (const auto& name : lane_queues) {
            const std::size_t suffix = name.rfind("-ml");
            const std::string base_name =
                suffix == std::string::npos ? name : name.substr(0, suffix);
            double ml_faa = 0, base_faa = 0;
            if (!faa_per_enqueue(name, ml_faa) ||
                !faa_per_enqueue(base_name, base_faa)) {
                return 1;
            }
            const double overhead = ml_faa - base_faa;
            report.add_result(Json::object()
                                  .set("experiment", "frontend_faa")
                                  .set("queue", name)
                                  .set("base_queue", base_name)
                                  .set("enqueues", kFaaProbeEnqueues)
                                  .set("faa_per_enqueue", ml_faa)
                                  .set("base_faa_per_enqueue", base_faa)
                                  .set("frontend_faa_overhead", overhead));
            std::printf("lane_sweep %-10s frontend_faa=%.3f (base %.3f, +%.3f)\n",
                        name.c_str(), ml_faa, base_faa, overhead);
            if (overhead != 0.0) {
                std::fprintf(stderr,
                             "lane_sweep: %s enqueue adds %.3f F&A per op over "
                             "%s (want exactly 0: presence bookkeeping must "
                             "stay plain single-writer stores)\n",
                             name.c_str(), overhead, base_name.c_str());
                return 1;
            }
        }
        if (!report.write(out_path("BENCH_lane_sweep.json"))) return 1;
    }

    // --- phase 5: tail latency under induced stalls --------------------------
    //
    // CPU-hogging preemptor threads oversubscribe the host so the
    // scheduler preempts queue threads mid-operation — the adversarial
    // stall wait-freedom is about.  p99 is recorded per run (fresh queue,
    // fresh histogram) and aggregated as mean + cv across runs, because
    // the gate in scripts/bench_compare.py is "p99 grew more than
    // max(10%, 3·cv)" and needs the run-to-run noise of the p99 statistic
    // itself, not of individual samples.
    {
        RunConfig cfg = base;
        cfg.threads = s.stall_threads;
        cfg.latency_sample_every = kSampleEvery;
        cfg.runs = 1;  // one histogram per run: p99 distribution, not merge
        JsonReport report("regress/stall_latency");
        report.set_config(cfg);
        report.set_extra("queues", string_list_json(stall_queues));
        report.set_extra("preemptors",
                         Json(static_cast<std::int64_t>(s.stall_preemptors)));

        std::atomic<bool> stop_preempt{false};
        std::vector<std::thread> preempt;
        preempt.reserve(static_cast<std::size_t>(s.stall_preemptors));
        for (int i = 0; i < s.stall_preemptors; ++i) {
            preempt.emplace_back([&stop_preempt] {
                volatile std::uint64_t sink = 0;  // defeat DCE of the hog loop
                while (!stop_preempt.load(std::memory_order_relaxed)) {
                    sink = sink + 1;
                }
            });
        }

        const auto pct_json = [](const RunningStats& st,
                                 std::uint64_t samples) {
            return Json::object()
                .set("mean_ns", st.mean())
                .set("cv", st.cv())
                .set("min_ns", st.min())
                .set("max_ns", st.max())
                .set("runs", static_cast<std::int64_t>(st.count()))
                .set("samples", static_cast<std::int64_t>(samples));
        };

        struct StallRow {
            std::string queue;
            double p99_mean;
        };
        std::vector<StallRow> rows;
        bool ok = true;
        for (const auto& name : stall_queues) {
            RunningStats p99;
            RunningStats p999;  // where rare stalls land on idle hosts
            std::uint64_t samples = 0;
            for (int run = 0; run < s.runs; ++run) {
                const RunResult r = run_pairs(name, qopt, cfg);
                if (r.latency.total() == 0) {
                    std::fprintf(stderr, "stall: no latency samples for %s\n",
                                 name.c_str());
                    ok = false;
                    break;
                }
                p99.add(static_cast<double>(r.latency.percentile(0.99)));
                p999.add(static_cast<double>(r.latency.percentile(0.999)));
                samples += r.latency.total();
            }
            if (!ok) break;
            report.add_result(
                Json::object()
                    .set("experiment", "stall_latency")
                    .set("queue", name)
                    .set("threads", static_cast<std::int64_t>(s.stall_threads))
                    .set("preemptors",
                         static_cast<std::int64_t>(s.stall_preemptors))
                    .set("p99", pct_json(p99, samples))
                    .set("p999", pct_json(p999, samples)));
            std::printf(
                "stall      %-10s t=%-2d hogs=%-2d  p99=%.0fns cv=%.2f  "
                "p999=%.0fns cv=%.2f\n",
                name.c_str(), s.stall_threads, s.stall_preemptors, p99.mean(),
                p99.cv(), p999.mean(), p999.cv());
            rows.push_back({name, p99.mean()});
        }
        stop_preempt.store(true, std::memory_order_relaxed);
        for (auto& t : preempt) t.join();
        if (!ok) return 1;

        // Cross-queue comparator: tail inflation relative to the baseline
        // (first) queue.  ratio < 1 is the wait-freedom win; the compare
        // script gates its growth across generations.
        for (std::size_t i = 1; i < rows.size(); ++i) {
            const double ratio =
                rows[0].p99_mean <= 0 ? 0.0 : rows[i].p99_mean / rows[0].p99_mean;
            report.add_result(Json::object()
                                  .set("experiment", "stall_p99_ratio")
                                  .set("queue", rows[i].queue)
                                  .set("base_queue", rows[0].queue)
                                  .set("p99_ratio", ratio));
            std::printf("stall      %-10s p99 vs %s: %.2fx\n",
                        rows[i].queue.c_str(), rows[0].queue.c_str(), ratio);
        }
        if (!report.write(out_path("BENCH_stall_latency.json"))) return 1;
    }

    // --- phase 6: hierarchical cluster handoff -------------------------------
    //
    // The §4.1.1 parity sweep: flat bases vs the -h variants across the
    // -h<timeout_us> knob.  Virtual clusters (2 below --paper) keep the
    // handoff window executing on any host; with unpinned placement the
    // runner still assigns worker clusters round-robin, so foreign-cluster
    // enters — and thus waits, claims, and handovers — occur at every
    // thread count ≥ 2.  counters_json's cluster_handoff_rate column rides
    // in every result; scripts/bench_compare.py gates its growth.
    {
        RunConfig hier_cfg = base;
        hier_cfg.clusters = s.hier_clusters;
        JsonReport report("regress/hierarchy");
        report.set_config(hier_cfg);
        report.set_extra("queues", string_list_json(hier_queues));
        report.set_extra("base_queues", string_list_json(hier_bases));
        report.set_extra("timeout_list_us", int_list_json(s.hier_timeouts_us));
        report.set_extra("thread_list", int_list_json(s.hier_threads));
        report.set_extra("clusters", Json(static_cast<std::int64_t>(s.hier_clusters)));

        const auto run_one = [&](const std::string& name, std::int64_t threads,
                                 Json timeout_us) -> bool {
            RunConfig cfg = hier_cfg;
            cfg.threads = static_cast<int>(threads);
            const RunResult r = run_pairs(name, qopt, cfg);
            if (r.throughput.count() == 0) {
                std::fprintf(stderr, "hierarchy: no completed run for %s\n",
                             name.c_str());
                return false;
            }
            Json entry = result_json(name, cfg, r);
            entry.set("timeout_us", std::move(timeout_us));
            report.add_result(std::move(entry));
            std::printf("hierarchy  %-12s t=%-2lld  %s\n", name.c_str(),
                        static_cast<long long>(threads),
                        throughput_cell(r).c_str());
            return true;
        };

        for (std::int64_t threads : s.hier_threads) {
            for (const auto& name : hier_bases) {
                if (!run_one(name, threads, Json())) return 1;
            }
            for (const auto& name : hier_queues) {
                for (std::int64_t us : s.hier_timeouts_us) {
                    if (!run_one(name + std::to_string(us), threads, Json(us))) {
                        return 1;
                    }
                }
            }
        }
        if (!report.write(out_path("BENCH_hierarchy.json"))) return 1;
    }

    // --- phase 7: open-loop dispatch (macro-workload SLO gate) ---------------
    //
    // The production-server scenario; bench_compare.py gates e2e p99,
    // shed_rate, deadline_miss_rate, and max_sustainable_mops.
    {
        JsonReport report("regress/dispatch");
        report.set_extra("queues", string_list_json(dispatch_queues));
        report.set_extra("load_list_kops", int_list_json(s.dispatch_loads_kops));
        DispatchConfig cfg;
        cfg.producers = cfg.workers = s.dispatch_threads;
        cfg.duration_ms = s.dispatch_ms;
        if (!dispatch_sweep(dispatch_queues, s.dispatch_loads_kops, cfg, report) ||
            !report.write(out_path("BENCH_dispatch.json"))) {
            return 1;
        }
    }

    // --- phase 8: ring-size autotune sweep -----------------------------------
    //
    // Sweeps the fig9 ring-order grid per queue and joins throughput with
    // the substrate's health columns: segment_reuse_rate (is the pool
    // absorbing ring closes?) and the dTLB/LLC per-op miss rates (is the
    // ring's footprint thrashing translation?).  The prefill holds a
    // standing population of ~3 rings so every order exercises close +
    // append + pool reuse, not just the fast path.  Each queue also gets
    // a "ring_autotune_pick" row with the order pick_ring_order()
    // recommends; scripts/bench_compare.py gates the recommended order
    // and the miss rates across generations.
    {
        RunConfig at_cfg = base;
        at_cfg.threads = s.autotune_threads;
        at_cfg.measure_hw = true;
        JsonReport report("regress/ring_autotune");
        report.set_config(at_cfg);
        report.set_extra("queues", string_list_json(autotune_queues));
        report.set_extra("order_list", int_list_json(s.autotune_orders));
        report.set_extra("tolerance_pct", Json(kAutotuneTolerancePct));
        const auto cell = [](const Json& v) {
            return v.is_number() ? format_double(v.as_double(), 4) : std::string("n/a");
        };
        for (const auto& name : autotune_queues) {
            std::vector<RingOrderPoint> sweep;
            for (std::int64_t order : s.autotune_orders) {
                QueueOptions at_opt = qopt;
                at_opt.ring_order = static_cast<unsigned>(order);
                RunConfig cfg = at_cfg;
                cfg.prefill = std::uint64_t{3} << order;
                const RunResult r = run_pairs(name, at_opt, cfg);
                if (r.throughput.count() == 0) {
                    std::fprintf(stderr, "ring_autotune: no completed run for %s\n",
                                 name.c_str());
                    return 1;
                }
                Json row = result_json(name, cfg, r)
                               .set("experiment", "ring_autotune")
                               .set("ring_order", order);
                std::printf("autotune   %-10s R=2^%-2lld  %s  reuse %s  dTLB/op %s  "
                            "LLC/op %s\n",
                            name.c_str(), static_cast<long long>(order),
                            throughput_cell(r).c_str(),
                            cell(row.at("counters").at("derived").at(
                                     "segment_reuse_rate")).c_str(),
                            cell(row.at("hw").at("dtlb_miss_per_op")).c_str(),
                            cell(row.at("hw").at("llc_miss_per_op")).c_str());
                report.add_result(std::move(row));
                sweep.push_back({order, r.throughput.mean()});
            }
            const RingOrderPick pick = pick_ring_order(sweep, kAutotuneTolerancePct);
            report.add_result(Json::object()
                                  .set("experiment", "ring_autotune_pick")
                                  .set("queue", name)
                                  .set("threads", static_cast<std::int64_t>(
                                                      s.autotune_threads))
                                  .set("recommended_ring_order", pick.recommended_order)
                                  .set("best_ring_order", pick.best_order)
                                  .set("best_mean_ops_per_sec", pick.best_mean_ops_per_sec)
                                  .set("tolerance_pct", kAutotuneTolerancePct));
            std::printf("autotune   %-10s recommend R=2^%lld (best 2^%lld, "
                        "tol %.0f%%)\n",
                        name.c_str(), static_cast<long long>(pick.recommended_order),
                        static_cast<long long>(pick.best_order), kAutotuneTolerancePct);
        }
        if (!report.write(out_path("BENCH_ring_autotune.json"))) return 1;
    }

    return 0;
}

// --- the figure presets -----------------------------------------------------

// How a preset runs and prints:
//   kPrimitives — Table 1's ISA survey plus this host's self-tests;
//   kCounter    — Fig. 1's contended counter, F&A vs a CAS loop;
//   kGrid       — throughput per part × threads × queue;
//   kStats      — per-operation counter table per part × threads × queue;
//   kCdf        — latency CDF and percentiles per part (one thread count);
//   kRing       — throughput per part × ring order, against references;
//   kBulk       — the bulk-ops phase's batch sweep;
//   kDispatch   — the dispatch phase's offered-load sweep.
enum class View { kPrimitives, kCounter, kGrid, kStats, kCdf, kRing, kBulk, kDispatch };

// One line-up inside a preset: its queues and the axes it fixes.  A
// labelled part writes its label under the preset's part key in every
// result.
struct Part {
    std::string label = {};
    std::vector<std::string> queues = {};
    topo::Placement placement = topo::Placement::kSingleCluster;
    int clusters = 0;  // virtual clusters (0 = discovered), also given to the queues
    Workload workload = Workload::kPairs;
    std::uint64_t prefill = 0;
    QueueOptions opt = {};
    std::vector<std::string> reference = {};  // kRing: baseline of queues[i]
};

// A preset's sizes at one scale.
struct Sizes {
    // Swept thread counts; an entry hw(k) means k × the hardware threads.
    // kCdf and kRing run part i at threads[i] (the last entry repeats);
    // kDispatch runs threads[0] load generators and as many workers.
    std::vector<std::int64_t> threads = {};
    // Pairs per thread; kCounter: increments per thread; kBulk: items per
    // thread; kDispatch: the window per load point, in ms.
    std::uint64_t n = 0;
    int runs = 1;
    // kRing: ring orders; kBulk: batch sizes; kDispatch: offered loads in
    // kreq/s; kCdf: the latency sampling period.
    std::vector<std::int64_t> axis = {};
};

struct Preset {
    std::string id;
    std::string bench;  // the JSON "bench" id, kept from the former binary
    std::string title;
    std::string claim;  // what the paper shows
    View view;
    std::string part_key;  // "mode" or "experiment"; empty: parts write none
    std::vector<Part> parts;
    Sizes smoke, normal, paper;
};

constexpr std::int64_t hw(std::int64_t k) { return -k; }

std::vector<Preset> presets() {
    using topo::Placement;
    const auto single = paper_single_processor_set();
    const auto multi = paper_multi_processor_set();
    auto oversubscribed = single;
    // Our lock-based baselines spin politely (yield when oversubscribed),
    // which mutes the collapse on small hosts; the blind-spinning two-lock
    // queue shows the raw preempted-lock-holder effect the figure is about.
    oversubscribed.push_back("two-lock-blind");
    const Part multi_empty{.label = "empty", .queues = multi,
                           .placement = Placement::kRoundRobin, .clusters = 4};
    Part multi_full = multi_empty;
    multi_full.label = "prefilled";
    multi_full.prefill = 65'536;  // paper: 2^16

    // Ablations of the design choices DESIGN.md calls out.
    std::vector<Part> ablations = {
        {.label = "A1-padding", .queues = {"lcrq", "lcrq-compact"}}};
    for (unsigned iters : {0u, 16u, 64u, 256u, 1024u}) {
        // Tiny rings so enqueuers and dequeuers collide on cells; with
        // large rings the contested paths never fire.
        ablations.push_back({.label = "A2-spin=" + std::to_string(iters),
                             .queues = {"lcrq"},
                             .opt = {.ring_order = 3, .spin_wait_iters = iters}});
    }
    for (unsigned limit : {1u, 4u, 16u, 64u, 1024u}) {
        // The prefill keeps head and tail in different rings, so the tail
        // ring fills and closes once per R = 4 enqueues.
        ablations.push_back({.label = "A3-starve=" + std::to_string(limit),
                             .queues = {"lcrq"},
                             .prefill = 1'000,
                             .opt = {.ring_order = 2, .starvation_limit = limit}});
    }
    ablations.push_back({.label = "A4-reclaim", .queues = {"lcrq", "lcrq-noreclaim"}});
    ablations.push_back({.label = "A5-backoff", .queues = {"ms", "ms-nobackoff"}});
    for (Part& p : ablations) p.placement = Placement::kUnpinned;

    std::vector<Part> shapes;
    for (Workload w :
         {Workload::kPairs, Workload::kProducerConsumer, Workload::kMix5050}) {
        shapes.push_back(
            {.queues = single, .placement = Placement::kUnpinned, .workload = w});
    }

    const std::vector<std::int64_t> all_orders = {3, 4, 5,  6,  7,  8,  9, 10,
                                                  11, 12, 13, 14, 15, 16, 17};
    return {
        {"table1", "table1_primitives",
         "Table 1: synchronization primitives as machine instructions",
         "only x86 supports CAS, T&S, F&A (and SWAP/CAS2) directly; ARM/POWER "
         "offer LL/SC, SPARC lacks F&A",
         View::kPrimitives, "", {}, {}, {}, {}},
        {"fig1", "fig1_counter", "Figure 1: contended counter, F&A vs CAS loop",
         "F&A outperforms the CAS loop 4-6x under contention; the CAS loop needs "
         "several attempts per increment at high thread counts",
         View::kCounter, "",
         {{.placement = Placement::kRoundRobin, .clusters = 4}},
         {.threads = {1, 2}, .n = 20'000},
         {.threads = {1, 2, 4, 8, 16, 32, 64, 80}, .n = 200'000},
         {.threads = {1, 2, 4, 8, 16, 32, 48, 64, 80}, .n = 10'000'000}},
        {"fig6a", "fig6a_single_processor",
         "Figure 6a: single-processor throughput (queue initially empty)",
         "LCRQ > CC-Queue (1.5x) > FC (2.5x) > MS (3x) from 10 threads on; "
         "LCRQ-CAS melts down past 4 threads",
         View::kGrid, "", {{.queues = single}},
         {.threads = {1, 2}, .n = 500},
         {.threads = {1, 2, 4, 8, 12, 16, 20}, .n = 20'000, .runs = 3},
         {.threads = {1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}, .n = 10'000'000,
          .runs = 10}},
        {"fig6b", "fig6b_oversubscribed",
         "Figure 6b: oversubscribed throughput (unpinned threads)",
         "lock-based combining collapses (FC ~40x, CC ~15x) once combiners get "
         "preempted; nonblocking LCRQ/MS hold peak; LCRQ ends >20x over CC-Queue",
         View::kGrid, "", {{.queues = oversubscribed, .placement = Placement::kUnpinned}},
         {.threads = {hw(1), hw(2)}, .n = 500},
         // Long enough per run that preemption lands inside lock-held
         // windows often — short runs mute the collapse.
         {.threads = {hw(1), hw(2), hw(8), hw(32)}, .n = 20'000, .runs = 2},
         {.threads = {20, 24, 32, 48, 64, 80, 104, 128}, .n = 10'000'000, .runs = 10}},
        {"fig7", "fig7_multiprocessor",
         "Figure 7: four-processor throughput (round-robin across clusters); "
         "7b starts empty, 7a prefilled",
         "only hierarchical LCRQ+H / H-Queue scale past ~16 threads; prefill helps "
         "LCRQ (+5%) and hurts CC-Queue (-10%) and H-Queue (-40%)",
         View::kGrid, "mode", {multi_empty, multi_full},
         {.threads = {1, 4}, .n = 500},
         {.threads = {1, 2, 4, 8, 16, 24, 32}, .n = 10'000, .runs = 3},
         {.threads = {1, 2, 4, 8, 12, 16, 24, 32, 40, 56, 64, 80}, .n = 10'000'000,
          .runs = 10}},
        {"fig8", "fig8_latency_cdf",
         "Figure 8: latency CDF at max concurrency, (a) one cluster, (b) four",
         "LCRQ(+H) latency is front-loaded; combining ops pay combiner service/wait "
         "time (e.g. 80% of LCRQ+H ops <= 0.5us vs 30% for H-Queue)",
         View::kCdf, "mode",
         {{.label = "single", .queues = {"lcrq", "cc-queue", "fc-queue", "ms"}},
          {.label = "multi", .queues = {"lcrq-h", "lcrq", "h-queue", "cc-queue"},
           .placement = Placement::kRoundRobin, .clusters = 4}},
         {.threads = {2}, .n = 1'000, .axis = {8}},
         {.threads = {8}, .n = 10'000, .axis = {8}},
         {.threads = {20, 80}, .n = 1'000'000, .axis = {1}}},
        {"fig9", "fig9_ring_size", "Figure 9: LCRQ throughput vs ring size",
         "LCRQ saturates once one ring holds all threads; crossover vs CC-Queue at "
         "R>=32 (single) / R>=128 (multi); LCRQ+H needs R=512 to match H-Queue",
         View::kRing, "mode",
         {{.label = "single", .queues = {"lcrq"}, .reference = {"cc-queue"}},
          {.label = "multi", .queues = {"lcrq", "lcrq-h"},
           .placement = Placement::kRoundRobin, .clusters = 4,
           .reference = {"cc-queue", "h-queue"}}},
         {.threads = {2}, .n = 500, .axis = {4, 8}},
         {.threads = {8}, .n = 10'000, .runs = 3, .axis = {3, 5, 7, 9, 11, 13, 15, 17}},
         {.threads = {20, 80}, .n = 1'000'000, .runs = 3, .axis = all_orders}},
        {"table2", "table2_stats", "Table 2: single-processor per-operation statistics",
         "LCRQ completes an operation with exactly 2 atomic ops and no retries; "
         "LCRQ-CAS/MS pay CAS failures, combining queues pay serial combiner "
         "instructions",
         View::kStats, "", {{.queues = single}},
         {.threads = {1, 2}, .n = 1'000},
         {.threads = {1, 20}, .n = 20'000},
         {.threads = {1, 20}, .n = 10'000'000}},
        {"table3", "table3_stats", "Table 3: four-processor per-operation statistics",
         "LCRQ(+H) hold 2 atomic ops/op at 80 threads; LCRQ-CAS ~2.9 and 2x latency; "
         "combining queues run 5-18k instructions per op",
         View::kStats, "mode", {multi_empty, multi_full},
         {.threads = {4}, .n = 500},
         {.threads = {16}, .n = 5'000},
         {.threads = {80}, .n = 1'000'000}},
        {"ablations", "ablations",
         "Ablations: A1 node padding, A2 dequeue spin-wait, A3 starvation limit, "
         "A4 hazard pointers, A5 MS-queue backoff",
         "design-choice isolations (not in the paper's figures)",
         View::kStats, "experiment", ablations,
         {.threads = {2}, .n = 1'000},
         {.threads = {8}, .n = 10'000, .runs = 2},
         {.threads = {20}, .n = 1'000'000, .runs = 2}},
        {"ext_workloads", "ext_workloads",
         "Extension: workload shapes beyond the paper's pairs",
         "(no paper counterpart) rankings should be stable across shapes; prodcons "
         "adds real queue depth, mix adds EMPTY traffic",
         View::kGrid, "", shapes,
         {.threads = {2}, .n = 1'000},
         {.threads = {8}, .n = 10'000, .runs = 2},
         {.threads = {20}, .n = 1'000'000, .runs = 2}},
        {"batch", "micro_batch_ops",
         "Batched ticket claiming: bulk ops vs batch size",
         "(extension) the lcrq family claims a whole batch's tickets with one F&A, "
         "so tickets/F&A ~= k; other queues loop one claim per item",
         View::kBulk, "",
         {{.queues = {"lcrq", "lcrq-cas", "ms", "fc-queue"},
           .placement = Placement::kRoundRobin}},
         {.threads = {1, 2}, .n = 20'000, .axis = {1, 8}},
         {.threads = {1, 2, 4}, .n = 100'000, .axis = {1, 2, 4, 8, 16, 64}},
         {.threads = {1, 2, 4, 8, 16, 32, 64, 80}, .n = 1'000'000,
          .axis = {1, 2, 4, 8, 16, 64}}},
        {"dispatch_server", "dispatch_server",
         "Dispatch server: open-loop Poisson sweep against the bounded facade",
         "(extension) below saturation every backend meets the SLO and sheds "
         "nothing; past it the watermark converts overload into shed requests",
         View::kDispatch, "", {{.queues = {"lcrq", "lscq"}}},
         {.threads = {1}, .n = 150, .axis = {50, 200}},
         {.threads = {1}, .n = 300, .axis = {100, 300, 600}},
         {.threads = {4}, .n = 2'000, .axis = {500, 1'000, 2'000, 4'000}}},
    };
}

RunConfig part_config(const Part& part, const Sizes& s, std::int64_t threads) {
    RunConfig cfg;
    cfg.threads = static_cast<int>(threads);
    cfg.pairs_per_thread = s.n;
    cfg.runs = s.runs;
    cfg.placement = part.placement;
    cfg.clusters = part.clusters;
    cfg.workload = part.workload;
    cfg.prefill = part.prefill;
    return cfg;
}

QueueOptions part_options(const Part& part) {
    QueueOptions opt = part.opt;
    opt.clusters = part.clusters;
    return opt;
}

// Part i's single thread count in the kCdf and kRing views.
std::int64_t part_threads(const Sizes& s, std::size_t i) {
    return s.threads[std::min(i, s.threads.size() - 1)];
}

std::string part_name(const Part& part) {
    return part.label.empty() ? workload_name(part.workload) : part.label;
}

// result_json plus the part's label under the preset's part key.
Json part_result(const Preset& p, const Part& part, const std::string& queue,
                 const RunConfig& cfg, const RunResult& r) {
    Json entry = result_json(queue, cfg, r);
    if (!p.part_key.empty()) entry.set(p.part_key, part.label);
    return entry;
}

void primitives_view(JsonReport& report) {
    Table isa({"architecture", "compare-and-swap", "test-and-set", "fetch-and-add",
               "swap", "cas2 (dwcas)"});
    isa.row().cell("ARM").cell("LL/SC").cell("deprecated").cell("no").cell("no").cell("no");
    isa.row().cell("POWER").cell("LL/SC").cell("no").cell("no").cell("no").cell("no");
    isa.row().cell("SPARC").cell("yes").cell("deprecated").cell("yes").cell("no").cell("no");
    isa.row().cell("x86").cell("yes").cell("yes").cell("yes").cell("yes").cell("yes");
    isa.print();

    std::atomic<std::uint64_t> a{1};
    const bool faa = fetch_and_add(a, std::uint64_t{2}) == 1 && a.load() == 3;
    const bool swapped = swap(a, std::uint64_t{9}) == 3 && a.load() == 9;
    a.store(0);
    const bool tas = !test_and_set_bit(a, 5) && test_and_set_bit(a, 5);
    a.store(1);
    const bool cas_ok = cas(a, std::uint64_t{1}, std::uint64_t{2}) &&
                        !cas(a, std::uint64_t{1}, std::uint64_t{3}) && a.load() == 2;
    U128 w{1, 2};
    U128 e{1, 2};
    bool cas2_ok = cas2(&w, e, {3, 4});
    e = {0, 0};
    cas2_ok = cas2_ok && !cas2(&w, e, {9, 9}) && e.lo == 3 && e.hi == 4;

    const PrimitiveSupport s = primitive_support();
    const struct {
        const char* label;
        const char* pretty;
        bool native;
        bool selftest;
    } rows[] = {
        {"faa", "F&A (lock xadd)", s.native_faa, faa},
        {"swap", "SWAP (xchg)", s.native_swap, swapped},
        {"tas", "T&S (lock bts)", s.native_tas, tas},
        {"cas", "CAS (lock cmpxchg)", s.native_cas, cas_ok},
        {"cas2", "CAS2 (lock cmpxchg16b)", s.native_cas2, cas2_ok},
    };
    std::printf("\nthis build/host:\n");
    Table host({"primitive", "native instruction", "self-test"});
    for (const auto& r : rows) {
        host.row().cell(r.pretty).cell(r.native ? "yes" : "no").cell(
            r.selftest ? "yes" : "no");
        report.add_result(Json::object()
                              .set("experiment", r.label)
                              .set("native", r.native)
                              .set("selftest", r.selftest));
    }
    host.print();
}

// ns per completed increment, normalized per thread (wall time × threads /
// total increments, the paper's "time to increment"), and CAS attempts
// per increment (1.0 = no wasted attempt; 0 for F&A).
template <typename Policy>
std::pair<double, double> run_counter(int threads, std::uint64_t increments,
                                      const std::vector<topo::ThreadSlot>& plan) {
    alignas(kDestructivePairSize) static std::atomic<std::uint64_t> counter{0};
    counter.store(0);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads));
    const stats::Snapshot before = stats::global_snapshot();
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            topo::pin_self(plan[static_cast<std::size_t>(t)]);
            ready.fetch_add(1);
            SpinWait w;
            while (!go.load(std::memory_order_acquire)) w.spin();
            for (std::uint64_t i = 0; i < increments; ++i) Policy::fetch_add(counter, 1);
        });
    }
    while (ready.load() < threads) std::this_thread::yield();
    const auto t0 = now_ns();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const auto t1 = now_ns();
    const stats::Snapshot delta = stats::global_snapshot() - before;
    const double total = static_cast<double>(threads) * static_cast<double>(increments);
    return {static_cast<double>(t1 - t0) / total * threads,
            per_op(delta[stats::Event::kCas], total)};
}

void counter_view(const Part& part, const Sizes& s, JsonReport& report) {
    topo::Topology topology = topo::discover();
    if (part.clusters > 0) topology = topo::make_virtual(topology, part.clusters);
    report.set_extra("increments_per_thread", Json(s.n));
    Table table({"threads", "faa ns/inc", "cas-loop ns/inc", "slowdown", "CAS/inc"});
    for (std::int64_t threads : s.threads) {
        const int t = static_cast<int>(threads);
        const auto plan = topo::plan_placement(topology, t, part.placement);
        const double faa_ns = run_counter<HardwareFaa>(t, s.n, plan).first;
        const auto [cas_ns, cas_per_inc] = run_counter<CasLoopFaa>(t, s.n, plan);
        report.add_result(Json::object()
                              .set("queue", "counter-faa")
                              .set("workload", "increment")
                              .set("threads", threads)
                              .set("ns_per_op", faa_ns));
        report.add_result(Json::object()
                              .set("queue", "counter-cas-loop")
                              .set("workload", "increment")
                              .set("threads", threads)
                              .set("ns_per_op", cas_ns)
                              .set("cas_per_increment", cas_per_inc));
        table.row()
            .cell(threads)
            .cell(faa_ns, 1)
            .cell(cas_ns, 1)
            .cell(cas_ns / (faa_ns > 0 ? faa_ns : 1), 2)
            .cell(cas_per_inc, 2);
    }
    table.print();
}

void grid_view(const Preset& p, const Sizes& s, JsonReport& report) {
    for (const Part& part : p.parts) {
        std::printf("--- %s ---\n", part_name(part).c_str());
        std::vector<std::string> header = {"threads"};
        for (const auto& q : part.queues) header.push_back(q + " Mops/s");
        Table table(header);
        for (std::int64_t threads : s.threads) {
            const RunConfig cfg = part_config(part, s, threads);
            auto row = table.row();
            row.cell(threads);
            for (const auto& name : part.queues) {
                const RunResult r = run_pairs(name, part_options(part), cfg);
                row.cell(r.mean_ops_per_sec() / 1e6, 3);
                report.add_result(part_result(p, part, name, cfg, r));
            }
        }
        table.print();
        std::printf("\n");
    }
}

// Tables 2/3 and the ablations: one row per part × threads × queue.  The
// software-counter columns are exact; the hardware ones need a PMU.
void stats_view(const Preset& p, const Sizes& s, JsonReport& report) {
    if (PerfCounters probe; !probe.any_available()) {
        std::printf("hardware PMU columns: n/a on this host (%s); software-counter "
                    "columns are exact\n\n",
                    probe.unavailable_reason().c_str());
    }
    Table table({"part", "threads", "queue", "latency us/op", "rel latency",
                 "atomic ops/op", "CAS fails/op", "F&A/op", "ring retries/op",
                 "empty trans/op", "closes", "appends", "handoffs", "instr/op",
                 "L1d miss/op", "LLC miss/op", "dTLB miss/op"});
    for (const Part& part : p.parts) {
        for (std::int64_t threads : s.threads) {
            RunConfig cfg = part_config(part, s, threads);
            cfg.measure_hw = true;
            double base_ns = 0;  // the block's first queue: rel latency 1.00
            for (const auto& name : part.queues) {
                const RunResult r = run_pairs(name, part_options(part), cfg);
                report.add_result(part_result(p, part, name, cfg, r));
                const stats::Snapshot& ev = r.events;
                const double ops = static_cast<double>(ev.operations());
                const double ns = r.ns_per_op(cfg.threads);
                // !(x > 0) also catches the NaN a failed run reports.
                if (base_ns == 0) base_ns = ns > 0 ? ns : 1;
                const auto hw_cell = [&](HwEvent e, int precision) {
                    const auto v = r.hw.get(e);
                    return v.has_value() && ops > 0
                               ? format_double(static_cast<double>(*v) / ops, precision)
                               : std::string("n/a");
                };
                table.row()
                    .cell(part_name(part))
                    .cell(threads)
                    .cell(name)
                    .cell(ns / 1e3, 3)
                    .cell(ns / base_ns, 2)
                    .cell(per_op(ev.atomic_ops(), ops), 2)
                    .cell(per_op(ev[stats::Event::kCasFailure] +
                                     ev[stats::Event::kCas2Failure],
                                 ops),
                          2)
                    .cell(per_op(ev[stats::Event::kFaa], ops), 2)
                    .cell(per_op(ev[stats::Event::kRingRetry], ops), 3)
                    .cell(per_op(ev[stats::Event::kEmptyTransition], ops), 3)
                    .cell(ev[stats::Event::kCrqClose])
                    .cell(ev[stats::Event::kCrqAppend])
                    .cell(ev[stats::Event::kClusterHandoff])
                    .cell(hw_cell(HwEvent::kInstructions, 0))
                    .cell(hw_cell(HwEvent::kL1DMisses, 2))
                    .cell(hw_cell(HwEvent::kLLCMisses, 2))
                    .cell(hw_cell(HwEvent::kDTLBMisses, 2));
            }
        }
    }
    table.print();
}

void cdf_view(const Preset& p, const Sizes& s, JsonReport& report) {
    const std::uint64_t probes_ns[] = {100,   240,    500,    1'000,   2'000,
                                       5'000, 10'000, 25'000, 100'000, 1'000'000};
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        const Part& part = p.parts[i];
        RunConfig cfg = part_config(part, s, part_threads(s, i));
        cfg.latency_sample_every = static_cast<std::uint64_t>(s.axis.front());
        std::printf("--- %s: %d threads, %s ---\n", part.label.c_str(), cfg.threads,
                    topo::placement_name(cfg.placement));
        std::vector<LatencyHistogram> hists;
        for (const auto& name : part.queues) {
            const RunResult r = run_pairs(name, part_options(part), cfg);
            hists.push_back(r.latency);
            report.add_result(part_result(p, part, name, cfg, r)
                                  .set("latency_kind", "service_time_closed_loop"));
        }
        std::vector<std::string> header = {"latency<="};
        for (const auto& q : part.queues) header.push_back(q + " %ops");
        Table cdf(header);
        for (std::uint64_t ns : probes_ns) {
            auto row = cdf.row();
            row.cell(ns < 1'000 ? std::to_string(ns) + "ns"
                                : format_double(static_cast<double>(ns) / 1e3, 1) + "us");
            for (const auto& h : hists) row.cell(100.0 * h.cdf_at(ns), 1);
        }
        cdf.print();
        Table pct({"queue", "svc p50 us", "svc p90 us", "svc p99 us", "svc p999 us",
                   "samples"});
        for (std::size_t q = 0; q < hists.size(); ++q) {
            auto row = pct.row();
            row.cell(part.queues[q]);
            for (double at : {0.50, 0.90, 0.99, 0.999}) {
                row.cell(static_cast<double>(hists[q].percentile(at)) / 1e3, 2);
            }
            row.cell(hists[q].total());
        }
        std::printf("\n");
        pct.print();
        std::printf("\n");
    }
    std::printf("Closed-loop measurement: timestamps start when the operation "
                "starts, so these are service times — queueing delay under overload "
                "is excluded (coordinated omission).  For end-to-end latency from "
                "intended arrival, see --figure dispatch_server.\n");
}

void ring_view(const Preset& p, const Sizes& s, JsonReport& report) {
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
        const Part& part = p.parts[i];
        const RunConfig cfg = part_config(part, s, part_threads(s, i));
        QueueOptions opt = part_options(part);
        std::printf("--- %s: %d threads, %s ---\n", part.label.c_str(), cfg.threads,
                    topo::placement_name(cfg.placement));
        // Reference lines: the combining queues do not depend on R.
        std::vector<double> refs;
        for (const auto& name : part.reference) {
            const RunResult r = run_pairs(name, opt, cfg);
            refs.push_back(r.mean_ops_per_sec() > 0 ? r.mean_ops_per_sec() : 1);
            std::printf("reference: %-9s %s\n", name.c_str(), throughput_cell(r).c_str());
        }
        std::vector<std::string> header = {"R"};
        for (std::size_t q = 0; q < part.queues.size(); ++q) {
            header.push_back(part.queues[q] + " Mops/s");
            header.push_back("vs " + part.reference[q]);
        }
        Table table(header);
        for (std::int64_t order : s.axis) {
            opt.ring_order = static_cast<unsigned>(order);
            auto row = table.row();
            row.cell(std::int64_t{1} << order);
            for (std::size_t q = 0; q < part.queues.size(); ++q) {
                const RunResult r = run_pairs(part.queues[q], opt, cfg);
                report.add_result(part_result(p, part, part.queues[q], cfg, r)
                                      .set("ring_order", order));
                row.cell(r.mean_ops_per_sec() / 1e6, 3);
                row.cell(r.mean_ops_per_sec() / refs[q], 2);
            }
        }
        table.print();
        std::printf("\n");
    }
}

int run_preset(const Preset& p, Scale scale, const std::string& out_dir) {
    Sizes s = scale == Scale::kSmoke   ? p.smoke
              : scale == Scale::kPaper ? p.paper
                                       : p.normal;
    const auto hw_threads =
        static_cast<std::int64_t>(std::max(1u, std::thread::hardware_concurrency()));
    for (auto& t : s.threads) t = t < 0 ? -t * hw_threads : t;

    JsonReport report(p.bench);
    report.set_extra("figure", p.id);
    report.set_extra("scale", scale == Scale::kSmoke   ? "smoke"
                              : scale == Scale::kPaper ? "paper"
                                                       : "default");
    if (p.view == View::kGrid || p.view == View::kStats || p.view == View::kCdf ||
        p.view == View::kRing) {
        const RunConfig cfg = part_config(p.parts.front(), s, s.threads.front());
        report.set_config(cfg);
        print_banner(p.title, p.claim, cfg);
    } else {
        std::printf("=== %s ===\npaper: %s\nhost:  %s\n\n", p.title.c_str(),
                    p.claim.c_str(), topo::describe(topo::discover()).c_str());
    }
    bool ok = true;
    switch (p.view) {
        case View::kPrimitives: primitives_view(report); break;
        case View::kCounter: counter_view(p.parts.front(), s, report); break;
        case View::kGrid: grid_view(p, s, report); break;
        case View::kStats: stats_view(p, s, report); break;
        case View::kCdf: cdf_view(p, s, report); break;
        case View::kRing: ring_view(p, s, report); break;
        case View::kBulk: {
            const Part& part = p.parts.front();
            ok = bulk_sweep(part.queues, s.threads, s.axis, s.n, s.runs, part.placement,
                            part_options(part), report);
            break;
        }
        case View::kDispatch: {
            DispatchConfig cfg;
            cfg.producers = cfg.workers = static_cast<int>(s.threads.front());
            cfg.duration_ms = s.n;
            ok = dispatch_sweep(p.parts.front().queues, s.axis, cfg, report);
            break;
        }
    }
    return ok && report.write(out_dir + "/BENCH_" + p.id + ".json") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<Preset> table = presets();
    std::string ids;
    for (const Preset& p : table) ids += (ids.empty() ? "" : " | ") + p.id;
    Cli cli("regress",
            "The one benchmark program: the eight BENCH_*.json regression artifacts, "
            "or with --figure one paper experiment as BENCH_<id>.json");
    cli.flag("figure", "", "run one preset instead of the regression sweep: " + ids);
    cli.flag("out-dir", ".", "directory receiving the BENCH_*.json artifacts");
    cli.flag("smoke", "false", "CI scale: tiny sweep, same schema");
    cli.flag("paper", "false", "paper scale: hours on a big box");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    const Scale scale = cli.get_bool("smoke")   ? Scale::kSmoke
                        : cli.get_bool("paper") ? Scale::kPaper
                                                : Scale::kDefault;
    const std::string figure = cli.get("figure");
    if (figure.empty()) return run_phases(scale, cli.get("out-dir"));
    for (const Preset& p : table) {
        if (p.id == figure) return run_preset(p, scale, cli.get("out-dir"));
    }
    std::fprintf(stderr, "regress: unknown --figure '%s' (one of: %s)\n", figure.c_str(),
                 ids.c_str());
    return 1;
}
