// Canonical regression-gating driver: sweeps the registry line-up across
// workloads and thread counts at laptop scale and writes eight
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
//                          the first queue in --stall-queues.
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
// scripts/bench_compare.py diffs two generations of these files using
// each metric's recorded cv and exits nonzero on a regression, so every
// perf PR gets a before/after artifact instead of an anecdote.  --smoke
// shrinks everything for CI; --paper scales to the paper's parameters.
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "bench_framework/dispatch.hpp"
#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "topology/pinning.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

using namespace lcrq;
using namespace lcrq::bench;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
    Cli cli("regress",
            "Canonical machine-readable sweep: writes the eight BENCH_*.json "
            "artifacts for regression gating");
    cli.flag("queues", "lcrq,lcrq-cas,lscq,scq,ms,cc-queue",
             "registry names to sweep (comma-separated)");
    cli.flag("thread-list", "1,2,4", "thread counts to sweep");
    cli.flag("pairs", "10000", "enqueue/dequeue pairs per thread");
    cli.flag("runs", "3", "runs to average per configuration");
    cli.flag("batch-list", "1,8,32", "bulk batch sizes to sweep");
    cli.flag("bulk-items", "20000", "items per thread per bulk configuration");
    cli.flag("latency-sample-every", "4", "latency sampling period (0 = skip phase)");
    cli.flag("latency-threads", "4", "thread count for the latency phase");
    cli.flag("lane-queues", "lcrq-ml,lscq-ml",
             "multilane queues for the lane sweep (empty = skip phase)");
    cli.flag("lane-base-queues", "lcrq,lscq",
             "single-queue baselines run alongside the lane sweep");
    cli.flag("lane-list", "2,4", "lane counts to sweep (-ml<N> knob)");
    cli.flag("lane-thread-list", "2,4,8",
             "thread counts for the producer-heavy lane sweep");
    cli.flag("hier-queues", "lcrq-h,lscq-h",
             "hierarchical queues for the handoff phase (empty = skip phase)");
    cli.flag("hier-base-queues", "lcrq,lscq",
             "flat baselines run alongside the hierarchical phase");
    cli.flag("hier-timeout-list", "0,100",
             "cluster-handoff timeouts in us, swept via the -h<timeout_us> knob");
    cli.flag("hier-thread-list", "2,4",
             "thread counts for the hierarchical phase");
    cli.flag("clusters", "2",
             "virtual clusters for the hierarchical phase (0 = discovered "
             "topology; the --paper profile forces 0)");
    cli.flag("stall-queues", "lscq,lwcq",
             "queues for the stall-latency phase, baseline first "
             "(empty = skip phase)");
    cli.flag("stall-threads", "2", "queue threads for the stall phase");
    cli.flag("stall-preemptors", "2",
             "CPU-hogging threads run alongside the stall phase");
    cli.flag("dispatch-queues", "lcrq,lscq",
             "backends for the open-loop dispatch phase (empty = skip phase)");
    cli.flag("dispatch-load-list", "100,300",
             "offered loads for the dispatch sweep, in kreq/s");
    cli.flag("dispatch-producers", "1", "dispatch load-generator threads");
    cli.flag("dispatch-workers", "1", "dispatch worker threads");
    cli.flag("dispatch-duration-ms", "300", "dispatch window per load point");
    cli.flag("dispatch-capacity", "1024", "dispatch facade watermark");
    cli.flag("dispatch-service-ns", "250", "dispatch per-request service spin");
    cli.flag("dispatch-deadline-us", "2000", "dispatch per-request deadline");
    cli.flag("dispatch-p99-target-us", "1000",
             "dispatch SLO: e2e p99 must stay under this");
    cli.flag("autotune-queues", "lcrq,lscq",
             "queues for the ring-size autotune sweep (empty = skip phase)");
    cli.flag("autotune-orders", "6,8,10,12",
             "ring orders (log2) swept by the autotune phase");
    cli.flag("autotune-threads", "4", "thread count for the autotune sweep");
    cli.flag("autotune-tolerance-pct", "5",
             "autotune pick rule: smallest order within this percentage of "
             "the best mean throughput");
    cli.flag("ring-order", "12", "log2 of the CRQ/SCQ ring size");
    cli.flag("placement", "unpinned", "single-cluster | round-robin | unpinned");
    cli.flag("delay-ns", "100", "max random inter-operation delay in ns");
    cli.flag("out-dir", ".", "directory receiving the BENCH_*.json artifacts");
    cli.flag("smoke", "false", "CI scale: tiny sweep, same schema");
    cli.flag("paper", "false", "paper scale: hours on a big box");
    if (!cli.parse(argc, argv)) return cli.failed() ? 1 : 0;

    std::vector<std::string> queues = split_names(cli.get("queues"));
    std::vector<std::int64_t> thread_list = cli.get_int_list("thread-list");
    std::vector<std::int64_t> batch_list = cli.get_int_list("batch-list");
    std::uint64_t pairs = static_cast<std::uint64_t>(cli.get_int("pairs"));
    int runs = static_cast<int>(cli.get_int("runs"));
    std::uint64_t bulk_items = static_cast<std::uint64_t>(cli.get_int("bulk-items"));
    auto sample_every = static_cast<std::uint64_t>(cli.get_int("latency-sample-every"));
    int latency_threads = static_cast<int>(cli.get_int("latency-threads"));
    std::vector<std::string> lane_queues = split_names(cli.get("lane-queues"));
    std::vector<std::string> lane_bases = split_names(cli.get("lane-base-queues"));
    std::vector<std::int64_t> lane_list = cli.get_int_list("lane-list");
    std::vector<std::int64_t> lane_threads = cli.get_int_list("lane-thread-list");
    std::vector<std::string> stall_queues = split_names(cli.get("stall-queues"));
    int stall_threads = static_cast<int>(cli.get_int("stall-threads"));
    int stall_preemptors = static_cast<int>(cli.get_int("stall-preemptors"));
    std::vector<std::string> hier_queues = split_names(cli.get("hier-queues"));
    std::vector<std::string> hier_bases = split_names(cli.get("hier-base-queues"));
    std::vector<std::int64_t> hier_timeouts = cli.get_int_list("hier-timeout-list");
    std::vector<std::int64_t> hier_threads = cli.get_int_list("hier-thread-list");
    int hier_clusters = static_cast<int>(cli.get_int("clusters"));
    std::vector<std::string> dispatch_queues = split_names(cli.get("dispatch-queues"));
    std::vector<std::int64_t> dispatch_loads_kops =
        cli.get_int_list("dispatch-load-list");
    DispatchConfig dispatch_base;
    dispatch_base.producers = static_cast<int>(cli.get_int("dispatch-producers"));
    dispatch_base.workers = static_cast<int>(cli.get_int("dispatch-workers"));
    dispatch_base.duration_ms =
        static_cast<std::uint64_t>(cli.get_int("dispatch-duration-ms"));
    dispatch_base.capacity = static_cast<std::size_t>(cli.get_int("dispatch-capacity"));
    dispatch_base.service_ns =
        static_cast<std::uint64_t>(cli.get_int("dispatch-service-ns"));
    dispatch_base.deadline_us =
        static_cast<std::uint64_t>(cli.get_int("dispatch-deadline-us"));
    double dispatch_p99_target_us = cli.get_double("dispatch-p99-target-us");
    std::vector<std::string> autotune_queues = split_names(cli.get("autotune-queues"));
    std::vector<std::int64_t> autotune_orders = cli.get_int_list("autotune-orders");
    int autotune_threads = static_cast<int>(cli.get_int("autotune-threads"));
    const double autotune_tol_pct = cli.get_double("autotune-tolerance-pct");

    if (cli.get_bool("smoke")) {
        thread_list = {1, 2};
        batch_list = {1, 8};
        pairs = 2'000;
        runs = 2;
        bulk_items = 4'000;
        latency_threads = 2;
        lane_list = {2};
        lane_threads = {2, 4};
        hier_timeouts = {0, 100};
        hier_threads = {2};
        dispatch_loads_kops = {50, 200};
        dispatch_base.duration_ms = 150;
        autotune_orders = {4, 6, 8};
        autotune_threads = 2;
    } else if (cli.get_bool("paper")) {
        thread_list = {1, 2, 4, 8, 12, 16, 20};
        batch_list = {1, 4, 16, 64};
        pairs = 1'000'000;
        runs = 10;
        bulk_items = 1'000'000;
        latency_threads = 20;
        lane_list = {2, 4, 8, 16};
        lane_threads = {2, 4, 8, 16, 32};
        stall_threads = 8;
        stall_preemptors = 8;
        // §4.1.1 is a cross-socket effect: the paper profile runs the
        // hierarchical phase on the *discovered* topology (real sockets,
        // paper timeout 100 µs) — only meaningful on a multi-socket box.
        hier_clusters = 0;
        hier_timeouts = {0, 10, 100, 1'000};
        hier_threads = {2, 4, 8, 16, 20};
        dispatch_loads_kops = {500, 1'000, 2'000, 4'000};
        dispatch_base.producers = 4;
        dispatch_base.workers = 4;
        dispatch_base.duration_ms = 2'000;
        // Include the paper's R = 2^17 so the autotuner can answer "was
        // the paper's ring size right for this host?"
        autotune_orders = {8, 10, 12, 14, 17};
        autotune_threads = 8;
    }

    RunConfig base;
    base.pairs_per_thread = pairs;
    base.runs = runs;
    base.max_delay_ns = static_cast<std::uint64_t>(cli.get_int("delay-ns"));
    topo::Placement placement = topo::Placement::kUnpinned;
    topo::parse_placement(cli.get("placement"), placement);
    base.placement = placement;

    QueueOptions qopt;
    qopt.ring_order = static_cast<unsigned>(cli.get_int("ring-order"));

    const std::string out_dir = cli.get("out-dir");
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
        report.set_extra("thread_list", int_list_json(thread_list));
        for (const auto& name : queues) {
            for (Workload w : {Workload::kPairs, Workload::kProducerConsumer}) {
                for (std::int64_t threads : thread_list) {
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
        report.set_extra("thread_list", int_list_json(thread_list));
        report.set_extra("batch_list", int_list_json(batch_list));
        const topo::Topology topology = topo::discover();
        for (const auto& name : queues) {
            for (std::int64_t threads : thread_list) {
                const auto plan = topo::plan_placement(
                    topology, static_cast<int>(threads), base.placement);
                for (std::int64_t batch : batch_list) {
                    RunningStats throughput;
                    const stats::Snapshot before = stats::global_snapshot();
                    for (int run = 0; run < runs; ++run) {
                        auto q = make_queue(name, qopt);
                        if (q == nullptr) {
                            std::fprintf(stderr, "unknown queue: %s\n", name.c_str());
                            return 1;
                        }
                        throughput.add(run_bulk_once(
                            *q, static_cast<int>(threads),
                            static_cast<std::size_t>(batch), bulk_items, plan));
                    }
                    const stats::Snapshot delta = stats::global_snapshot() - before;
                    const auto faa = delta[stats::Event::kBulkFaa];
                    const auto bulk_ops = delta[stats::Event::kBulkEnqueue] +
                                          delta[stats::Event::kBulkDequeue];
                    Json entry =
                        Json::object()
                            .set("queue", name)
                            .set("workload", "bulk-pairs")
                            .set("threads", static_cast<std::int64_t>(threads))
                            .set("batch", static_cast<std::int64_t>(batch))
                            .set("throughput", throughput_json(throughput))
                            .set("counters", counters_json(delta))
                            .set("bulk",
                                 Json::object()
                                     .set("tickets_per_faa",
                                          faa == 0
                                              ? Json()
                                              : Json(static_cast<double>(
                                                         delta[stats::Event::
                                                                   kBulkTickets]) /
                                                     static_cast<double>(faa)))
                                     .set("wasted_per_batch",
                                          bulk_ops == 0
                                              ? Json()
                                              : Json(static_cast<double>(
                                                         delta[stats::Event::
                                                                   kBulkWasted]) /
                                                     static_cast<double>(bulk_ops))));
                    report.add_result(std::move(entry));
                    std::printf("bulk_ops   %-10s t=%-2lld k=%-3lld  %sops/s\n",
                                name.c_str(), static_cast<long long>(threads),
                                static_cast<long long>(batch),
                                format_si(throughput.mean(), 2).c_str());
                }
            }
        }
        if (!report.write(out_path("BENCH_bulk_ops.json"))) return 1;
    }

    // --- phase 3: latency percentiles ---------------------------------------
    if (sample_every != 0) {
        RunConfig cfg = base;
        cfg.threads = latency_threads;
        cfg.latency_sample_every = sample_every;
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
    if (!lane_queues.empty()) {
        RunConfig lane_base = base;
        lane_base.workload = Workload::kProducerConsumer;
        JsonReport report("regress/lane_sweep");
        report.set_config(lane_base);
        report.set_extra("queues", string_list_json(lane_queues));
        report.set_extra("base_queues", string_list_json(lane_bases));
        report.set_extra("lane_list", int_list_json(lane_list));
        report.set_extra("thread_list", int_list_json(lane_threads));

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

        for (std::int64_t threads : lane_threads) {
            if (threads < 2) continue;  // needs a producer and a consumer
            for (const auto& name : lane_bases) {
                if (!run_one(name, threads, Json())) return 1;
            }
            for (const auto& name : lane_queues) {
                for (std::int64_t lanes : lane_list) {
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
    if (!stall_queues.empty() && sample_every != 0) {
        RunConfig cfg = base;
        cfg.threads = stall_threads;
        cfg.latency_sample_every = sample_every;
        cfg.runs = 1;  // one histogram per run: p99 distribution, not merge
        JsonReport report("regress/stall_latency");
        report.set_config(cfg);
        report.set_extra("queues", string_list_json(stall_queues));
        report.set_extra("preemptors",
                         Json(static_cast<std::int64_t>(stall_preemptors)));

        std::atomic<bool> stop_preempt{false};
        std::vector<std::thread> preempt;
        preempt.reserve(static_cast<std::size_t>(stall_preemptors));
        for (int i = 0; i < stall_preemptors; ++i) {
            preempt.emplace_back([&stop_preempt] {
                volatile std::uint64_t sink = 0;  // defeat DCE of the hog loop
                while (!stop_preempt.load(std::memory_order_relaxed)) {
                    sink = sink + 1;
                }
            });
        }

        const auto pct_json = [](const RunningStats& s,
                                 std::uint64_t samples) {
            return Json::object()
                .set("mean_ns", s.mean())
                .set("cv", s.cv())
                .set("min_ns", s.min())
                .set("max_ns", s.max())
                .set("runs", static_cast<std::int64_t>(s.count()))
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
            for (int run = 0; run < runs; ++run) {
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
                    .set("threads", static_cast<std::int64_t>(stall_threads))
                    .set("preemptors",
                         static_cast<std::int64_t>(stall_preemptors))
                    .set("p99", pct_json(p99, samples))
                    .set("p999", pct_json(p999, samples)));
            std::printf(
                "stall      %-10s t=%-2d hogs=%-2d  p99=%.0fns cv=%.2f  "
                "p999=%.0fns cv=%.2f\n",
                name.c_str(), stall_threads, stall_preemptors, p99.mean(),
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
    // -h<timeout_us> knob.  Virtual clusters (default 2) keep the handoff
    // window executing on any host; with unpinned placement the runner
    // still assigns worker clusters round-robin, so foreign-cluster enters
    // — and thus waits, claims, and handovers — occur at every thread
    // count ≥ 2.  counters_json's cluster_handoff_rate column rides in
    // every result; scripts/bench_compare.py gates its growth.
    if (!hier_queues.empty()) {
        RunConfig hier_cfg = base;
        hier_cfg.clusters = hier_clusters;
        JsonReport report("regress/hierarchy");
        report.set_config(hier_cfg);
        report.set_extra("queues", string_list_json(hier_queues));
        report.set_extra("base_queues", string_list_json(hier_bases));
        report.set_extra("timeout_list_us", int_list_json(hier_timeouts));
        report.set_extra("thread_list", int_list_json(hier_threads));
        report.set_extra("clusters",
                         Json(static_cast<std::int64_t>(hier_clusters)));

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

        for (std::int64_t threads : hier_threads) {
            for (const auto& name : hier_bases) {
                if (!run_one(name, threads, Json())) return 1;
            }
            for (const auto& name : hier_queues) {
                for (std::int64_t us : hier_timeouts) {
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
    // The production-server scenario: Poisson offered-load sweep against
    // the bounded BlockingQueue facade, latency stamped from *intended*
    // arrival (no coordinated omission), shed/deadline accounting, and a
    // per-backend dispatch_slo summary row.  bench_compare.py gates e2e
    // p99, shed_rate, deadline_miss_rate, and max_sustainable_mops.
    if (!dispatch_queues.empty() && !dispatch_loads_kops.empty()) {
        JsonReport report("regress/dispatch");
        report.set_extra("queues", string_list_json(dispatch_queues));
        report.set_extra("load_list_kops", int_list_json(dispatch_loads_kops));
        const std::uint64_t p99_target_ns =
            static_cast<std::uint64_t>(dispatch_p99_target_us * 1e3);
        constexpr double kMaxShedRate = 0.01;
        for (const auto& name : dispatch_queues) {
            std::vector<DispatchConfig> cfgs;
            std::vector<DispatchResult> results;
            for (std::int64_t kops : dispatch_loads_kops) {
                DispatchConfig cfg = dispatch_base;
                cfg.queue = name;
                cfg.ring_order = qopt.ring_order;
                cfg.offered_mops = static_cast<double>(kops) / 1e3;
                DispatchResult r = run_dispatch(cfg);
                if (!r.ok) {
                    std::fprintf(stderr, "dispatch: unknown queue %s\n", name.c_str());
                    return 1;
                }
                report.add_result(dispatch_result_json(cfg, r));
                std::printf(
                    "dispatch   %-10s offered=%.3fMops  p99=%.1fus  shed=%.2f%%  "
                    "miss=%.2f%%\n",
                    name.c_str(), cfg.offered_mops,
                    static_cast<double>(r.e2e.percentile(0.99)) / 1e3,
                    r.offered > 0
                        ? 100.0 * static_cast<double>(r.shed) / static_cast<double>(r.offered)
                        : 0.0,
                    r.completed > 0 ? 100.0 * static_cast<double>(r.deadline_missed) /
                                          static_cast<double>(r.completed)
                                    : 0.0);
                cfgs.push_back(cfg);
                results.push_back(std::move(r));
            }
            const double sustainable =
                max_sustainable_mops(cfgs, results, p99_target_ns, kMaxShedRate);
            report.add_result(dispatch_slo_json(name, dispatch_base.producers,
                                                dispatch_base.capacity, p99_target_ns,
                                                kMaxShedRate, sustainable));
            std::printf("dispatch   %-10s max sustainable %.3f Mops at p99<=%.0fus\n",
                        name.c_str(), sustainable, dispatch_p99_target_us);
        }
        if (!report.write(out_path("BENCH_dispatch.json"))) return 1;
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
    // recommends at --autotune-tolerance-pct; scripts/bench_compare.py
    // gates the recommended order and the miss rates across generations.
    if (!autotune_queues.empty() && !autotune_orders.empty()) {
        RunConfig at_cfg = base;
        at_cfg.threads = autotune_threads;
        at_cfg.measure_hw = true;
        JsonReport report("regress/ring_autotune");
        report.set_config(at_cfg);
        report.set_extra("queues", string_list_json(autotune_queues));
        report.set_extra("order_list", int_list_json(autotune_orders));
        report.set_extra("tolerance_pct", Json(autotune_tol_pct));
        const auto cell = [](const Json& v) {
            return v.is_number() ? format_double(v.as_double(), 4) : std::string("n/a");
        };
        for (const auto& name : autotune_queues) {
            std::vector<RingOrderPoint> sweep;
            for (std::int64_t order : autotune_orders) {
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
            const RingOrderPick pick = pick_ring_order(sweep, autotune_tol_pct);
            report.add_result(Json::object()
                                  .set("experiment", "ring_autotune_pick")
                                  .set("queue", name)
                                  .set("threads", static_cast<std::int64_t>(
                                                      autotune_threads))
                                  .set("recommended_ring_order", pick.recommended_order)
                                  .set("best_ring_order", pick.best_order)
                                  .set("best_mean_ops_per_sec", pick.best_mean_ops_per_sec)
                                  .set("tolerance_pct", autotune_tol_pct));
            std::printf("autotune   %-10s recommend R=2^%lld (best 2^%lld, "
                        "tol %.0f%%)\n",
                        name.c_str(), static_cast<long long>(pick.recommended_order),
                        static_cast<long long>(pick.best_order), autotune_tol_pct);
        }
        if (!report.write(out_path("BENCH_ring_autotune.json"))) return 1;
    }

    return 0;
}
