#include "bench_framework/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <random>
#include <thread>
#include <vector>

#include "bench_framework/json_report.hpp"
#include "queues/blocking_queue.hpp"
#include "registry/queue_registry.hpp"
#include "util/timing.hpp"

namespace lcrq::bench {

namespace {

// Request values carry (producer, sequence) so a worker can find the
// request's intended-arrival timestamp in the precomputed schedule.
constexpr unsigned kSeqBits = 40;
constexpr value_t encode(std::size_t producer, std::size_t seq) noexcept {
    return (static_cast<value_t>(producer) << kSeqBits) | static_cast<value_t>(seq);
}
constexpr std::size_t decode_producer(value_t v) noexcept {
    return static_cast<std::size_t>(v >> kSeqBits);
}
constexpr std::size_t decode_seq(value_t v) noexcept {
    return static_cast<std::size_t>(v & ((value_t{1} << kSeqBits) - 1));
}

// Per-producer Poisson arrival schedule: offsets (ns from run start) of
// every intended arrival inside the generation window.  Built before any
// thread starts so the offered load is a property of the run, not of how
// fast the generators happened to execute (open loop), and so workers can
// read intended timestamps without synchronizing with generators.
std::vector<std::uint64_t> build_schedule(double rate_per_ns, std::uint64_t window_ns,
                                          std::uint64_t seed) {
    std::vector<std::uint64_t> offsets;
    offsets.reserve(static_cast<std::size_t>(rate_per_ns * static_cast<double>(window_ns) * 1.2) + 16);
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate_per_ns);
    double t = gap(rng);
    while (t < static_cast<double>(window_ns)) {
        offsets.push_back(static_cast<std::uint64_t>(t));
        t += gap(rng);
    }
    return offsets;
}

struct WorkerTally {
    std::uint64_t completed = 0;
    std::uint64_t deadline_missed = 0;
    std::uint64_t lat_sum_ns = 0;
    LatencyHistogram e2e;
};

struct ProducerTally {
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t lag_sum_ns = 0;
    std::uint64_t submitted = 0;
};

}  // namespace

DispatchResult run_dispatch(const DispatchConfig& cfg) {
    DispatchResult res;
    // The TSC/ns ratio is calibrated lazily (~10 ms); force it here, or
    // the first worker's service spin pays it inside the window and the
    // requests that arrive meanwhile read a ~9 ms e2e tail.
    (void)tsc_per_ns();
    QueueOptions qopt;
    qopt.ring_order = cfg.ring_order;
    auto base = make_queue(cfg.queue, qopt);
    if (!base) return res;  // ok stays false

    using Facade = BlockingQueue<UniquePtrBase<AnyQueue>>;
    Facade q(UniquePtrBase<AnyQueue>(std::move(base)), cfg.capacity);

    const int producers = cfg.producers > 0 ? cfg.producers : 1;
    const int workers = cfg.workers > 0 ? cfg.workers : 1;
    const std::uint64_t window_ns = cfg.duration_ms * 1'000'000u;
    const double rate_per_ns = cfg.offered_mops * 1e6 / 1e9 / producers;
    const std::uint64_t deadline_ns = cfg.deadline_us * 1'000u;
    const std::uint64_t wait_ns = cfg.enqueue_wait_us * 1'000u;

    std::vector<std::vector<std::uint64_t>> schedule(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
        schedule[static_cast<std::size_t>(p)] =
            build_schedule(rate_per_ns, window_ns, cfg.rng_seed + static_cast<std::uint64_t>(p));
        res.offered += schedule[static_cast<std::size_t>(p)].size();
    }

    std::vector<ProducerTally> ptally(static_cast<std::size_t>(producers));
    std::vector<WorkerTally> wtally(static_cast<std::size_t>(workers));
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<bool> go{false};

    const stats::Snapshot before = stats::global_snapshot();

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers + workers));

    for (int w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
            while (!go.load(std::memory_order_acquire)) { /* start gate */ }
            const std::uint64_t t0 = start_ns.load(std::memory_order_acquire);
            WorkerTally& t = wtally[static_cast<std::size_t>(w)];
            for (;;) {
                const WaitResult r = q.wait_dequeue_for(1'000'000);  // 1 ms slice
                if (r.closed()) break;
                if (!r.ok()) continue;  // timeout: idle worker, re-arm
                spin_for_ns(cfg.service_ns);
                const std::size_t p = decode_producer(r.value);
                const std::size_t seq = decode_seq(r.value);
                const std::uint64_t intended = t0 + schedule[p][seq];
                const std::uint64_t done = now_ns();
                const std::uint64_t lat = done > intended ? done - intended : 0;
                t.e2e.record(lat);
                t.lat_sum_ns += lat;
                ++t.completed;
                if (lat > deadline_ns) ++t.deadline_missed;
            }
        });
    }

    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            while (!go.load(std::memory_order_acquire)) { /* start gate */ }
            const std::uint64_t t0 = start_ns.load(std::memory_order_acquire);
            ProducerTally& t = ptally[static_cast<std::size_t>(p)];
            const auto& sched = schedule[static_cast<std::size_t>(p)];
            for (std::size_t seq = 0; seq < sched.size(); ++seq) {
                const std::uint64_t intended = t0 + sched[seq];
                std::uint64_t nw = now_ns();
                // Hybrid wait to the intended instant: sleep off the bulk
                // of long gaps (a spinning generator starves workers on
                // oversubscribed hosts), spin the last stretch for
                // precision.
                constexpr std::uint64_t kSpinTailNs = 50'000;
                if (nw + kSpinTailNs < intended) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(intended - nw - kSpinTailNs));
                    nw = now_ns();
                }
                if (nw < intended) {
                    spin_for_ns(intended - nw);
                    nw = now_ns();
                }
                // Open loop: behind-schedule requests are submitted anyway
                // (bursting to catch up), never skipped — skipping would
                // shed load invisibly and understate the offered rate.
                t.lag_sum_ns += nw > intended ? nw - intended : 0;
                ++t.submitted;
                const value_t v = encode(static_cast<std::size_t>(p), seq);
                bool accepted;
                if (wait_ns > 0) {
                    accepted = q.wait_enqueue_for(v, wait_ns) == WaitStatus::kOk;
                } else {
                    accepted = q.try_enqueue(v);
                }
                if (accepted) {
                    ++t.accepted;
                } else {
                    ++t.shed;
                }
            }
        });
    }

    const std::uint64_t t0 = now_ns();
    start_ns.store(t0, std::memory_order_release);
    go.store(true, std::memory_order_release);

    // Generators finish the window, then the queue closes and workers
    // drain to a conclusive post-close EMPTY (wait_dequeue_for keeps
    // delivering items after close until drained).
    for (int p = 0; p < producers; ++p) {
        threads[static_cast<std::size_t>(workers + p)].join();
    }
    q.close();
    for (int w = 0; w < workers; ++w) {
        threads[static_cast<std::size_t>(w)].join();
    }
    const std::uint64_t t1 = now_ns();

    res.ok = true;
    res.events = stats::global_snapshot() - before;
    res.wall_secs = static_cast<double>(t1 - t0) / 1e9;
    std::uint64_t lag_sum = 0, submitted = 0;
    for (const auto& t : ptally) {
        res.accepted += t.accepted;
        res.shed += t.shed;
        lag_sum += t.lag_sum_ns;
        submitted += t.submitted;
    }
    for (auto& t : wtally) {
        res.completed += t.completed;
        res.deadline_missed += t.deadline_missed;
        res.e2e.merge(t.e2e);
    }
    res.achieved_mops =
        res.wall_secs > 0 ? static_cast<double>(res.completed) / res.wall_secs / 1e6 : 0.0;
    res.gen_lag_ns =
        submitted > 0 ? static_cast<double>(lag_sum) / static_cast<double>(submitted) : 0.0;
    return res;
}

Json dispatch_result_json(const DispatchConfig& cfg, const DispatchResult& r) {
    const double offered = static_cast<double>(r.offered);
    Json e = Json::object()
                 .set("experiment", "dispatch")
                 .set("queue", cfg.queue)
                 .set("producers", cfg.producers)
                 .set("workers", cfg.workers)
                 .set("offered_mops", cfg.offered_mops)
                 .set("capacity", static_cast<std::uint64_t>(cfg.capacity))
                 .set("duration_ms", cfg.duration_ms)
                 .set("service_ns", cfg.service_ns)
                 .set("deadline_us", cfg.deadline_us)
                 .set("enqueue_wait_us", cfg.enqueue_wait_us)
                 .set("requests", r.offered)
                 .set("accepted", r.accepted)
                 .set("shed", r.shed)
                 .set("shed_rate", r.offered > 0 ? Json(static_cast<double>(r.shed) / offered)
                                                 : Json(nullptr))
                 .set("completed", r.completed)
                 .set("deadline_missed", r.deadline_missed)
                 .set("deadline_miss_rate",
                      r.completed > 0
                          ? Json(static_cast<double>(r.deadline_missed) /
                                 static_cast<double>(r.completed))
                          : Json(nullptr))
                 .set("achieved_mops", r.achieved_mops)
                 .set("gen_lag_ns", r.gen_lag_ns)
                 // "e2e", not "latency": these are end-to-end numbers from
                 // intended arrival, not the closed-loop service times the
                 // latency comparator rule was tuned for.
                 .set("e2e", latency_json(r.e2e))
                 .set("latency_kind", "e2e_intended_start")
                 .set("counters", counters_json(r.events));
    return e;
}

double max_sustainable_mops(const std::vector<DispatchConfig>& cfgs,
                            const std::vector<DispatchResult>& results,
                            std::uint64_t p99_target_ns, double max_shed_rate) {
    double best = 0.0;
    for (std::size_t i = 0; i < cfgs.size() && i < results.size(); ++i) {
        const DispatchResult& r = results[i];
        if (!r.ok || r.offered == 0 || r.e2e.total() == 0) continue;
        const double shed_rate =
            static_cast<double>(r.shed) / static_cast<double>(r.offered);
        if (r.e2e.percentile(0.99) <= p99_target_ns && shed_rate <= max_shed_rate) {
            best = std::max(best, cfgs[i].offered_mops);
        }
    }
    return best;
}

Json dispatch_slo_json(const std::string& queue, int producers, std::size_t capacity,
                       std::uint64_t p99_target_ns, double max_shed_rate,
                       double sustainable_mops) {
    return Json::object()
        .set("experiment", "dispatch_slo")
        .set("queue", queue)
        .set("producers", producers)
        .set("capacity", static_cast<std::uint64_t>(capacity))
        .set("p99_target_us", static_cast<double>(p99_target_ns) / 1e3)
        .set("max_shed_rate", max_shed_rate)
        .set("max_sustainable_mops", sustainable_mops);
}

}  // namespace lcrq::bench
