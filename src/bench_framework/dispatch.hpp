// Open-loop dispatch-server macro-benchmark harness.
//
// The per-figure benches are closed loops: each thread issues its next
// operation only after the previous one finishes, so the measured latency
// is *service time* and a slow operation silently delays every request
// behind it — coordinated omission.  A server does not get that mercy:
// requests arrive on the clock whether or not the queue is keeping up.
// This harness models that regime:
//
//   * Load generators submit requests on a precomputed Poisson schedule
//     (exponential interarrival gaps, seeded).  The schedule is fixed
//     before the run starts, so a stalled generator falls *behind* and
//     then bursts to catch up — it never silently stretches the offered
//     load.  `gen_lag_ns` reports how far behind submission ran.
//   * Every request's end-to-end latency is stamped from its *intended*
//     arrival time, not from when the generator got around to submitting
//     it.  Queueing delay — the thing a closed loop hides — is part of
//     the number.
//   * The queue under test is the production BlockingQueue facade over a
//     registry backend, with bounded capacity: requests beyond the
//     watermark are shed (or wait a bounded window when
//     enqueue_wait_us > 0), and the accounting (offered / accepted /
//     shed / completed / deadline-missed) is exact.
//   * A sweep over offered loads yields per-backend SLO rows; the summary
//     reports the highest offered load whose p99 met the target with the
//     shed rate under the bound ("max sustainable throughput").
//
// Used by bench/regress: its dispatch phase (the canonical
// BENCH_dispatch.json artifact) and its dispatch_server figure preset.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"

namespace lcrq::bench {

struct DispatchConfig {
    std::string queue = "lcrq";
    int producers = 1;                 // load-generator threads
    int workers = 1;                   // dispatch worker threads
    double offered_mops = 0.1;         // total offered load, M requests/s
    std::uint64_t duration_ms = 300;   // load-generation window
    std::uint64_t service_ns = 250;    // simulated per-request work (spin)
    std::size_t capacity = 1024;       // facade watermark; 0 = unbounded
    std::uint64_t deadline_us = 2'000; // per-request SLO deadline
    std::uint64_t enqueue_wait_us = 0; // bounded wait at the watermark;
                                       //   0 = shed immediately
    std::uint64_t rng_seed = 42;
    unsigned ring_order = 12;
};

struct DispatchResult {
    bool ok = false;                 // false: unknown queue name
    std::uint64_t offered = 0;       // scheduled requests
    std::uint64_t accepted = 0;      // admitted into the queue
    std::uint64_t shed = 0;          // refused at the watermark (or timed out)
    std::uint64_t completed = 0;     // serviced by a worker
    std::uint64_t deadline_missed = 0;
    double wall_secs = 0.0;
    double achieved_mops = 0.0;      // completed / wall
    double gen_lag_ns = 0.0;         // mean (actual - intended) at submit
    LatencyHistogram e2e;            // intended-arrival -> service-done
    stats::Snapshot events;          // counter delta across the run
};

// Run one (queue, offered-load) point.  Returns ok == false when the queue
// name is not in the registry.
DispatchResult run_dispatch(const DispatchConfig& cfg);

// One results[] entry: experiment "dispatch", keyed by queue + producers +
// offered_mops + capacity, with the accounting, the "e2e" latency block
// (latency_kind "e2e_intended_start"), and the counter delta.
Json dispatch_result_json(const DispatchConfig& cfg, const DispatchResult& r);

// Max sustainable offered load: the highest swept offered_mops whose p99
// met `p99_target_ns` AND whose shed rate stayed <= max_shed_rate; 0 when
// no point qualified.  Inputs are the sweep's (config, result) pairs.
double max_sustainable_mops(const std::vector<DispatchConfig>& cfgs,
                            const std::vector<DispatchResult>& results,
                            std::uint64_t p99_target_ns, double max_shed_rate);

// Summary row (experiment "dispatch_slo") carrying max_sustainable_mops
// and the gate parameters.
Json dispatch_slo_json(const std::string& queue, int producers, std::size_t capacity,
                       std::uint64_t p99_target_ns, double max_shed_rate,
                       double sustainable_mops);

}  // namespace lcrq::bench
