// Machine-readable benchmark reports.
//
// bench/regress serializes every run as a versioned JSON document: the
// eight canonical BENCH_*.json artifacts (BENCH_queue_ops.json, ...) that
// scripts/bench_compare.py gates regressions against, and one
// BENCH_<id>.json per --figure preset.  One schema for all of them: host
// topology, the RunConfig, and per-configuration result
// entries carrying throughput (with the run-to-run cv the comparator's
// noise model needs), the software-counter delta with derived atomics/op
// and CAS-failure rates, and latency percentiles.  See EXPERIMENTS.md
// ("Machine-readable pipeline") for the schema reference.
#pragma once

#include <string>

#include "bench_framework/runner.hpp"
#include "util/json.hpp"

namespace lcrq::bench {

// Bump on any backwards-incompatible field change; bench_compare.py
// refuses to diff documents whose versions differ.
inline constexpr int kBenchSchemaVersion = 1;

// --- building blocks --------------------------------------------------------

// {"description", "cpus", "clusters", "hw_threads"} for the host this
// process runs on.
Json host_json();

// The full RunConfig, so an artifact is self-describing.
Json config_json(const RunConfig& cfg);

// {"mean_ops_per_sec", "cv", "min", "max", "runs"}.  cv is the recorded
// run-to-run coefficient of variation — the comparator widens its
// regression threshold by it.
Json throughput_json(const RunningStats& s);

// Raw per-event counts plus a "derived" block (atomics_per_op,
// cas_failure_rate, cas2_failure_rate, faa_per_op, cas_fails_per_op).
// Ratios with a zero denominator serialize as null, never as 0.
Json counters_json(const stats::Snapshot& delta);

// {"instructions_per_op", "l1d_miss_per_op", "llc_miss_per_op",
//  "dtlb_miss_per_op"} — per-operation hardware-event rates, null for
// events the kernel refused (with an "unavailable" map naming each
// refused event's reason).  Emitted in result_json only when the run
// measured hardware counters.
Json hw_json(const HwCounts& hw, std::uint64_t total_ops);

// {"samples", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns",
//  "max_ns"}; percentiles are null when nothing was sampled.
Json latency_json(const LatencyHistogram& h);

// One results[] entry for a pairs-runner result: queue/workload/threads
// key fields plus throughput, ns_per_op (null for failed runs), counters,
// and — when sampled — latency.
Json result_json(const std::string& queue, const RunConfig& cfg, const RunResult& r);

// --- report document --------------------------------------------------------

class JsonReport {
  public:
    // `bench_id` names the producing experiment, e.g.
    // "fig6a_single_processor" or "regress/queue_ops".
    explicit JsonReport(std::string bench_id);

    // Record the sweep's base configuration (optional; once).
    void set_config(const RunConfig& cfg);
    // Bench-specific top-level fields (e.g. the swept batch sizes).
    void set_extra(std::string_view key, Json value);
    void add_result(Json entry);
    std::size_t result_count() const noexcept { return results_.size(); }

    Json document() const;
    // Serialize to `path`; returns false (with a message on stderr) if the
    // file cannot be written.
    bool write(const std::string& path) const;

  private:
    std::string bench_id_;
    Json config_;  // null until set_config
    Json extras_ = Json::object();
    Json results_ = Json::array();
};

}  // namespace lcrq::bench
