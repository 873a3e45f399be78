// Report helpers for the benchmark binary (bench/regress): a standard
// banner (experiment id, host topology, config, paper expectation),
// uniform row formatting, and the ring-size pick rule — so every phase and
// figure preset reads alike, like the paper's evaluation section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_framework/runner.hpp"

namespace lcrq::bench {

// Print the experiment banner: what the paper shows, what this host is,
// and how the run is configured.
void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const RunConfig& cfg);

std::string throughput_cell(const RunResult& r);  // "12.34 Mops/s (cv 2%)"

// Ring-size autotune (bench/regress phase 8): one swept ring order and the
// order the sweep recommends.
struct RingOrderPoint {
    std::int64_t order = 0;  // log2 of the ring size
    double mean_ops_per_sec = 0.0;
};
struct RingOrderPick {
    std::int64_t recommended_order = 0;
    std::int64_t best_order = 0;
    double best_mean_ops_per_sec = 0.0;
};

// The pick rule: the best point has the highest mean; the recommendation
// is the smallest order whose mean is within `tolerance_pct` of the best.
// Ties go to the smaller order, because bigger rings cost dTLB reach and
// pool memory.  The input may be in any order; empty input yields zeros.
RingOrderPick pick_ring_order(const std::vector<RingOrderPoint>& points,
                              double tolerance_pct);

}  // namespace lcrq::bench
