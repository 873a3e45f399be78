// Report helpers shared by the per-figure bench binaries: a standard
// banner (experiment id, host topology, config, paper expectation),
// uniform row formatting, and the common CLI flags — so every bench binary
// reads alike and bench_output.txt reads like the paper's evaluation
// section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_framework/runner.hpp"
#include "util/cli.hpp"

namespace lcrq::bench {

// Register the flags every throughput bench shares (--threads, --pairs,
// --runs, --placement, --clusters, --delay-ns, --prefill, --ring-order,
// --csv, --json).  Defaults are laptop-scale; pass paper-scale values to
// reproduce the original setup.  --json makes the binary also emit its
// results as a machine-readable report (bench_framework/json_report.hpp).
void add_common_flags(Cli& cli, const RunConfig& defaults, unsigned ring_order = 12);

// Extract a RunConfig / QueueOptions from parsed common flags.
RunConfig config_from_cli(const Cli& cli);
QueueOptions queue_options_from_cli(const Cli& cli);

// Print the experiment banner: what the paper shows, what this host is,
// and how the run is configured.
void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const RunConfig& cfg);

std::string throughput_cell(const RunResult& r);  // "12.34 Mops/s (cv 2%)"

// "a,b,c" -> {"a","b","c"}; empty string -> empty vector.
std::vector<std::string> split_names(const std::string& csv);

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
