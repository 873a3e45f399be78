#include "bench_framework/report.hpp"

#include <cstdio>
#include <string>
#include <thread>

#include "topology/topology.hpp"
#include "util/table.hpp"

namespace lcrq::bench {

void print_banner(const std::string& experiment_id, const std::string& paper_claim,
                  const RunConfig& cfg) {
    const topo::Topology t = effective_topology(cfg);
    std::printf("=== %s ===\n", experiment_id.c_str());
    std::printf("paper: %s\n", paper_claim.c_str());
    std::printf("host:  %s (hw threads: %u)\n", topo::describe(t).c_str(),
                std::thread::hardware_concurrency());
    std::printf("run:   threads=%d pairs/thread=%llu runs=%d placement=%s clusters=%d "
                "delay<=%lluns prefill=%llu workload=%s\n",
                cfg.threads, static_cast<unsigned long long>(cfg.pairs_per_thread),
                cfg.runs, topo::placement_name(cfg.placement), t.num_clusters,
                static_cast<unsigned long long>(cfg.max_delay_ns),
                static_cast<unsigned long long>(cfg.prefill),
                workload_name(cfg.workload));
    if (static_cast<unsigned>(cfg.threads) > std::thread::hardware_concurrency()) {
        std::printf("note:  threads exceed hardware threads — oversubscribed regime; "
                    "absolute scaling reflects OS time-slicing, relative ordering and\n"
                    "       blocking-vs-nonblocking behaviour remain meaningful "
                    "(see EXPERIMENTS.md)\n");
    }
    std::printf("\n");
}

std::string throughput_cell(const RunResult& r) {
    return format_si(r.mean_ops_per_sec(), 2) + "ops/s (cv " +
           format_double(100.0 * r.throughput.cv(), 1) + "%)";
}

RingOrderPick pick_ring_order(const std::vector<RingOrderPoint>& points,
                              double tolerance_pct) {
    if (points.empty()) return {};
    const RingOrderPoint* best = &points.front();
    for (const auto& p : points) {
        if (p.mean_ops_per_sec > best->mean_ops_per_sec ||
            (p.mean_ops_per_sec == best->mean_ops_per_sec && p.order < best->order)) {
            best = &p;
        }
    }
    RingOrderPick pick{best->order, best->order, best->mean_ops_per_sec};
    const double floor = best->mean_ops_per_sec * (1.0 - tolerance_pct / 100.0);
    for (const auto& p : points) {
        if (p.mean_ops_per_sec >= floor && p.order < pick.recommended_order) {
            pick.recommended_order = p.order;
        }
    }
    return pick;
}

}  // namespace lcrq::bench
