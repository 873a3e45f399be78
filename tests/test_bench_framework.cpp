// Bench framework: the pairs runner produces sane results, honors
// placement/prefill/latency options, the CLI plumbing round-trips, and the
// machine-readable JSON reports survive emit -> parse intact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench_framework/json_report.hpp"
#include "bench_framework/report.hpp"
#include "bench_framework/runner.hpp"

namespace lcrq::bench {
namespace {

RunConfig quick_config() {
    RunConfig cfg;
    cfg.threads = 2;
    cfg.pairs_per_thread = 2'000;
    cfg.runs = 2;
    cfg.max_delay_ns = 0;  // keep the test fast
    cfg.placement = topo::Placement::kUnpinned;
    return cfg;
}

TEST(Runner, ProducesPositiveThroughput) {
    const auto r = run_pairs("lcrq", QueueOptions{}, quick_config());
    EXPECT_EQ(r.throughput.count(), 2u);
    EXPECT_GT(r.mean_ops_per_sec(), 0.0);
    EXPECT_EQ(r.total_ops, 2u * 2 * 2'000 * 2);  // runs * threads * pairs * 2
}

TEST(Runner, CountsOperationsExactly) {
    stats::reset_all();
    const auto r = run_pairs("ms", QueueOptions{}, quick_config());
    EXPECT_EQ(r.events[stats::Event::kEnqueue] + r.events[stats::Event::kDequeue],
              r.total_ops);
}

TEST(Runner, PrefillLeavesResidue) {
    RunConfig cfg = quick_config();
    cfg.prefill = 500;
    const auto r = run_pairs("lcrq", QueueOptions{}, cfg);
    // With a prefilled queue, pair dequeues should essentially never see
    // EMPTY (each dequeue follows this thread's own enqueue).
    EXPECT_EQ(r.empty_dequeues, 0u);
}

TEST(Runner, LatencySamplingFillsHistogram) {
    RunConfig cfg = quick_config();
    cfg.latency_sample_every = 4;
    const auto r = run_pairs("lcrq", QueueOptions{}, cfg);
    EXPECT_GT(r.latency.total(), 0u);
    EXPECT_LE(r.latency.total(), r.total_ops);
    EXPECT_GT(r.latency.mean(), 0.0);
}

TEST(Runner, WorksWithEveryPlacement) {
    for (auto p : {topo::Placement::kSingleCluster, topo::Placement::kRoundRobin,
                   topo::Placement::kUnpinned}) {
        RunConfig cfg = quick_config();
        cfg.pairs_per_thread = 500;
        cfg.placement = p;
        cfg.clusters = 2;
        const auto r = run_pairs("lcrq-h", QueueOptions{}, cfg);
        EXPECT_GT(r.mean_ops_per_sec(), 0.0) << topo::placement_name(p);
    }
}

TEST(Runner, EffectiveTopologyHonorsClusterOverride) {
    RunConfig cfg = quick_config();
    cfg.clusters = 4;
    const auto t = effective_topology(cfg);
    EXPECT_EQ(t.num_clusters, 4);
}

TEST(Report, ThroughputCellFormats) {
    RunResult r;
    r.throughput.add(2'000'000.0);
    const std::string s = throughput_cell(r);
    EXPECT_NE(s.find("2.00M"), std::string::npos);
}

TEST(Runner, WorkloadNamesRoundTrip) {
    Workload w;
    EXPECT_TRUE(parse_workload("pairs", w));
    EXPECT_EQ(w, Workload::kPairs);
    EXPECT_TRUE(parse_workload("prodcons", w));
    EXPECT_EQ(w, Workload::kProducerConsumer);
    EXPECT_TRUE(parse_workload("mix", w));
    EXPECT_EQ(w, Workload::kMix5050);
    EXPECT_FALSE(parse_workload("bogus", w));
    EXPECT_STREQ(workload_name(Workload::kPairs), "pairs");
    EXPECT_STREQ(workload_name(Workload::kProducerConsumer), "prodcons");
    EXPECT_STREQ(workload_name(Workload::kMix5050), "mix");
}

TEST(Runner, ProducerConsumerConsumesEverything) {
    stats::reset_all();
    RunConfig cfg = quick_config();
    cfg.threads = 4;  // 2 producers + 2 consumers
    cfg.workload = Workload::kProducerConsumer;
    cfg.runs = 1;
    const auto r = run_pairs("lcrq", QueueOptions{}, cfg);
    // 2 producers x pairs enqueues, consumers dequeue exactly that many
    // successfully (plus possibly some EMPTY attempts).
    EXPECT_EQ(r.events[stats::Event::kEnqueue], 2u * cfg.pairs_per_thread);
    EXPECT_EQ(r.events[stats::Event::kDequeue] -
                  r.events[stats::Event::kDequeueEmpty],
              2u * cfg.pairs_per_thread);
    EXPECT_GT(r.mean_ops_per_sec(), 0.0);
}

TEST(Runner, ProducerConsumerDrainsPrefillToo) {
    stats::reset_all();
    RunConfig cfg = quick_config();
    cfg.threads = 2;
    cfg.workload = Workload::kProducerConsumer;
    cfg.runs = 1;
    cfg.prefill = 300;
    const auto r = run_pairs("lcrq", QueueOptions{}, cfg);
    EXPECT_EQ(r.events[stats::Event::kDequeue] -
                  r.events[stats::Event::kDequeueEmpty],
              cfg.pairs_per_thread + 300);
}

TEST(Runner, MixWorkloadBalances) {
    stats::reset_all();
    RunConfig cfg = quick_config();
    cfg.threads = 3;
    cfg.workload = Workload::kMix5050;
    cfg.runs = 1;
    const auto r = run_pairs("ms", QueueOptions{}, cfg);
    const auto enq = r.events[stats::Event::kEnqueue];
    const auto deq_ok =
        r.events[stats::Event::kDequeue] - r.events[stats::Event::kDequeueEmpty];
    // Successful dequeues never exceed enqueues; with a fair coin they
    // land in the same ballpark.
    EXPECT_LE(deq_ok, enq);
    EXPECT_GT(enq, 0u);
    const auto total = 2u * 3u * cfg.pairs_per_thread;
    EXPECT_EQ(r.total_ops, total);
}

TEST(Runner, FailedRunReportsNaNNotZero) {
    // ns_per_op of a run that produced no ops must read as "no data", never
    // as an infinitely fast 0 that would win every comparison.
    RunResult r;
    EXPECT_TRUE(std::isnan(r.ns_per_op(4)));
}

TEST(JsonReport, ResultEntryCarriesFullSchema) {
    stats::reset_all();
    RunConfig cfg = quick_config();
    cfg.latency_sample_every = 4;
    const RunResult r = run_pairs("lcrq", QueueOptions{}, cfg);
    const Json entry = result_json("lcrq", cfg, r);
    EXPECT_EQ(entry.at("queue").as_string(), "lcrq");
    EXPECT_EQ(entry.at("workload").as_string(), "pairs");
    EXPECT_EQ(entry.at("threads").as_int(), cfg.threads);
    EXPECT_GT(entry.at("throughput").at("mean_ops_per_sec").as_double(), 0.0);
    EXPECT_GE(entry.at("throughput").at("cv").as_double(), 0.0);
    EXPECT_GT(entry.at("ns_per_op").as_double(), 0.0);
    // LCRQ's paper invariant (2 atomic ops/op, plus any contention retries),
    // visible straight from the artifact.
    EXPECT_GE(entry.at("counters").at("derived").at("atomics_per_op").as_double(), 2.0);
    EXPECT_LT(entry.at("counters").at("derived").at("atomics_per_op").as_double(), 4.0);
    EXPECT_GT(entry.at("latency").at("samples").as_int(), 0);
    EXPECT_GE(entry.at("latency").at("p99_ns").as_double(),
              entry.at("latency").at("p50_ns").as_double());
}

TEST(JsonReport, HwBlockReportsPerOpRatesAndReasonedHoles) {
    // Two valid events, two refused with distinct causes: the hw block
    // must carry per-op rates for the former, nulls plus an "unavailable"
    // map naming each cause for the latter.
    HwCounts hw;
    hw.counts[static_cast<std::size_t>(HwEvent::kInstructions)] = 1'000;
    hw.valid[static_cast<std::size_t>(HwEvent::kInstructions)] = true;
    hw.counts[static_cast<std::size_t>(HwEvent::kDTLBMisses)] = 25;
    hw.valid[static_cast<std::size_t>(HwEvent::kDTLBMisses)] = true;
    hw.reason[static_cast<std::size_t>(HwEvent::kL1DMisses)] =
        "perf_event_open: Permission denied";
    hw.reason[static_cast<std::size_t>(HwEvent::kLLCMisses)] =
        "perf_event_open: No such file or directory";

    const Json block = hw_json(hw, /*total_ops=*/500);
    EXPECT_DOUBLE_EQ(block.at("instructions_per_op").as_double(), 2.0);
    EXPECT_DOUBLE_EQ(block.at("dtlb_miss_per_op").as_double(), 0.05);
    EXPECT_TRUE(block.at("l1d_miss_per_op").is_null());
    EXPECT_TRUE(block.at("llc_miss_per_op").is_null());
    const Json& unavailable = block.at("unavailable");
    EXPECT_EQ(unavailable.at("L1d_misses").as_string(),
              "perf_event_open: Permission denied");
    EXPECT_EQ(unavailable.at("LLC_misses").as_string(),
              "perf_event_open: No such file or directory");

    // Fully valid counts: no "unavailable" key at all.
    HwCounts all;
    for (std::size_t i = 0; i < kHwEventCount; ++i) {
        all.counts[i] = 100;
        all.valid[i] = true;
    }
    const Json clean = hw_json(all, /*total_ops=*/100);
    EXPECT_EQ(clean.find("unavailable"), nullptr);
    EXPECT_DOUBLE_EQ(clean.at("llc_miss_per_op").as_double(), 1.0);
}

TEST(JsonReport, NaNResultSerializesAsNull) {
    RunConfig cfg = quick_config();
    const RunResult failed;  // no runs recorded
    const Json entry = result_json("lcrq", cfg, failed);
    EXPECT_TRUE(entry.at("ns_per_op").is_null());
    EXPECT_TRUE(entry.at("throughput").at("mean_ops_per_sec").is_null());
}

TEST(JsonReport, DocumentRoundTripsThroughParser) {
    stats::reset_all();
    RunConfig cfg = quick_config();
    JsonReport report("test/round_trip");
    report.set_config(cfg);
    report.set_extra("note", Json("round trip"));
    const RunResult r = run_pairs("ms", QueueOptions{}, cfg);
    report.add_result(result_json("ms", cfg, r));
    const Json doc = report.document();

    const auto parsed = Json::parse(doc.dump(2));
    ASSERT_TRUE(parsed.has_value());
    // Field-by-field structural equality: parse(dump(x)) == x.
    EXPECT_TRUE(*parsed == doc);
    EXPECT_EQ(parsed->at("schema_version").as_int(), kBenchSchemaVersion);
    EXPECT_EQ(parsed->at("bench").as_string(), "test/round_trip");
    EXPECT_EQ(parsed->at("note").as_string(), "round trip");
    ASSERT_EQ(parsed->at("results").size(), 1u);
    const Json& entry = parsed->at("results").items()[0];
    EXPECT_EQ(entry.at("queue").as_string(), "ms");
    // Exact double round-trip, not approximate.
    EXPECT_EQ(entry.at("throughput").at("mean_ops_per_sec").as_double(),
              doc.at("results").items()[0].at("throughput").at("mean_ops_per_sec")
                  .as_double());
}

TEST(JsonReport, WriteProducesParsableFile) {
    JsonReport report("test/write");
    report.add_result(Json::object().set("queue", "lcrq").set("threads", 1));
    const std::string path = "./test_json_report_tmp.json";
    ASSERT_TRUE(report.write(path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    const auto parsed = Json::parse(content);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->at("bench").as_string(), "test/write");
    EXPECT_EQ(parsed->at("results").size(), 1u);
}

TEST(RingAutotune, BestOrderWinsAtTightTolerance) {
    const auto pick = pick_ring_order({{6, 100.0}, {8, 200.0}}, 1.0);
    EXPECT_EQ(pick.recommended_order, 8);
    EXPECT_EQ(pick.best_order, 8);
    EXPECT_EQ(pick.best_mean_ops_per_sec, 200.0);
}

TEST(RingAutotune, SmallerOrderWinsInsideTolerance) {
    const auto pick = pick_ring_order({{6, 196.0}, {8, 200.0}}, 5.0);
    EXPECT_EQ(pick.recommended_order, 6);
    EXPECT_EQ(pick.best_order, 8);
}

TEST(RingAutotune, TiesGoToTheSmallerOrder) {
    const auto pick = pick_ring_order({{8, 200.0}, {6, 200.0}}, 0.0);
    EXPECT_EQ(pick.recommended_order, 6);
    EXPECT_EQ(pick.best_order, 6);
}

TEST(RingAutotune, UnorderedInputPicksTheSmallestOrder) {
    // A sweep given as --autotune-orders 10,4,8: the first within-tolerance
    // point in sweep order (2^10) is not the smallest (2^4).
    const auto pick = pick_ring_order({{10, 100.0}, {4, 99.0}, {8, 98.0}}, 5.0);
    EXPECT_EQ(pick.recommended_order, 4);
    EXPECT_EQ(pick.best_order, 10);
}

}  // namespace
}  // namespace lcrq::bench
