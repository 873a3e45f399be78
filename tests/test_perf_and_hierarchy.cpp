// perf_event_open wrapper (graceful degradation is the contract) and the
// cluster-handoff hierarchy policy (§4.1.1) with its counter taxonomy and
// virtual-cluster batching behavior.  The exhaustive interleaving model of
// the enter() protocol is checked in test_model_explore.cpp.
#include <gtest/gtest.h>

#include <atomic>

#include "arch/counters.hpp"
#include "queues/crq.hpp"
#include "queues/hierarchy.hpp"
#include "queues/lscq.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "util/perf_events.hpp"

namespace lcrq {
namespace {

TEST(PerfCounters, ConstructsEverywhere) {
    PerfCounters pc;
    if (!pc.any_available()) {
        EXPECT_FALSE(pc.unavailable_reason().empty());
    }
    SUCCEED();
}

TEST(PerfCounters, StartStopIsSafeWithoutSupport) {
    PerfCounters pc;
    pc.start();
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 100'000; ++i) sink = sink + static_cast<std::uint64_t>(i);
    const HwCounts counts = pc.stop();
    if (pc.any_available()) {
        const auto instr = counts.get(HwEvent::kInstructions);
        if (instr.has_value()) {
            EXPECT_GT(*instr, 100'000u) << "at least one instruction per loop";
        }
    } else {
        EXPECT_FALSE(counts.get(HwEvent::kInstructions).has_value());
    }
}

TEST(PerfCounters, EventNames) {
    EXPECT_STREQ(hw_event_name(HwEvent::kInstructions), "instructions");
    EXPECT_STREQ(hw_event_name(HwEvent::kL1DMisses), "L1d_misses");
    EXPECT_STREQ(hw_event_name(HwEvent::kLLCMisses), "LLC_misses");
    EXPECT_STREQ(hw_event_name(HwEvent::kDTLBMisses), "dTLB_misses");
}

// Partial denial is the norm in containers: generic events open while
// cache/TLB events are refused.  Every refused event must carry its own
// reason — a single shared string can misattribute (or hide) the cause
// for the other n/a cells.
TEST(PerfCounters, EveryUnavailableEventCarriesItsOwnReason) {
    PerfCounters pc;
    pc.start();
    const HwCounts counts = pc.stop();
    for (std::size_t i = 0; i < kHwEventCount; ++i) {
        const auto e = static_cast<HwEvent>(i);
        if (pc.available(e)) {
            EXPECT_TRUE(pc.reason(e).empty()) << hw_event_name(e);
            // An opened event either reads a value or explains why not
            // (a failed read is still a reasoned hole, never a silent 0).
            EXPECT_TRUE(counts.valid[i] || !counts.reason[i].empty())
                << hw_event_name(e);
        } else {
            EXPECT_FALSE(pc.reason(e).empty())
                << hw_event_name(e) << " refused without a recorded cause";
            EXPECT_FALSE(counts.valid[i]) << hw_event_name(e);
            // The stopped snapshot must carry the cause alongside the
            // hole so downstream aggregation can annotate the cell.
            EXPECT_EQ(counts.reason[i], pc.reason(e)) << hw_event_name(e);
        }
    }
}

TEST(Hierarchy, NoHierarchyIsFree) {
    Crq<> crq;
    NoHierarchy h;
    h.enter(crq);  // must compile to (almost) nothing and not touch state
    EXPECT_EQ(crq.cluster.load(), 0);
}

TEST(Hierarchy, SameClusterEntersImmediately) {
    Crq<> crq;
    topo::set_current_cluster(0);
    ClusterHierarchy h(1'000'000);  // long timeout: would hang if waited
    const auto t0 = now_ns();
    h.enter(crq);
    EXPECT_LT(now_ns() - t0, 100'000'000u);
    EXPECT_EQ(crq.cluster.load(), 0);
}

TEST(Hierarchy, ForeignClusterClaimsAfterTimeout) {
    Crq<> crq;
    topo::set_current_cluster(1);
    ClusterHierarchy h(50'000);  // 50 µs
    h.enter(crq);
    EXPECT_EQ(crq.cluster.load(), 1) << "claim must follow the timeout";
    topo::set_current_cluster(0);
}

TEST(Hierarchy, WaiterProceedsWhenClusterHandsOver) {
    Crq<> crq;
    crq.cluster.store(1);
    std::atomic<bool> entered{false};
    test::run_threads(2, [&](int id) {
        if (id == 0) {
            topo::set_current_cluster(0);
            ClusterHierarchy h(1'000'000'000);  // 1 s: only handover saves us
            h.enter(crq);
            entered.store(true);
        } else {
            topo::set_current_cluster(1);
            // Simulate the owning cluster finishing its batch.
            spin_for_ns(2'000'000);
            crq.cluster.store(0);
        }
        topo::set_current_cluster(0);
    });
    EXPECT_TRUE(entered.load());
}

TEST(Hierarchy, SuffixNames) {
    EXPECT_STREQ(NoHierarchy::suffix(), "");
    // Canonical spelling is "-h" (the knob grammar: lcrq-h, lcrq-h200);
    // the registry still resolves the paper's "+h" as an alias.
    EXPECT_STREQ(ClusterHierarchy::suffix(), "-h");
}

// The counter taxonomy the handoff-rate column is built on: every enter
// bumps kClusterEnter; only a foreign-tag enter bumps kClusterWait; only
// a timeout expiry bumps kClusterHandoff.  A same-cluster enter and a
// handover-received enter must both leave the handoff count alone —
// otherwise cluster_handoff_rate can't distinguish batching from thrash.
TEST(Hierarchy, CountersSeparateWaitsFromClaims) {
    stats::reset_all();
    Crq<> crq;  // tag starts at cluster 0
    topo::set_current_cluster(0);
    ClusterHierarchy h(10'000);

    h.enter(crq);  // own cluster: fast path
    stats::Snapshot s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kClusterEnter], 1u);
    EXPECT_EQ(s[stats::Event::kClusterWait], 0u);
    EXPECT_EQ(s[stats::Event::kClusterHandoff], 0u);

    topo::set_current_cluster(1);
    h.enter(crq);  // foreign: waits out the timeout, then claims
    s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kClusterEnter], 2u);
    EXPECT_EQ(s[stats::Event::kClusterWait], 1u);
    EXPECT_EQ(s[stats::Event::kClusterHandoff], 1u);
    EXPECT_EQ(crq.cluster.load(), 1);

    h.enter(crq);  // tag now ours again: fast path, no new wait/claim
    s = stats::global_snapshot();
    EXPECT_EQ(s[stats::Event::kClusterEnter], 3u);
    EXPECT_EQ(s[stats::Event::kClusterWait], 1u);
    EXPECT_EQ(s[stats::Event::kClusterHandoff], 1u);
    topo::set_current_cluster(0);
}

// -h0 is a valid knob: a zero timeout means "claim a foreign segment
// immediately" (the no-batching ablation), not "wait forever".
TEST(Hierarchy, ZeroTimeoutClaimsImmediately) {
    Crq<> crq;
    crq.cluster.store(5);
    topo::set_current_cluster(2);
    ClusterHierarchy h(0);
    const auto t0 = now_ns();
    h.enter(crq);
    EXPECT_LT(now_ns() - t0, 100'000'000u);
    EXPECT_EQ(crq.cluster.load(), 2);
    topo::set_current_cluster(0);
}

// The cohort-lock ablation (proceed_on_timeout = false) still has one
// legitimate exit: an actual handover.  Only the timeout escape is
// removed — the injection suite's blocking probe covers the case where
// no handover ever comes.
TEST(Hierarchy, DisabledTimeoutProceedStillTakesHandover) {
    Crq<> crq;
    crq.cluster.store(1);
    std::atomic<bool> entered{false};
    test::run_threads(2, [&](int id) {
        if (id == 0) {
            topo::set_current_cluster(0);
            ClusterHierarchy h(1'000, /*proceed_on_timeout=*/false);
            h.enter(crq);  // timeout expires over and over; only the
            entered.store(true);  // handover below can release it
        } else {
            topo::set_current_cluster(1);
            spin_for_ns(2'000'000);
            crq.cluster.store(0);
        }
        topo::set_current_cluster(0);
    });
    EXPECT_TRUE(entered.load());
}

// The point of the policy (§4.1.1): under a generous timeout, segment
// ownership changes rarely — each cluster amortizes one claim over a
// long run of fast-path enters.  Two virtual clusters on this host, a
// 300 us timeout, thousands of ops: the claim count must be dwarfed by
// the enter count, while still being nonzero (cluster 1 has to take the
// tag from the initial owner at least once).
TEST(Hierarchy, HandoffsBatchUnderLongTimeout) {
    stats::reset_all();
    QueueOptions opt;
    opt.cluster_timeout_ns = 300'000;
    LscqHQueue q(opt);
    constexpr std::uint64_t kPairs = 2'000;
    test::run_threads(2, [&](int id) {
        topo::set_current_cluster(id % 2);
        for (std::uint64_t i = 0; i < kPairs; ++i) {
            q.enqueue(test::tag(static_cast<unsigned>(id), i));
            (void)q.dequeue();
        }
    });
    const stats::Snapshot s = stats::global_snapshot();
    EXPECT_GE(s[stats::Event::kClusterEnter], 4 * kPairs)
        << "every enqueue and dequeue passes through enter()";
    EXPECT_GE(s[stats::Event::kClusterHandoff], 1u);
    EXPECT_LT(s[stats::Event::kClusterHandoff] * 8, s[stats::Event::kClusterEnter])
        << "handoffs must batch: a waiter burns its timeout while the "
           "owning cluster streams fast-path enters";
}

}  // namespace
}  // namespace lcrq
