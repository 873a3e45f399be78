// Counter-parity golden test for the list layer (LCRQ, LSCQ, LwCQ).
//
// Every list alias runs one fixed single-thread script over tiny rings
// (order 2, pool cap 2): fill across several segments, drain, refill,
// bulk where the type has it, then close and drain.  The exact delta of
// the software atomic counters is pinned per alias.  Single-threaded, the
// ring and list protocols are deterministic, so any change in how many
// F&As, CASes, CAS2s, closes, appends or segment allocations the list
// layer issues per operation shows up here as a changed figure — the
// "same atomics per op" evidence for refactors of the layer.
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "arch/counters.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"

namespace lcrq {
namespace {

using stats::Event;

constexpr std::array<Event, 11> kPinned = {
    Event::kFaa,         Event::kCas,         Event::kCasFailure, Event::kCas2,
    Event::kFetchOr,     Event::kCrqClose,    Event::kCrqAppend,  Event::kSegmentAlloc,
    Event::kSegmentReuse, Event::kBulkFaa,    Event::kBulkTickets,
};
using Counts = std::array<std::uint64_t, kPinned.size()>;

template <class Q>
void expect_drain(Q& q, value_t from, value_t to) {
    for (value_t v = from; v <= to; ++v) ASSERT_EQ(q.dequeue().value_or(0), v);
}

// The script itself; FIFO order is checked throughout so a refactor that
// kept the counts but lost an item still fails.
template <class Q>
void script(Q& q) {
    for (value_t v = 1; v <= 13; ++v) q.enqueue(v);
    expect_drain(q, 1, 13);
    EXPECT_FALSE(q.dequeue().has_value());

    // Refill: the drained segments come back from the pool.
    for (value_t v = 14; v <= 22; ++v) q.enqueue(v);
    value_t next_out = 14;
    if constexpr (BulkConcurrentQueue<Q>) {
        std::vector<value_t> in(10);
        std::iota(in.begin(), in.end(), value_t{23});
        q.enqueue_bulk(in);
        value_t out[32];
        ASSERT_EQ(q.dequeue_bulk(out, 5), 5u);
        for (std::size_t i = 0; i < 5; ++i) ASSERT_EQ(out[i], next_out++);
        ASSERT_EQ(q.dequeue_bulk(out, 32), 14u);
        for (std::size_t i = 0; i < 14; ++i) ASSERT_EQ(out[i], next_out++);
        EXPECT_EQ(q.dequeue_bulk(out, 32), 0u);
        for (value_t v = 33; v <= 35; ++v) q.enqueue(v);
    }

    q.close();
    EXPECT_FALSE(q.try_enqueue(99));
    while (auto v = q.dequeue()) ASSERT_EQ(*v, next_out++);
}

template <class Q>
Counts run_script() {
    QueueOptions opt;
    opt.ring_order = 2;  // R = 4: a handful of items spans several segments
    opt.segment_pool_cap = 2;
    const stats::Snapshot before = stats::global_snapshot();
    {
        Q q(opt);
        script(q);
    }
    const stats::Snapshot d = stats::global_snapshot() - before;
    Counts got{};
    for (std::size_t i = 0; i < kPinned.size(); ++i) got[i] = d[kPinned[i]];
    return got;
}

struct Golden {
    const char* name;
    Counts (*run)();
    Counts want;
};

std::string row(const Counts& c) {
    std::string s = "{";
    for (std::size_t i = 0; i < c.size(); ++i) {
        s += std::to_string(c[i]) + (i + 1 < c.size() ? ", " : "}");
    }
    return s;
}

// Columns follow kPinned: faa, cas, cas_failure, cas2, fetch_or,
// crq_close, crq_append, segment_alloc, segment_reuse, bulk_faa,
// bulk_tickets.
const Golden kGolden[] = {
    {"LcrqQueue", &run_script<LcrqQueue>,
     {66, 29, 0, 81, 0, 8, 7, 6, 2, 17, 57}},
    {"LcrqCasQueue", &run_script<LcrqCasQueue>,
     {0, 95, 0, 81, 0, 8, 7, 6, 2, 17, 57}},
    {"LcrqHQueue", &run_script<LcrqHQueue>,
     {66, 29, 0, 81, 0, 8, 7, 6, 2, 17, 57}},
    {"LcrqCompactQueue", &run_script<LcrqCompactQueue>,
     {66, 29, 0, 81, 0, 8, 7, 6, 2, 17, 57}},
    {"LcrqNoReclaimQueue", &run_script<LcrqNoReclaimQueue>,
     {66, 29, 0, 81, 0, 8, 7, 8, 0, 17, 57}},
    {"LcrqNoPoolQueue", &run_script<LcrqNoPoolQueue>,
     {66, 29, 0, 81, 0, 8, 7, 8, 0, 17, 57}},
    {"LscqQueue", &run_script<LscqQueue>,
     {113, 131, 0, 0, 63, 8, 7, 6, 2, 28, 91}},
    {"LscqCasQueue", &run_script<LscqCasQueue>,
     {0, 244, 0, 0, 63, 8, 7, 6, 2, 28, 91}},
    {"LscqHQueue", &run_script<LscqHQueue>,
     {113, 131, 0, 0, 63, 8, 7, 6, 2, 28, 91}},
    {"LscqNoReclaimQueue", &run_script<LscqNoReclaimQueue>,
     {113, 131, 0, 0, 63, 8, 7, 8, 0, 28, 91}},
    {"LscqNoPoolQueue", &run_script<LscqNoPoolQueue>,
     {113, 131, 0, 0, 63, 8, 7, 8, 0, 28, 91}},
    {"LwcqQueue", &run_script<LwcqQueue>,
     {95, 116, 0, 0, 0, 6, 5, 4, 2, 0, 0}},
    {"LwcqNoReclaimQueue", &run_script<LwcqNoReclaimQueue>,
     {95, 116, 0, 0, 0, 6, 5, 6, 0, 0, 0}},
    {"LwcqNoPoolQueue", &run_script<LwcqNoPoolQueue>,
     {95, 116, 0, 0, 0, 6, 5, 6, 0, 0, 0}},
};

class LinkedRingParity : public ::testing::TestWithParam<Golden> {};

TEST_P(LinkedRingParity, ScriptIssuesPinnedAtomics) {
    const Golden& g = GetParam();
    const Counts got = g.run();
    EXPECT_EQ(got, g.want) << g.name << " now issues " << row(got) << ", pinned "
                           << row(g.want);
}

INSTANTIATE_TEST_SUITE_P(ListAliases, LinkedRingParity, ::testing::ValuesIn(kGolden),
                         [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace lcrq
