// Executable linearizability claims (§4.1.2 / Theorem 2): record real
// concurrent histories against each registered queue and check them —
// large histories against the fast necessary conditions, small ones
// against the exact Wing–Gong checker (which also validates EMPTY).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "topology/topology.hpp"
#include "verify/history.hpp"
#include "verify/lin_check.hpp"

namespace lcrq {
namespace {

QueueOptions tiny_options() {
    QueueOptions opt;
    opt.ring_order = 2;  // tiny CRQ rings: maximum transition churn
    opt.bounded_order = 12;
    opt.clusters = 2;
    // Short handoff timeout: with the virtual-cluster rig below, the
    // hierarchical variants cross the wait/claim path constantly instead
    // of idling on the same-cluster fast path.
    opt.cluster_timeout_ns = 20'000;
    return opt;
}

// Virtual-cluster rig: every worker places itself on one of two
// clusters, so the hierarchical variants see real foreign-tag traffic.
// A no-op for every other queue (NoHierarchy never reads it).
void place(int id) { topo::set_current_cluster(id % 2); }

class QueueLinearizability : public ::testing::TestWithParam<std::string> {};

// Queues tagged per_lane_fifo promise per-producer FIFO, not total FIFO;
// check them against exactly that spec (resolving -ml<N> knob spellings
// through the registry, same as make_queue does).
bool per_lane(const std::string& name) {
    const QueueInfo* info = find_queue_info(name);
    return info != nullptr && info->per_lane_fifo;
}

verify::CheckResult fast_check_for(const std::string& name,
                                   const verify::History& h) {
    return per_lane(name) ? verify::check_queue_fast_per_lane(h)
                          : verify::check_queue_fast(h);
}

verify::CheckResult exact_check_for(const std::string& name,
                                    const verify::History& h) {
    return per_lane(name) ? verify::check_queue_exact_per_lane(h)
                          : verify::check_queue_exact(h);
}

// Big histories, fast checks: threads run the pairs workload while
// recording; every completed run must satisfy V1–V4.
TEST_P(QueueLinearizability, PairsHistoryPassesFastCheck) {
    auto q = make_queue(GetParam(), tiny_options());
    ASSERT_NE(q, nullptr);

    constexpr int kThreads = 4;
    constexpr std::uint64_t kPairs = 1'200;
    std::vector<verify::ThreadLog> logs;
    logs.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 2 * kPairs);

    test::run_threads(kThreads, [&](int id) {
        place(id);
        auto& log = logs[static_cast<std::size_t>(id)];
        for (std::uint64_t i = 0; i < kPairs; ++i) {
            log.enqueue(*q, test::tag(static_cast<unsigned>(id), i));
            log.dequeue(*q);
        }
    });

    const auto history = verify::merge(logs);
    const auto result = fast_check_for(GetParam(), history);
    EXPECT_TRUE(result.ok) << GetParam() << ": " << result.error;
}

// Producer/consumer split with a final drain, fast-checked.
TEST_P(QueueLinearizability, ProducerConsumerHistoryPassesFastCheck) {
    auto q = make_queue(GetParam(), tiny_options());
    ASSERT_NE(q, nullptr);

    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPer = 1'000;
    std::vector<verify::ThreadLog> logs;
    for (int t = 0; t < kProducers + kConsumers; ++t) logs.emplace_back(t, 2 * kPer);
    std::atomic<std::uint64_t> consumed{0};

    test::run_threads(kProducers + kConsumers, [&](int id) {
        place(id);
        auto& log = logs[static_cast<std::size_t>(id)];
        if (id < kProducers) {
            for (std::uint64_t i = 0; i < kPer; ++i) {
                log.enqueue(*q, test::tag(static_cast<unsigned>(id), i));
            }
        } else {
            while (consumed.load(std::memory_order_acquire) < kProducers * kPer) {
                if (log.dequeue(*q)) consumed.fetch_add(1, std::memory_order_acq_rel);
            }
        }
    });

    const auto history = verify::merge(logs);
    const auto result = fast_check_for(GetParam(), history);
    EXPECT_TRUE(result.ok) << GetParam() << ": " << result.error;
}

// Small histories, exact checks, many rounds: 3 threads x 4 ops stays
// well inside the exact checker's budget while preemption on this host
// generates genuinely different interleavings each round.
TEST_P(QueueLinearizability, SmallHistoriesPassExactCheck) {
    for (int round = 0; round < 25; ++round) {
        auto q = make_queue(GetParam(), tiny_options());
        ASSERT_NE(q, nullptr);

        constexpr int kThreads = 3;
        std::vector<verify::ThreadLog> logs;
        for (int t = 0; t < kThreads; ++t) logs.emplace_back(t, 8);

        test::run_threads(kThreads, [&](int id) {
            place(id);
            auto& log = logs[static_cast<std::size_t>(id)];
            const auto u = static_cast<unsigned>(id);
            // Mixed pattern including EMPTY-prone dequeues.
            log.dequeue(*q);
            log.enqueue(*q, test::tag(u, 0));
            log.enqueue(*q, test::tag(u, 1));
            log.dequeue(*q);
        });

        const auto history = verify::merge(logs);
        const auto result = exact_check_for(GetParam(), history);
        ASSERT_TRUE(result.ok) << GetParam() << " round " << round << ": "
                               << result.error;
    }
}

std::vector<std::string> checked_queues() {
    std::vector<std::string> names;
    for (const auto& info : queue_catalog()) names.push_back(info.name);
    // Knob spellings ride along so the -ml<N> / -h<timeout_us>
    // resolution paths are exercised under real concurrency, not just in
    // the registry test (-h50: a 50 us claim timeout, short enough that
    // the rig's two clusters actually trade segments).
    names.push_back("lscq-ml4");
    names.push_back("lcrq-h50");
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueLinearizability,
                         ::testing::ValuesIn(checked_queues()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string n = info.param;
                             for (char& c : n) {
                                 if (c == '-' || c == '+') c = '_';
                             }
                             return n;
                         });

// Deliberately broken queues must be caught — guards against the checker
// rotting into a rubber stamp.
TEST(QueueLinearizabilityNegative, LossyQueueIsRejected) {
    auto inner = make_queue("mutex");
    ASSERT_NE(inner, nullptr);
    verify::ThreadLog log(0);
    int n = 0;
    auto lossy_enqueue = [&](value_t v) {
        const std::uint64_t t0 = rdtsc_begin();
        if (++n % 3 != 0) inner->enqueue(v);  // drop every 3rd value
        const std::uint64_t t1 = rdtsc_end();
        log.ops_mutable().push_back(
            {verify::Operation::Kind::kEnqueue, 0, v, t0, t1});
    };
    for (std::uint64_t i = 0; i < 9; ++i) lossy_enqueue(test::tag(0, i));
    while (log.dequeue(*inner)) {
    }
    const auto result = verify::check_queue_fast(log.ops());
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("V4"), std::string::npos) << result.error;
}

TEST(QueueLinearizabilityNegative, DuplicatingQueueIsRejected) {
    verify::History h;
    h.push_back({verify::Operation::Kind::kEnqueue, 0, 5, 0, 1});
    h.push_back({verify::Operation::Kind::kDequeue, 0, 5, 2, 3});
    h.push_back({verify::Operation::Kind::kDequeue, 0, 5, 4, 5});
    EXPECT_FALSE(verify::check_queue_fast(h).ok);
    EXPECT_FALSE(verify::check_queue_exact(h).ok);
}

}  // namespace
}  // namespace lcrq
