// History recorder units and checker meta-properties.
//
// The key meta-property: check_queue_fast implements *necessary*
// conditions for linearizability, so on any history the exact checker
// accepts, the fast checker must accept too (exact ⇒ fast).  The fuzz
// below generates random histories — valid ones by simulating a real
// interleaving, invalid ones by mutation — and asserts the implication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "arch/backoff.hpp"
#include "queues/mutex_queue.hpp"
#include "test_support.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"
#include "verify/history.hpp"
#include "verify/lin_check.hpp"

namespace lcrq::verify {
namespace {

TEST(ThreadLog, RecordsTimestampsInOrder) {
    MutexQueue q;
    ThreadLog log(3);
    log.enqueue(q, 11);
    log.dequeue(q);
    log.dequeue(q);  // EMPTY
    const History& h = log.ops();
    ASSERT_EQ(h.size(), 3u);
    EXPECT_EQ(h[0].kind, Operation::Kind::kEnqueue);
    EXPECT_EQ(h[0].value, 11u);
    EXPECT_EQ(h[0].thread, 3);
    EXPECT_LE(h[0].invoke, h[0].response);
    EXPECT_EQ(h[1].kind, Operation::Kind::kDequeue);
    EXPECT_EQ(h[1].value, 11u);
    EXPECT_EQ(h[2].value, kEmpty);
    // Sequential ops do not overlap.
    EXPECT_LE(h[0].response, h[1].invoke);
    EXPECT_LE(h[1].response, h[2].invoke);
}

// The recorder's causality premise, checked on the clock itself: when one
// thread's operation responds and hands off to a peer, which only then
// invokes, the response stamp must not read later than the peer's invoke
// stamp — even though the two stamps come from different CPUs.  Two
// threads ping-pong a turn counter; each stamps rdtsc_end before passing
// the turn and the peer stamps rdtsc_begin after receiving it.
TEST(ThreadLog, FencedStampsNeverInvertAcrossAHandoff) {
    constexpr std::uint64_t kRoundTrips = 100'000;
    std::atomic<std::uint64_t> turn{0};  // player (turn % 2) moves next
    std::atomic<std::uint64_t> handed_over{0};
    std::atomic<std::uint64_t> inversions{0};
    auto player = [&](std::uint64_t me) {
        SpinWait waiter;
        for (std::uint64_t t = me; t < 2 * kRoundTrips; t += 2) {
            while (turn.load(std::memory_order_acquire) != t) waiter.spin();
            waiter.reset();
            const std::uint64_t invoke = rdtsc_begin();
            if (invoke < handed_over.load(std::memory_order_relaxed)) {
                inversions.fetch_add(1, std::memory_order_relaxed);
            }
            handed_over.store(rdtsc_end(), std::memory_order_relaxed);
            turn.store(t + 1, std::memory_order_release);
        }
    };
    std::thread a(player, 0);
    std::thread b(player, 1);
    a.join();
    b.join();
    EXPECT_EQ(turn.load(), 2 * kRoundTrips);
    EXPECT_EQ(inversions.load(), 0u)
        << "a response stamp read later than the peer's following invoke";
}

TEST(ThreadLog, DequeueReturnsPresence) {
    MutexQueue q;
    ThreadLog log(0);
    EXPECT_FALSE(log.dequeue(q));
    log.enqueue(q, 5);
    EXPECT_TRUE(log.dequeue(q));
}

TEST(ThreadLog, MergeConcatenatesAndClears) {
    MutexQueue q;
    std::vector<ThreadLog> logs;
    logs.emplace_back(0);
    logs.emplace_back(1);
    logs[0].enqueue(q, 1);
    logs[1].enqueue(q, 2);
    logs[1].dequeue(q);
    const History all = merge(logs);
    EXPECT_EQ(all.size(), 3u);
    EXPECT_TRUE(logs[0].ops().empty());
    EXPECT_TRUE(logs[1].ops().empty());
}

// --- checker meta-property fuzz ------------------------------------------

// Build a random *valid* sequential history by simulating a queue, then
// optionally scramble timestamps into overlapping intervals (still valid:
// widening intervals only adds legal linearizations).
History random_valid_history(Xoshiro256& rng, std::size_t ops) {
    History h;
    std::deque<value_t> model;
    value_t next = 1;
    std::uint64_t t = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        const int thread = static_cast<int>(rng.bounded(3));
        if (rng.bounded(2) == 0) {
            h.push_back({Operation::Kind::kEnqueue, thread, next, t, t + 1});
            model.push_back(next);
            ++next;
        } else if (model.empty()) {
            h.push_back({Operation::Kind::kDequeue, thread, kEmpty, t, t + 1});
        } else {
            h.push_back({Operation::Kind::kDequeue, thread, model.front(), t, t + 1});
            model.pop_front();
        }
        t += 2;
    }
    // Widen some intervals (keeps validity).
    for (auto& op : h) {
        if (rng.bounded(3) == 0) {
            const std::uint64_t stretch = rng.bounded(6);
            op.invoke = op.invoke > stretch ? op.invoke - stretch : 0;
            op.response += rng.bounded(6);
        }
    }
    return h;
}

TEST(CheckerFuzz, ValidHistoriesPassBothCheckers) {
    Xoshiro256 rng(2024);
    for (int round = 0; round < 200; ++round) {
        const History h = random_valid_history(rng, 1 + rng.bounded(16));
        const auto exact = check_queue_exact(h);
        const auto fast = check_queue_fast(h);
        ASSERT_TRUE(exact.ok) << "round " << round << ": " << exact.error;
        ASSERT_TRUE(fast.ok) << "round " << round << ": " << fast.error;
    }
}

TEST(CheckerFuzz, ExactAcceptImpliesFastAccept) {
    // Mutated (possibly invalid) histories: whenever the exact checker
    // accepts, the fast necessary conditions must too.
    Xoshiro256 rng(777);
    int exact_ok = 0, exact_bad = 0;
    for (int round = 0; round < 300; ++round) {
        History h = random_valid_history(rng, 2 + rng.bounded(10));
        // Mutate: swap two dequeue values, drop an op, or duplicate one.
        const auto m = rng.bounded(3);
        if (m == 0 && h.size() >= 2) {
            auto& a = h[rng.bounded(h.size())];
            auto& b = h[rng.bounded(h.size())];
            std::swap(a.value, b.value);
        } else if (m == 1) {
            h.erase(h.begin() + static_cast<std::ptrdiff_t>(rng.bounded(h.size())));
        } else {
            h.push_back(h[rng.bounded(h.size())]);
            h.back().invoke = h.back().response + 1;
            h.back().response = h.back().invoke + 1;
        }
        // Both checkers assume distinct enqueued values; skip mutants that
        // break that precondition (the implication only holds within it).
        std::vector<value_t> enq_values;
        for (const auto& op : h) {
            if (op.kind == Operation::Kind::kEnqueue) enq_values.push_back(op.value);
        }
        std::sort(enq_values.begin(), enq_values.end());
        if (std::adjacent_find(enq_values.begin(), enq_values.end()) !=
            enq_values.end()) {
            continue;
        }

        const bool exact = check_queue_exact(h).ok;
        const bool fast = check_queue_fast(h).ok;
        if (exact) {
            ++exact_ok;
            EXPECT_TRUE(fast) << "fast rejected a linearizable history, round "
                              << round;
        } else {
            ++exact_bad;
        }
    }
    // The mutation mix must actually produce both outcomes to mean much.
    EXPECT_GT(exact_ok, 10);
    EXPECT_GT(exact_bad, 10);
}

}  // namespace
}  // namespace lcrq::verify
