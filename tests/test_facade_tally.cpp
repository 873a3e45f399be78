// The bounded facade's admission tally and its waiter-gated signals, over
// CAS2-free bases (LSCQ, typed and behind the registry's AnyQueue) so the
// binary runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/counters.hpp"
#include "queues/async_queue.hpp"
#include "queues/blocking_queue.hpp"
#include "queues/lscq.hpp"
#include "registry/queue_registry.hpp"
#include "test_support.hpp"
#include "util/timing.hpp"
#include "util/xorshift.hpp"

namespace lcrq {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kOpenLoopItems = 100'000;
constexpr int kWatcherRounds = 200;
#else
constexpr std::uint64_t kOpenLoopItems = 1'000'000;
constexpr int kWatcherRounds = 2'000;
#endif

template <typename Base>
class FacadeTally : public ::testing::Test {
  public:
    static BlockingQueue<Base> make(std::size_t capacity) {
        if constexpr (std::is_same_v<Base, LscqQueue>) {
            return BlockingQueue<Base>(QueueOptions{}, capacity);
        } else {
            return BlockingQueue<Base>(Base(make_queue("lscq")), capacity);
        }
    }
};
using TallyBases = ::testing::Types<LscqQueue, UniquePtrBase<AnyQueue>>;
TYPED_TEST_SUITE(FacadeTally, TallyBases);

TYPED_TEST(FacadeTally, OpenLoopShapeShedsNothingOnANearEmptyQueue) {
    // The dispatch shape: one thread only admits, two only dequeue, so the
    // producer's slot only grows and the consumers' slots only shrink, and
    // the shared fold word goes below zero whenever consumers fold first.
    // The producer keeps at most 7/8 of capacity outstanding — above the
    // capacity/2 slack of the fast bound, so the slot sum must decide — and
    // any shed is a tally that read "full" on a queue below capacity.
    for (const std::size_t capacity : {std::size_t{1024}, std::size_t{65536}}) {
        auto q = TestFixture::make(capacity);
        const std::uint64_t window = capacity - capacity / 8;
        std::atomic<std::uint64_t> consumed{0}, refused{0}, sum{0};
        const stats::Snapshot before = stats::global_snapshot();
        test::run_threads(3, [&](int id) {
            if (id == 0) {
                for (std::uint64_t i = 0; i < kOpenLoopItems; ++i) {
                    while (i - consumed.load(std::memory_order_acquire) -
                               refused.load(std::memory_order_relaxed) >=
                           window) {
                        std::this_thread::yield();
                    }
                    if (!q.try_enqueue(i + 1)) refused.fetch_add(1, std::memory_order_release);
                }
                return;
            }
            while (consumed.load(std::memory_order_acquire) +
                       refused.load(std::memory_order_acquire) <
                   kOpenLoopItems) {
                if (const WaitResult r = q.wait_dequeue_for(1'000'000); r.ok()) {
                    sum.fetch_add(r.value, std::memory_order_relaxed);
                    consumed.fetch_add(1, std::memory_order_acq_rel);
                }
            }
        });
        const stats::Snapshot delta = stats::global_snapshot() - before;
        EXPECT_EQ(refused.load(), 0u) << "capacity " << capacity;
        EXPECT_EQ(delta[stats::Event::kShed], 0u) << "capacity " << capacity;
        EXPECT_EQ(consumed.load(), kOpenLoopItems) << "capacity " << capacity;
        EXPECT_EQ(sum.load(), kOpenLoopItems * (kOpenLoopItems + 1) / 2)
            << "capacity " << capacity;
        EXPECT_EQ(q.approx_size(), 0u) << "capacity " << capacity;
        EXPECT_EQ(q.tally(), 0) << "capacity " << capacity;
    }
}

TYPED_TEST(FacadeTally, WatermarkAdmitsCapacityPlusAtMostTheInFlightAdmitters) {
    // Four producers, no consumer: nothing is refused below capacity, and
    // concurrent admitters overshoot by at most one each.  1 << 17 folds
    // every 64 operations (B = 64), so its refusals come from the slot sum.
    constexpr int kProducers = 4;
    for (const std::size_t capacity :
         {std::size_t{1}, std::size_t{64}, std::size_t{1024}, std::size_t{1} << 17}) {
        auto q = TestFixture::make(capacity);
        const std::uint64_t attempts = capacity / 2 + 64;  // per producer
        std::atomic<std::uint64_t> accepted{0};
        test::run_threads(kProducers, [&](int id) {
            for (std::uint64_t i = 0; i < attempts; ++i) {
                if (q.try_enqueue(test::tag(static_cast<unsigned>(id), i))) {
                    accepted.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
        EXPECT_GE(accepted.load(), capacity);
        EXPECT_LE(accepted.load(), capacity + kProducers);
        EXPECT_EQ(q.tally(), static_cast<std::int64_t>(accepted.load()));
        EXPECT_FALSE(q.try_enqueue(1)) << "capacity " << capacity << " stays full";
    }
}

// Parks on the items epoch whenever the queue is empty; exits on close.
DetachedTask watcher(AsyncQueue<LscqQueue>& q, std::atomic<std::uint64_t>& delivered,
                     std::atomic<std::uint64_t>& sum, std::atomic<int>& live) {
    while (auto v = co_await q.dequeue()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        delivered.fetch_add(1, std::memory_order_acq_rel);
    }
    live.fetch_sub(1, std::memory_order_acq_rel);
}

// Coroutine frames rely on the epoch moving, and it moves only while a
// watcher is announced.  Each round both producer threads publish a small
// burst at jittered instants, so one producer's publish can race a frame
// that the other producer's wake resumed and that is parking again; then
// both wait for the round's delivery.  A lost wake strands an item with
// every frame parked, and the round times out.  A single frame has no
// sibling to pick up a stranded item, so it is the sharpest case.
void run_watchers(int frames) {
    AsyncQueue<LscqQueue> q(QueueOptions{});
    constexpr std::uint64_t kRoundDeadlineNs = 5'000'000'000;
    std::atomic<std::uint64_t> delivered{0}, sum{0}, want_sum{0};
    std::atomic<int> live{frames};
    std::atomic<bool> stranded{false};
    for (int i = 0; i < frames; ++i) watcher(q, delivered, sum, live);

    std::barrier round_start(2);
    test::run_threads(2, [&](int id) {
        std::uint64_t expected = 0;  // both producers' items up to this round
        Xoshiro256 jitter(static_cast<std::uint64_t>(id) + 1);
        for (int r = 0; r < kWatcherRounds; ++r) {
            round_start.arrive_and_wait();
            if (stranded.load(std::memory_order_acquire)) return;
            const auto burst = [r](int p) { return 1 + static_cast<std::uint64_t>(r + p) % 3; };
            spin_for_ns(jitter() % 2'000);
            for (std::uint64_t k = 0; k < burst(id); ++k) {
                const value_t v = test::tag(static_cast<unsigned>(id), expected + k);
                want_sum.fetch_add(v, std::memory_order_relaxed);
                ASSERT_TRUE(q.enqueue_sync(v));
            }
            expected += burst(0) + burst(1);
            const std::uint64_t deadline = now_ns() + kRoundDeadlineNs;
            while (delivered.load(std::memory_order_acquire) < expected) {
                if (now_ns() > deadline) {
                    stranded.store(true, std::memory_order_release);
                    ADD_FAILURE() << frames << " frames, round " << r << ": "
                                  << expected - delivered.load() << " items stranded";
                    round_start.arrive_and_drop();
                    return;
                }
                std::this_thread::yield();
            }
        }
    });
    q.close();
    const std::uint64_t deadline = now_ns() + kRoundDeadlineNs;
    while (live.load(std::memory_order_acquire) != 0 && now_ns() < deadline) {
        std::this_thread::yield();
    }
    EXPECT_EQ(live.load(), 0) << "close must resume every parked frame";
    EXPECT_EQ(sum.load(), want_sum.load());
    EXPECT_EQ(q.blocking().approx_size(), 0u);
}

TEST(FacadeWatchers, ParkedCoroutineConsumersGetEveryBurstInBoundedTime) {
    run_watchers(1);
    run_watchers(3);
}

// Exhaustive model of the gated wake: every interleaving of one waiter
// (snapshot the epoch, announce, re-check for the item, sleep if the epoch
// is unchanged) and one signaler (publish the item, check for waiters,
// bump the epoch if any, wake a sleeper).  Each step is atomic and steps
// are sequentially consistent, which the facade buys with its two seq_cst
// fences.  This SC model does not cover x86-TSO store->load reordering — a
// fence deleted from the code would not show here; that needs the store
// buffer model of ROADMAP direction 1.
struct WakeModel {
    bool check_before_publish = false;  // the broken signaler order
    // shared state
    bool item = false;
    std::uint32_t epoch = 0;
    int waiters = 0;
    // waiter locals
    std::uint32_t observed = 0;
    bool asleep = false;
    bool done = false;  // found the item, or saw the epoch move
    // signaler locals
    bool saw_waiter = false;

    void waiter_step(int pc) {
        if (done) return;
        switch (pc) {
            case 0: observed = epoch; break;
            case 1: ++waiters; break;
            case 2: done = item; break;
            default:
                if (epoch == observed) asleep = true;  // futex: compare, then sleep
                else done = true;
        }
    }
    void signaler_step(int pc) {
        const int publish = check_before_publish ? 1 : 0;
        const int check = check_before_publish ? 0 : 1;
        if (pc == publish) item = true;
        if (pc == check) saw_waiter = waiters != 0;
        if (pc == 2 && saw_waiter) ++epoch;
        if (pc == 3 && saw_waiter && asleep) asleep = false;  // the wake
    }
};

struct WakeSearch {
    std::uint64_t schedules = 0, lost = 0;

    void run(WakeModel m, int w, int s) {
        if (w == 4 && s == 4) {
            ++schedules;
            if (m.item && m.asleep) ++lost;  // published, asleep, no wake left
            return;
        }
        if (w < 4) {
            WakeModel next = m;
            next.waiter_step(w);
            run(next, w + 1, s);
        }
        if (s < 4) {
            WakeModel next = m;
            next.signaler_step(s);
            run(next, w, s + 1);
        }
    }
};

TEST(GatedWakeModel, NoInterleavingLosesTheWake) {
    WakeSearch search;
    search.run(WakeModel{}, 0, 0);
    EXPECT_EQ(search.schedules, 70u) << "C(8,4) interleavings";
    EXPECT_EQ(search.lost, 0u);
}

TEST(GatedWakeModel, WaiterCheckBeforePublishLosesTheWake) {
    WakeModel broken;
    broken.check_before_publish = true;
    WakeSearch search;
    search.run(broken, 0, 0);
    EXPECT_EQ(search.schedules, 70u);
    EXPECT_GT(search.lost, 0u) << "the explorer must find the lost wake";
}

}  // namespace
}  // namespace lcrq
