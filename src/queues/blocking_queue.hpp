// Blocking facade over the nonblocking queues.
//
// The algorithms in this library are *total*: dequeue returns EMPTY
// instead of waiting (that totality is what the paper's progress claims
// are about).  Applications that want consumers to sleep when idle — and
// producers to feel backpressure instead of growing the queue without
// bound — layer this facade on top.  Two futex eventcounts turn the
// nonblocking operations into blocking ones without a shared write on the
// queue's hot path: a signal is a fence plus one load of the waiter word,
// and only a registered waiter makes an enqueue (or, bounded, a dequeue)
// bump an epoch or pay a wake syscall.  Consumers sleep on the items
// eventcount after the fast dequeue misses; bounded producers sleep on the
// space eventcount.
//
// Semantics:
//   try_enqueue(x)      — nonblocking admission: false when closed, at the
//                         capacity watermark, or when a bounded base ring
//                         is full.  A full refusal counts as a shed.
//   try_admit(x)        — the same attempt as an Admission tri-state and
//                         without the shed accounting, for layers that run
//                         their own retry loop (the coroutine facade).
//   enqueue(x)          — alias for try_enqueue (historical name).
//   wait_enqueue[_for]  — bounded-mode producers sleep until space, close,
//                         or the deadline; returns WaitStatus.
//   try_dequeue()       — the base queue's nonblocking dequeue.
//   wait_dequeue()      — blocks until an item arrives or close() is
//                         called; nullopt only after close() with the
//                         queue drained.
//   wait_dequeue_for()  — timed wait returning a WaitResult tri-state, so
//                         callers can tell "timed out, retry later" from
//                         "closed and drained, stop".  Sleeps for real: a
//                         futex timed wait on Linux (sliced, so a lost
//                         notify costs bounded latency, never a strand),
//                         a sliced sleep_for elsewhere.
//   close()             — wakes everyone; further enqueues are refused,
//                         pending items remain dequeueable.
//   drain(timeout_ns)   — close (if needed) and dequeue the remainder
//                         until a conclusive post-close EMPTY or the
//                         deadline; reports {drained, complete,
//                         stragglers}.
//
// Capacity model: the watermark reads the facade's admission tally
// (detail::Tally): admissions minus dequeues, one signed slot per thread,
// each thread folding its slot into one shared word every B operations,
// B = clamp(capacity / (2 kMaxThreads), 1, 64).  An admission reads only
// the shared word and its own slot while their bound is below capacity,
// and sums every slot before it refuses.  Over a base without its own
// approx_size() the tally is also the size.  Any size is approximate under
// concurrency, so capacity is a watermark, not a hard invariant —
// transient overshoot by the number of in-flight enqueuers is possible and
// fine for backpressure (the server-side shed accounting is exact either
// way).
//
// Post-close drain: a single EMPTY observation after close() is not
// conclusive — enqueuers admitted before the close may still be
// publishing (the base accepts them; only *new* admissions are refused).
// Every closed-path exit therefore re-checks EMPTY for a bounded number
// of rounds before reporting closed-and-drained.
#pragma once

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>
#else
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#endif

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
#include "arch/thread_id.hpp"
#include "queues/lcrq.hpp"
#include "queues/queue_common.hpp"
#include "util/timing.hpp"

namespace lcrq {

// Outcome of a bounded blocking operation.
enum class WaitStatus : std::uint8_t {
    kOk,       // dequeue: item delivered / enqueue: item accepted
    kTimeout,  // deadline expired with the queue still open — retrying later
               //   can succeed
    kClosed,   // queue closed (and, for dequeue, drained) — retrying cannot
};

// Outcome of one admission attempt.  kFull is *retryable* — the facade
// watermark or the base's bounded ring refused, and a dequeue can free
// space — while kClosed is final.  Layers that run their own retry/park
// loop (wait_enqueue, the coroutine facade) branch on this tri-state;
// try_enqueue collapses it to bool and counts the kFull as a shed.
enum class Admission : std::uint8_t { kAccepted, kFull, kClosed };

// Tri-state result of wait_dequeue_for: kOk carries the item; kTimeout and
// kClosed are distinguishable so callers know whether to retry.
struct WaitResult {
    WaitStatus status = WaitStatus::kTimeout;
    value_t value = kBottom;

    bool ok() const noexcept { return status == WaitStatus::kOk; }
    bool timed_out() const noexcept { return status == WaitStatus::kTimeout; }
    bool closed() const noexcept { return status == WaitStatus::kClosed; }
    std::optional<value_t> to_optional() const noexcept {
        return ok() ? std::optional<value_t>(value) : std::nullopt;
    }
};

// Result of drain(): how far the post-close sweep got before the deadline.
struct DrainReport {
    std::uint64_t drained = 0;     // items this call delivered to the sink
    bool complete = false;         // reached a conclusive post-close EMPTY
    std::uint64_t stragglers = 0;  // approx items still inside at the deadline
};

namespace detail {

// Futex eventcount gated on its waiters.  A waiter registers in the waiter
// word — a sleeping thread as kSleeper, a coroutine frame watching the
// epoch as kWatcher — and a signal is a seq_cst fence plus one load of
// that word: the epoch moves only while someone waits, and the wake
// syscall is paid only for sleepers.
//
// Waiter order: snapshot the epoch, announce, fence, re-check the
// condition, sleep while the epoch still equals the snapshot.  Signaler
// order: publish, fence, load the waiter word, bump, wake.  The two fences
// make it a store-buffer pair: either the waiter's re-check sees the
// publish, or the signaler's load sees the waiter and moves the epoch past
// the snapshot (a futex wait on a moved epoch returns at once).  FUTEX_WAIT
// compares the 32-bit epoch; its wrap after 2^32 bumps is harmless (a
// sleeper whose observed epoch is re-reached after a full wrap eats one
// spurious slice timeout and re-checks).
class EventCount {
  public:
    static constexpr std::uint64_t kSleeper = 1;
    static constexpr std::uint64_t kWatcher = std::uint64_t{1} << 32;

    std::uint32_t epoch() const noexcept { return epoch_.load(std::memory_order_acquire); }

    void announce(std::uint64_t unit) noexcept {
        waiters_.fetch_add(unit, std::memory_order_seq_cst);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    void retract(std::uint64_t unit) noexcept {
        waiters_.fetch_sub(unit, std::memory_order_seq_cst);
    }

    // Publish "the condition may have changed".  `between` runs after the
    // bump and before the wake: the injection harness's notify window.
    template <typename Between>
    void signal(Between between) {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::uint64_t w = waiters_.load(std::memory_order_relaxed);
        if (w == 0) return;
        epoch_.fetch_add(1, std::memory_order_seq_cst);
        between();
        if (w % kWatcher != 0) wake_all();
    }
    void signal() noexcept {
        signal([] {});
    }

    // Sleep until the epoch moves past `observed` or roughly `slice_ns`
    // elapse — one OS wait, callers loop.  Spurious returns are fine (the
    // caller re-checks its condition).  Slices are how a *lost* wake —
    // a notifier dying between bump and wake (kill injection), or the
    // futex-less fallback — costs bounded extra latency instead of a
    // stranded sleeper: no single sleep is unbounded.
    void wait_slice(std::uint32_t observed, std::uint64_t slice_ns) noexcept {
        if (slice_ns == 0) return;
#if defined(__linux__)
        timespec ts;
        ts.tv_sec = static_cast<time_t>(slice_ns / 1'000'000'000u);
        ts.tv_nsec = static_cast<long>(slice_ns % 1'000'000'000u);
        syscall(SYS_futex, futex_word(), FUTEX_WAIT_PRIVATE, observed, &ts, nullptr, 0);
#else
        if (epoch() == observed) {
            constexpr std::uint64_t kFallbackCapNs = 1'000'000;  // poll at >= 1kHz
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(std::min(slice_ns, kFallbackCapNs)));
        }
#endif
    }

  private:
    void wake_all() noexcept {
#if defined(__linux__)
        syscall(SYS_futex, futex_word(), FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, nullptr, 0);
#endif
        // Fallback sleepers poll on slice expiry; no wake needed.
    }

    std::uint32_t* futex_word() noexcept { return reinterpret_cast<std::uint32_t*>(&epoch_); }

    static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
    alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch_{0};
    alignas(kCacheLineSize) std::atomic<std::uint64_t> waiters_{0};
};

// One wait's registration on an eventcount: snapshots the epoch, then
// announces `unit` (kSleeper or kWatcher); the destructor retracts it —
// also when a waiter killed while parked (injection harness) unwinds, so
// the waiter word never stays high and signalers never keep bumping.
class Waiter {
  public:
    Waiter(EventCount& ec, std::uint64_t unit) noexcept
        : ec_(ec), unit_(unit), observed_(ec.epoch()) {
        ec_.announce(unit_);
    }
    ~Waiter() { ec_.retract(unit_); }
    Waiter(const Waiter&) = delete;
    Waiter& operator=(const Waiter&) = delete;

    std::uint32_t observed() const noexcept { return observed_; }

  private:
    EventCount& ec_;
    const std::uint64_t unit_;
    const std::uint32_t observed_;
};

// Admission tally: admissions minus dequeues with no shared write per
// operation.  Each dense thread id owns one slot whose `net` is that
// thread's running admissions minus dequeues on this facade — signed, as
// a consumer-only thread goes negative — and only the owner writes it.
// The count is the sum of the slots; as in multilane.hpp, `slot_limit_`
// (raised by a one-time CAS before a thread's first store) bounds how many
// slots a sum reads.
//
// For the watermark's fast test each thread also folds its unfolded part
// (net minus what it folded before) into the shared word `folded_` once
// that part reaches +-B.  Every slot at rest holds less than B unfolded, so
//     count <= folded_ + own unfolded + (B - 1) * kMaxThreads,
// and B = clamp(capacity / (2 kMaxThreads), 1, 64) keeps that slack at or
// below capacity / 2.  While the bound is below capacity an admission
// reads nothing of other threads; otherwise it sums the slots before it
// refuses.  With B = 1 every operation folds, and `folded_` is the exact
// per-op count.  A sum never reads `folded_`, so a fold in flight can
// neither count an item twice nor hide one from it.
//
// The slots live in a zero-filled anonymous mapping: the pages of slots
// no thread uses are never touched.
class Tally {
  public:
    struct alignas(kDestructivePairSize) Slot {
        std::int64_t net;     // owner stores, sums load (atomic_ref)
        std::int64_t folded;  // owner only: net at its last fold
        bool covered;         // owner only: slot_limit_ covers this id
    };

    // A disabled tally maps nothing and mine() is null.
    Tally(std::size_t capacity, bool enabled)
        : fold_(fold_for(capacity)),
          slack_((fold_ > 0 ? fold_ - 1 : 0) * static_cast<std::int64_t>(kMaxThreads)),
          slots_(enabled ? map_slots() : nullptr) {}
    ~Tally() { unmap_slots(slots_); }
    Tally(const Tally&) = delete;
    Tally& operator=(const Tally&) = delete;

    // This thread's slot (covered on first use), or null when disabled.
    Slot* mine() noexcept {
        if (slots_ == nullptr) return nullptr;
        const std::size_t id = thread_index();
        Slot& s = slots_[id];
        if (!s.covered) cover(id, s);
        return &s;
    }

    // One admission (+1) or dequeue (-1) by the thread owning `s`.
    void add(Slot& s, std::int64_t d) noexcept {
        const std::int64_t net = load(s) + d;
        std::atomic_ref<std::int64_t>(s.net).store(net, std::memory_order_relaxed);
        if (fold_ == 0) return;
        const std::int64_t unfolded = net - s.folded;
        if (unfolded >= fold_ || unfolded <= -fold_) {
            folded_.fetch_add(unfolded, std::memory_order_relaxed);
            s.folded = net;
        }
    }

    // True when the count has reached `capacity`: the fast bound first,
    // the sum of the slots only when the bound does not clear it.
    bool full(Slot& s, std::int64_t capacity) const noexcept {
        const std::int64_t bound =
            folded_.load(std::memory_order_relaxed) + (load(s) - s.folded) + slack_;
        return bound >= capacity && sum() >= capacity;
    }

    // Admissions minus dequeues over every slot; exact at quiescence.
    std::int64_t sum() const noexcept {
        if (slots_ == nullptr) return 0;
        const std::uint32_t n = slot_limit_.load(std::memory_order_acquire);
        std::int64_t total = 0;
        for (std::uint32_t i = 0; i < n; ++i) total += load(slots_[i]);
        return total;
    }

  private:
    static constexpr std::int64_t kMaxFold = 64;
    static constexpr std::size_t kSlotBytes = sizeof(Slot) * kMaxThreads;

    // No watermark (capacity 0): nothing reads folded_, so never fold.
    static std::int64_t fold_for(std::size_t capacity) noexcept {
        if (capacity == 0) return 0;
        const std::size_t b = capacity / (2 * kMaxThreads);
        return static_cast<std::int64_t>(std::clamp<std::size_t>(b, 1, kMaxFold));
    }

    static std::int64_t load(Slot& s) noexcept {
        return std::atomic_ref<std::int64_t>(s.net).load(std::memory_order_relaxed);
    }

    void cover(std::size_t id, Slot& s) noexcept {
        const auto want = static_cast<std::uint32_t>(id) + 1;
        std::uint32_t cur = slot_limit_.load(std::memory_order_acquire);
        while (cur < want && !slot_limit_.compare_exchange_weak(cur, want,
                                                                 std::memory_order_seq_cst,
                                                                 std::memory_order_acquire)) {
        }
        s.covered = true;
    }

    static Slot* map_slots() {
#if defined(__linux__)
        void* p = ::mmap(nullptr, kSlotBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) alloc_failure();
#else
        void* p = check_alloc(std::aligned_alloc(alignof(Slot), kSlotBytes));
        std::memset(p, 0, kSlotBytes);
#endif
        return static_cast<Slot*>(p);
    }
    static void unmap_slots(Slot* p) noexcept {
        if (p == nullptr) return;
#if defined(__linux__)
        ::munmap(p, kSlotBytes);
#else
        std::free(p);
#endif
    }

    const std::int64_t fold_;   // B; 0 = never fold
    const std::int64_t slack_;  // (B - 1) * kMaxThreads
    Slot* const slots_;
    alignas(kCacheLineSize) std::atomic<std::uint32_t> slot_limit_{0};
    alignas(kCacheLineSize) std::atomic<std::int64_t> folded_{0};
};

}  // namespace detail

// Adapter so the facade composes over a registry-constructed backend:
// BlockingQueue<UniquePtrBase<AnyQueue>> wraps any catalog queue picked at
// runtime.  AnyQueue exposes only the total enqueue/dequeue, so the facade's
// admission tally is its approx_size() too.
template <typename Q>
class UniquePtrBase {
  public:
    explicit UniquePtrBase(std::unique_ptr<Q> q) noexcept : q_(std::move(q)) {}
    UniquePtrBase(UniquePtrBase&&) noexcept = default;
    UniquePtrBase& operator=(UniquePtrBase&&) noexcept = default;

    void enqueue(value_t x) { q_->enqueue(x); }
    std::optional<value_t> dequeue() { return q_->dequeue(); }

    Q& operator*() noexcept { return *q_; }
    Q* operator->() noexcept { return q_.get(); }

  private:
    std::unique_ptr<Q> q_;
};

template <typename Base = LcrqQueue>
class BlockingQueue {
    static constexpr bool kBaseHasTryEnqueue =
        requires(Base& b, value_t v) { { b.try_enqueue(v) } -> std::same_as<bool>; };
    static constexpr bool kBaseHasApproxSize =
        requires(Base& b) { { b.approx_size() } -> std::convertible_to<std::uint64_t>; };
    // A closed() probe disambiguates a base-side try_enqueue refusal: full
    // (retryable) vs closed (final).  Bases without one never close
    // themselves (the bounded ring wrappers), so a refusal means full.
    static constexpr bool kBaseHasClosedProbe =
        requires(const Base& b) { { b.closed() } -> std::convertible_to<bool>; };
    // A bounded base can refuse with kFull even when the facade itself is
    // unbounded (capacity_ == 0); dequeues must then signal the space
    // eventcount or wait_enqueue producers would only make slice-timeout
    // progress.
    static constexpr bool kBaseIsBounded =
        requires(const Base& b) { { b.capacity() } -> std::convertible_to<std::uint64_t>; };

  public:
    // capacity == 0 means unbounded (no watermark, no shedding).
    explicit BlockingQueue(const QueueOptions& opt = {}, std::size_t capacity = 0)
        : base_(opt), capacity_(capacity), tally_(capacity, keeps_tally(capacity)) {}
    // Adopt an externally constructed base (e.g. UniquePtrBase over a
    // registry queue).
    explicit BlockingQueue(Base base, std::size_t capacity = 0)
        : base_(std::move(base)), capacity_(capacity), tally_(capacity, keeps_tally(capacity)) {}

    BlockingQueue(const BlockingQueue&) = delete;
    BlockingQueue& operator=(const BlockingQueue&) = delete;

    // --- producer side -----------------------------------------------------

    // Nonblocking admission.  False when the facade is closed, when the
    // base refused (full ring or closed directly via base().close()), or
    // when a bounded facade is at its watermark.  A full refusal counts as
    // a shed; a closed refusal does not.
    bool try_enqueue(value_t x) {
        const Admission a = admit(x);
        if (a == Admission::kFull) stats::count(stats::Event::kShed);
        return a == Admission::kAccepted;
    }
    bool enqueue(value_t x) { return try_enqueue(x); }

    // Non-counting admission for layers that run their own retry/park loop
    // (the coroutine facade): same attempt as try_enqueue, but a kFull is
    // reported to the caller instead of being counted as a shed — one
    // logical enqueue that parks and retries must record at most one final
    // outcome, not one shed per retry.
    Admission try_admit(value_t x) { return admit(x); }

    WaitStatus wait_enqueue(value_t x) { return wait_enqueue_until(x, kNoDeadline); }
    WaitStatus wait_enqueue_for(value_t x, std::uint64_t timeout_ns) {
        // One attempt before the deadline needs the clock: a hit reads none.
        if (auto st = settled(admit(x))) return *st;
        return wait_enqueue_until(x, saturating_deadline(timeout_ns));
    }

    // Bounded-mode producer wait: sleeps on the space eventcount (signaled
    // by every successful dequeue) until the item is admitted, the queue
    // closes, or the deadline passes.  A timeout counts as a shed — the
    // caller's request is dropped at the watermark, just later.
    WaitStatus wait_enqueue_until(value_t x, std::uint64_t deadline_ns) {
        SpinWait spinner;
        bool counted_block = false;
        for (;;) {
            for (int i = 0; i < kFastAttempts; ++i) {
                if (auto st = settled(admit(x))) return *st;
                if (now_ns() >= deadline_ns) {
                    stats::count(stats::Event::kShed);
                    return WaitStatus::kTimeout;
                }
                spinner.spin();
            }
            // Slow path: register on the space eventcount, re-check (a
            // dequeue may have landed between the miss and registration),
            // then sleep one slice.
            {
                const detail::Waiter waiter(space_ec_, detail::EventCount::kSleeper);
                if (auto st = settled(admit(x))) return *st;
                if (!counted_block) {
                    stats::count(stats::Event::kBlockedEnq);
                    counted_block = true;
                }
                LCRQ_INJECT_POINT(kBlockWait);
                const std::uint64_t nw = now_ns();
                if (nw >= deadline_ns) {
                    stats::count(stats::Event::kShed);
                    return WaitStatus::kTimeout;
                }
                space_ec_.wait_slice(waiter.observed(),
                                     std::min(deadline_ns - nw, kMaxSliceNs));
            }
            spinner.reset();
        }
    }

    // --- consumer side -----------------------------------------------------

    std::optional<value_t> try_dequeue() {
        auto v = base_.dequeue();
        if (v.has_value()) note_dequeued();
        return v;
    }

    // Indefinite wait; nullopt only after close() with the queue drained.
    std::optional<value_t> wait_dequeue() {
        return wait_dequeue_until(kNoDeadline).to_optional();
    }

    WaitResult wait_dequeue_for(std::uint64_t timeout_ns) {
        // One attempt before the deadline needs the clock: a hit reads none.
        if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
        return wait_dequeue_until(saturating_deadline(timeout_ns));
    }

    // Timed wait.  Optimistic attempts first, then register on the items
    // eventcount and sleep in deadline-capped slices (futex on Linux).  The
    // slice cap bounds the damage of a lost notify: a producer killed
    // between publish and wake (kBlockNotify) delays the sleeper by at most
    // one slice instead of stranding it.
    WaitResult wait_dequeue_until(std::uint64_t deadline_ns) {
        SpinWait spinner;
        bool counted_block = false;
        for (;;) {
            for (int i = 0; i < kFastAttempts; ++i) {
                if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
                if (closed_.load(std::memory_order_acquire)) return drain_after_close();
                if (now_ns() >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
                spinner.spin();
            }
            {
                const detail::Waiter waiter(items_ec_, detail::EventCount::kSleeper);
                if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
                if (closed_.load(std::memory_order_acquire)) return drain_after_close();
                if (!counted_block) {
                    stats::count(stats::Event::kBlockedDeq);
                    counted_block = true;
                }
                LCRQ_INJECT_POINT(kBlockWait);
                const std::uint64_t nw = now_ns();
                if (nw >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
                items_ec_.wait_slice(waiter.observed(),
                                     std::min(deadline_ns - nw, kMaxSliceNs));
            }
            spinner.reset();
        }
    }

    // --- lifecycle ---------------------------------------------------------

    void close() {
        closed_.store(true, std::memory_order_seq_cst);
        items_ec_.signal();
        space_ec_.signal();
    }

    bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

    // Graceful shutdown: close (if not already closed) and dequeue the
    // remainder into `sink` until a conclusive post-close EMPTY or the
    // deadline.  Single sweeper per call; concurrent drains are safe (they
    // split the items).  `complete == false` means the deadline hit first —
    // `stragglers` approximates what is still inside (in-flight pre-close
    // enqueuers may still be publishing).
    template <typename Sink>
    DrainReport drain(std::uint64_t timeout_ns, Sink&& sink) {
        if (!closed()) close();
        const std::uint64_t deadline_ns = saturating_deadline(timeout_ns);
        DrainReport rep;
        SpinWait spinner;
        int empty_rounds = 0;
        for (;;) {
            LCRQ_INJECT_POINT(kDrain);
            if (auto v = try_dequeue()) {
                sink(*v);
                ++rep.drained;
                empty_rounds = 0;
                spinner.reset();
            } else if (++empty_rounds >= kClosedRecheckRounds) {
                rep.complete = true;
                break;
            } else {
                spinner.spin();
            }
            // Checked on the success path too: a large backlog fed to a
            // slow sink must stop at the deadline, not after the backlog.
            if (now_ns() >= deadline_ns) break;
        }
        if (!rep.complete) rep.stragglers = approx_size();
        return rep;
    }
    DrainReport drain(std::uint64_t timeout_ns) {
        return drain(timeout_ns, [](value_t) {});
    }

    // --- introspection -----------------------------------------------------

    // Items currently inside, approximately: the base's hazard-protected
    // segment walk when available, else the admission tally (clamped at 0:
    // a dequeue may count before the admission of its item does).
    std::uint64_t approx_size() {
        if constexpr (kBaseHasApproxSize) {
            return base_.approx_size();
        } else {
            return static_cast<std::uint64_t>(std::max<std::int64_t>(tally(), 0));
        }
    }

    // Admissions minus dequeues over every thread's tally slot, signed and
    // exact at quiescence; 0 when the facade keeps no tally (unbounded over
    // a base with its own approx_size).
    std::int64_t tally() const noexcept { return tally_.sum(); }

    std::size_t capacity() const noexcept { return capacity_; }
    Base& base() noexcept { return base_; }

    // Epoch watches for layers that park their own waiters on these words
    // (the coroutine facade).  The registration snapshots the epoch and
    // announces a watcher, so every later signal moves the epoch until the
    // registration is dropped: re-check the condition after taking it, then
    // compare items_epoch()/space_epoch() against observed().
    detail::Waiter watch_items() noexcept {
        return detail::Waiter(items_ec_, detail::EventCount::kWatcher);
    }
    detail::Waiter watch_space() noexcept {
        return detail::Waiter(space_ec_, detail::EventCount::kWatcher);
    }
    std::uint32_t items_epoch() const noexcept { return items_ec_.epoch(); }
    std::uint32_t space_epoch() const noexcept { return space_ec_.epoch(); }

  private:
    static constexpr int kFastAttempts = 64;
    // Bounded post-close EMPTY re-check (see file comment).
    static constexpr int kClosedRecheckRounds = 16;
    // Cap on any single sleep; the recovery bound after a lost notify.
    static constexpr std::uint64_t kMaxSliceNs = 10'000'000;
    static constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

    static std::uint64_t saturating_deadline(std::uint64_t timeout_ns) noexcept {
        const std::uint64_t now = now_ns();
        return timeout_ns > kNoDeadline - now ? kNoDeadline : now + timeout_ns;
    }

    // A wait loop's reading of one admission: kFull keeps it waiting.
    static std::optional<WaitStatus> settled(Admission a) noexcept {
        if (a == Admission::kFull) return std::nullopt;
        return a == Admission::kAccepted ? WaitStatus::kOk : WaitStatus::kClosed;
    }

    // The watermark needs the tally, and so does approx_size() over a base
    // without its own.
    static bool keeps_tally(std::size_t capacity) noexcept {
        return capacity != 0 || !kBaseHasApproxSize;
    }

    // One admission attempt: closed check, watermark check, base insert,
    // publish.  Does not count sheds — callers decide whether a kFull is
    // final (try_enqueue) or retryable (wait_enqueue).
    Admission admit(value_t x) {
        if (closed_.load(std::memory_order_acquire)) return Admission::kClosed;
        detail::Tally::Slot* const slot = tally_.mine();
        if (capacity_ != 0 &&
            tally_.full(*slot, static_cast<std::int64_t>(capacity_))) {
            return Admission::kFull;
        }
        if constexpr (kBaseHasTryEnqueue) {
            // A base-side refusal is either a full bounded ring (retryable:
            // a dequeue frees a slot) or a base closed directly via
            // base().close(), which our flag cannot see (final; the
            // asserting base_.enqueue(x) would silently drop the item in
            // release builds).  The closed() probe tells them apart; bases
            // without one never close themselves, so their refusal is full.
            if (!base_.try_enqueue(x)) {
                if constexpr (kBaseHasClosedProbe) {
                    return base_.closed() ? Admission::kClosed : Admission::kFull;
                } else {
                    return Admission::kFull;
                }
            }
        } else {
            base_.enqueue(x);
        }
        if (slot != nullptr) tally_.add(*slot, +1);
        // Only registered waiters cost this producer an epoch bump, and
        // only sleepers a futex syscall.  The injection point sits exactly
        // in the bump-to-wake window.
        items_ec_.signal([] { LCRQ_INJECT_POINT(kBlockNotify); });
        return Admission::kAccepted;
    }

    void note_dequeued() {
        if (detail::Tally::Slot* const slot = tally_.mine()) tally_.add(*slot, -1);
        // Producers may wait for space: always when the facade is bounded,
        // and even with capacity_ == 0 when the *base* ring is bounded
        // (admit() reports its full as retryable kFull).
        if (kBaseIsBounded || capacity_ != 0) space_ec_.signal();
    }

    // Closed observed on the dequeue path: deliver any remaining item.  One
    // EMPTY is not conclusive while pre-close enqueuers may still be
    // publishing, so EMPTY is re-checked kClosedRecheckRounds times before
    // reporting closed-and-drained.
    WaitResult drain_after_close() {
        SpinWait spinner;
        for (int round = 0; round < kClosedRecheckRounds; ++round) {
            if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
            spinner.spin();
        }
        return {WaitStatus::kClosed, kBottom};
    }

    Base base_;
    const std::size_t capacity_;
    detail::Tally tally_;
    detail::EventCount items_ec_;  // consumers sleep; enqueues signal
    detail::EventCount space_ec_;  // bounded producers sleep; dequeues signal
    alignas(kCacheLineSize) std::atomic<bool> closed_{false};
};

}  // namespace lcrq
