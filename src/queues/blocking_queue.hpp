// Blocking facade over the nonblocking queues.
//
// The algorithms in this library are *total*: dequeue returns EMPTY
// instead of waiting (that totality is what the paper's progress claims
// are about).  Applications that want consumers to sleep when idle — and
// producers to feel backpressure instead of growing the queue without
// bound — layer this facade on top.  Two futex eventcounts turn the
// nonblocking operations into blocking ones without touching the queue's
// hot path: consumers only enter the futex slow path after the fast
// dequeue misses, producers only pay a wake syscall when a waiter is
// registered, and (bounded mode) producers sleep on a second eventcount
// that dequeues bump.
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
// Capacity model: the watermark reads the base's approx_size() when it
// has one (LCRQ/LSCQ/SCQ/wCQ all do); otherwise it reads admissions minus
// dequeues off the two eventcounts, which tally both already, so the
// fallback costs no extra RMW.  Either size is approximate under
// concurrency, so capacity is a watermark, not a hard invariant — transient
// overshoot by the number of in-flight enqueuers is possible and fine for
// backpressure (the server-side shed accounting is exact either way).
//
// Post-close drain: a single EMPTY observation after close() is not
// conclusive — enqueuers admitted before the close may still be
// publishing (the base accepts them; only *new* admissions are refused).
// Every closed-path exit therefore re-checks EMPTY for a bounded number
// of rounds before reporting closed-and-drained.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>
#else
#include <chrono>
#include <thread>
#endif

#include "arch/backoff.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
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

// Futex eventcount: an exact 64-bit count of signals + a waiter count so
// the notifier's wake syscall is skipped when nobody sleeps.  FUTEX_WAIT
// compares exactly 4 bytes, so sleepers wait on the low half (prepare()'s
// epoch); its wraparound after 2^32 signals is harmless (a sleeper whose
// observed epoch is re-reached after a full wrap eats one spurious slice
// timeout and re-checks).
class EventCount {
  public:
    // Snapshot the epoch *before* the final condition re-check; pass it to
    // wait_slice so a signal between re-check and sleep is never missed.
    std::uint32_t prepare() const noexcept {
        return static_cast<std::uint32_t>(count_.load(std::memory_order_acquire));
    }
    std::uint64_t count() const noexcept { return count_.load(std::memory_order_acquire); }

    void announce_waiter() noexcept { waiters_.fetch_add(1, std::memory_order_seq_cst); }
    void retract_waiter() noexcept { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

    // Publish "the condition may have changed".  The seq_cst count bump
    // orders against the waiter-side announce+re-check: either the sleeper
    // sees the new epoch and refuses to sleep, or the signaler sees the
    // registered waiter and issues the wake.
    void bump() noexcept { count_.fetch_add(1, std::memory_order_seq_cst); }
    void wake_if_waiters() noexcept {
        if (waiters_.load(std::memory_order_seq_cst) != 0) wake_all();
    }
    void signal() noexcept {
        bump();
        wake_if_waiters();
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
        if (prepare() == observed) {
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

    static_assert(std::endian::native == std::endian::little);  // low half first
    std::uint32_t* futex_word() noexcept { return reinterpret_cast<std::uint32_t*>(&count_); }

    static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
    alignas(kCacheLineSize) std::atomic<std::uint64_t> count_{0};
    alignas(kCacheLineSize) std::atomic<std::uint32_t> waiters_{0};
};

// Decrement-on-unwind guard: a waiter killed while parked (injection
// harness) must not leave the waiter count stuck high, or producers would
// pay wake syscalls forever.
class WaiterGuard {
  public:
    explicit WaiterGuard(EventCount& ec) noexcept : ec_(ec) { ec_.announce_waiter(); }
    ~WaiterGuard() { ec_.retract_waiter(); }
    WaiterGuard(const WaiterGuard&) = delete;
    WaiterGuard& operator=(const WaiterGuard&) = delete;

  private:
    EventCount& ec_;
};

}  // namespace detail

// Adapter so the facade composes over a registry-constructed backend:
// BlockingQueue<UniquePtrBase<AnyQueue>> wraps any catalog queue picked at
// runtime.  AnyQueue exposes only the total enqueue/dequeue, so the facade
// falls back to its eventcounts' tallies for the capacity watermark.
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
        : base_(opt), capacity_(capacity) {}
    // Adopt an externally constructed base (e.g. UniquePtrBase over a
    // registry queue).
    explicit BlockingQueue(Base base, std::size_t capacity = 0)
        : base_(std::move(base)), capacity_(capacity) {}

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

    // Bounded-mode producer wait: sleeps on the space eventcount (bumped by
    // every successful dequeue) until the item is admitted, the queue
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
            const std::uint32_t observed = space_ec_.prepare();
            {
                detail::WaiterGuard guard(space_ec_);
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
                space_ec_.wait_slice(observed,
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
            const std::uint32_t observed = items_ec_.prepare();
            {
                detail::WaiterGuard guard(items_ec_);
                if (auto v = try_dequeue()) return {WaitStatus::kOk, *v};
                if (closed_.load(std::memory_order_acquire)) return drain_after_close();
                if (!counted_block) {
                    stats::count(stats::Event::kBlockedDeq);
                    counted_block = true;
                }
                LCRQ_INJECT_POINT(kBlockWait);
                const std::uint64_t nw = now_ns();
                if (nw >= deadline_ns) return {WaitStatus::kTimeout, kBottom};
                items_ec_.wait_slice(observed, std::min(deadline_ns - nw, kMaxSliceNs));
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
    // segment walk when available, else the eventcounts' admissions minus
    // dequeues, read in the order that cannot overstate: dequeues landing
    // between the reads only shrink the result (clamped at 0).
    std::uint64_t approx_size() {
        if constexpr (kBaseHasApproxSize) {
            return base_.approx_size();
        } else {
            const std::uint64_t enq = items_ec_.count();
            const std::uint64_t deq = space_ec_.count();
            return enq > deq ? enq - deq : 0;
        }
    }

    std::size_t capacity() const noexcept { return capacity_; }
    Base& base() noexcept { return base_; }

    // Epoch snapshots for layers that build their own waiters on the same
    // words (the coroutine facade): capture before the final nonblocking
    // re-check, compare after registering, exactly like wait_slice callers.
    std::uint32_t items_epoch() const noexcept { return items_ec_.prepare(); }
    std::uint32_t space_epoch() const noexcept { return space_ec_.prepare(); }

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

    // Over the eventcounts the first test reads the space count first, the
    // order measured fastest on the admission path.  It can overstate by
    // the dequeues between its reads (a reader preempted there would shed
    // on a near-empty queue), so a "full" is confirmed by approx_size().
    bool at_watermark() {
        if constexpr (!kBaseHasApproxSize) {
            const std::uint64_t deq = space_ec_.count();
            const std::uint64_t enq = items_ec_.count();
            if (enq < deq + capacity_) return false;
        }
        return approx_size() >= capacity_;
    }

    // One admission attempt: closed check, watermark check, base insert,
    // publish.  Does not count sheds — callers decide whether a kFull is
    // final (try_enqueue) or retryable (wait_enqueue).
    Admission admit(value_t x) {
        if (closed_.load(std::memory_order_acquire)) return Admission::kClosed;
        if (capacity_ != 0 && at_watermark()) return Admission::kFull;
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
        // Epoch bump + conditional wake: only consumers that already
        // registered as waiters cost this producer a futex syscall.  The
        // injection point sits exactly in the publish-to-wake window.
        items_ec_.bump();
        LCRQ_INJECT_POINT(kBlockNotify);
        items_ec_.wake_if_waiters();
        return Admission::kAccepted;
    }

    void note_dequeued() {
        // Producers may be parked on the space eventcount: always when the
        // facade is bounded, and even with capacity_ == 0 when the *base*
        // ring is bounded (admit() reports its full as retryable kFull).
        // Without a base approx_size the space count is the dequeue tally.
        if (kBaseIsBounded || capacity_ != 0 || !kBaseHasApproxSize) space_ec_.signal();
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
    detail::EventCount items_ec_;  // consumers sleep; enqueues signal
    detail::EventCount space_ec_;  // bounded producers sleep; dequeues signal
    alignas(kCacheLineSize) std::atomic<bool> closed_{false};
};

}  // namespace lcrq
