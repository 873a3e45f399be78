// Coordination-free multi-lane front-end over any registered lane queue.
//
// The paper's LCRQ scales because F&A beats CAS loops, but every operation
// still funnels through one shared head/tail pair — at extreme producer
// counts that cache line is the global hot spot.  Following the sharded
// relaxation of "No Cords Attached" (arXiv 2511.09410), Multilane<LaneQ>
// composes N independent lanes (each a full LCRQ or LSCQ) and trades total
// FIFO for **per-lane FIFO**:
//
//   * enqueue is coordination-free: a producer writes only the lane its
//     dense thread id maps to (thread_index() % N).  The front-end itself
//     adds ZERO lock-prefixed instructions to the enqueue hot path — the
//     only atomic RMW an enqueue executes is the lane's own ticket F&A.
//     The emptiness bookkeeping (below) is two single-writer plain stores
//     into a presence slot owned by the enqueuing thread; producers on
//     different lanes never touch a common line, and producers on the
//     *same* lane share only the lane queue itself.
//
//   * dequeue balances: each thread keeps a private *steal hint* — the
//     lane that last yielded it an item, initially its home lane — and
//     probes that lane first, falling back to a rotating scan.  Threads
//     that consume what they produce stay on their home lane (the hint
//     never moves); a dedicated consumer's hint converges onto the
//     producers' lanes instead of paying a guaranteed-empty home probe on
//     every operation.  The hint is thread-local, so the dequeue front-end
//     shares no mutable state between threads either.
//
// What survives of the FIFO contract: items enqueued *by the same thread*
// are dequeued in order (same thread → same lane → lane FIFO), and no item
// is lost, duplicated, or invented.  What is given up: ordering between
// items of different producers.  verify/lin_check.hpp checks exactly this
// relaxed contract (check_queue_fast_per_lane / check_queue_exact_per_lane).
//
// EMPTY must still be a *sound* answer: "dequeue → EMPTY" has to be
// linearizable, i.e. there must be one instant at which every lane is
// simultaneously empty — a naive scan can miss an item that hops from a
// not-yet-visited lane into an already-visited one.  Each lane therefore
// carries a presence array with one slot per dense thread id, each slot a
// pair of single-writer counters:
//
//     started  — bumped by an enqueuer before it touches the lane queue;
//     finished — bumped after its item is inserted (always, even when the
//                insert unwinds, so a killed enqueuer cannot wedge the
//                certification below).
//
// Only the thread owning the id writes its slot (plain MOV store on x86);
// a per-lane watermark `slot_limit` — raised by a one-time CAS the first
// time a thread enqueues to a lane — bounds how many slots a scan reads.
//
// The emptiness certification is a two-round protocol:
//
//   round 1, per lane i (rotating order): read the watermark, then each
//     covered slot's started then finished value, then attempt a lane
//     dequeue.  An item ends the scan (it is the result); otherwise the
//     failed dequeue is a linearized empty observation of lane i at some
//     instant t_i, and the lane is *quiescent* iff started == finished in
//     every covered slot.
//   round 2, only if every lane was observed empty and quiescent: issue a
//     seq_cst fence, re-read every watermark and covered started counter;
//     certify iff all still equal round 1's values.
//
// Soundness (per slot): let τ be the instant of the round-2 fence, and
// suppose lane i holds an item X at τ, enqueued by the thread owning slot
// j.  X's insert — a lock-prefixed RMW inside the lane queue — linearized
// in (t_i, τ): after t_i because lane i was observed empty at t_i, before
// τ because X is present at τ.  The insert drains the enqueuer's store
// buffer, so X's started-store σ (program-order before the insert) is
// globally visible before τ, hence seen by round 2's re-read of slot j.
// Two cases:
//   * σ was not yet visible to round 1's read of slot j — round 2 then
//     reads a larger started value (single-writer counters are monotone)
//     and certification fails;
//   * σ was visible to round 1 — the thread is sequential, so every
//     earlier operation in slot j had already finished (their
//     finished-stores precede σ in j's program order and are visible with
//     it), while X's own finished-store can only follow the insert, i.e.
//     lands after t_i > the slot read.  Round 1 therefore read
//     started == finished + 1 for slot j and quiescence already failed.
// A thread whose first enqueue to lane i races the scan is caught the same
// way via the watermark: its slot_limit CAS precedes σ, so either round 1
// already covers slot j, or round 2's watermark re-read differs.
// (The visibility steps lean on x86-TSO — stores become visible in program
// order and lock-prefixed RMWs drain the store buffer — which is the
// portability bar this repo already sets; see arch/primitives.hpp.)
//
// Liveness: a failed certification implies an enqueue started, finished,
// or published during the scan — system-wide progress — so successful
// operations stay as nonblocking as the lane queue.  The one relaxation:
// the EMPTY answer itself waits out in-flight enqueues (a producer parked
// between its started-bump and its insert keeps started != finished).
// This is the sharded analogue of the CRQ dequeuer's spin-wait for a
// matching enqueuer (§4.1.1) and is documented in ALGORITHM.md.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "arch/inject.hpp"
#include "arch/thread_id.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/queue_common.hpp"

namespace lcrq {

// Lane counts above this are clamped: "one lane per CPU" never needs more,
// and the bound keeps the certification snapshot (lanes × covered slots)
// small enough to live in a reused thread-local buffer.
inline constexpr std::size_t kMaxLanes = 64;

template <ConcurrentQueue LaneQ>
class Multilane {
  public:
    static constexpr const char* kName = "multilane";

    explicit Multilane(const QueueOptions& opt = {}) {
        std::size_t n = opt.lanes;
        if (n == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            n = hw < 2 ? 2 : hw;  // ≥ 2 so sharding exists even on 1 CPU
        }
        if (n > kMaxLanes) n = kMaxLanes;
        QueueOptions lane_opt = opt;
        lane_opt.lanes = 1;  // a lane must not recurse into more lanes
        lanes_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            lanes_.push_back(std::make_unique<Lane>(lane_opt));
        }
    }

    void enqueue(value_t x) {
        Lane& lane = *lanes_[home_lane()];
        PresenceGuard guard(lane);
        LCRQ_INJECT_POINT(kLaneEnqPending);
        lane.queue.enqueue(x);
    }

    // The whole batch goes to the caller's lane under one presence pair:
    // the per-item amortization of the lane's native bulk path is kept, and
    // certification cost stays two bumps per batch, not per item.
    void enqueue_bulk(std::span<const value_t> items) {
        if (items.empty()) return;
        Lane& lane = *lanes_[home_lane()];
        PresenceGuard guard(lane);
        LCRQ_INJECT_POINT(kLaneEnqPending);
        bulk_enqueue(lane.queue, items);
    }

    std::optional<value_t> dequeue() {
        const std::size_t start = scan_start();
        if (auto v = lanes_[start]->queue.dequeue()) {
            stats::count(start == home_lane() ? stats::Event::kLaneLocalHit
                                              : stats::Event::kLaneSteal);
            return v;
        }
        SpinWait waiter;
        for (;;) {
            std::optional<value_t> item;
            if (scan_round(start, item)) return item;
            waiter.spin();
        }
    }

    // Bulk contract (cf. LinkedRing::dequeue_bulk): 0 means the queue was
    // observed (here: certified) empty.  A short non-zero return means the
    // final scan round observed every lane individually empty — under the
    // relaxed contract that is the strongest claim a partial batch needs,
    // and it keeps a half-full batch from blocking on in-flight enqueues.
    std::size_t dequeue_bulk(value_t* out, std::size_t max) {
        const std::size_t home = home_lane();
        const std::size_t start = scan_start();
        const std::size_t n = lanes_.size();
        std::size_t got = 0;
        SpinWait waiter;
        for (;;) {
            std::size_t round_got = 0;
            for (std::size_t k = 0; k < n && got < max; ++k) {
                const std::size_t i = (start + k) % n;
                const std::size_t take =
                    bulk_dequeue(lanes_[i]->queue, out + got, max - got);
                if (take != 0) {
                    stats::count(i == home ? stats::Event::kLaneLocalHit
                                           : stats::Event::kLaneSteal,
                                 take);
                    steal_hint() = static_cast<std::uint8_t>(i);
                }
                round_got += take;
                got += take;
            }
            if (got == max) return got;
            if (round_got == 0 && got != 0) return got;
            if (round_got == 0) {
                // Nothing anywhere: certify before answering EMPTY.
                std::optional<value_t> item;
                if (scan_round(start, item)) {
                    if (item.has_value()) {
                        out[got++] = *item;
                        continue;
                    }
                    return 0;
                }
                waiter.spin();
            }
        }
    }

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    // The lane the calling thread's enqueues go to.
    std::size_t home_lane() const noexcept {
        return thread_index() % lanes_.size();
    }
    LaneQ& lane(std::size_t i) noexcept { return lanes_[i]->queue; }

    static std::string variant_name() {
        return std::string("multilane<") + LaneQ::kName + ">";
    }

  private:
    // One presence slot per dense thread id.  Single-writer: only the
    // thread owning the id stores here, so both bumps are plain MOVs on
    // x86; scans read them with acquire loads (also plain MOVs).  Slots
    // are deliberately unpadded — threads sharing a lane sit kLanes slots
    // apart, so with ≥ 4 lanes no two same-lane producers share a line,
    // and even below that a shared *plain-store* line is far cheaper than
    // the shared lock-prefixed F&A this replaces.
    struct PresenceSlot {
        std::atomic<std::uint64_t> started{0};
        std::atomic<std::uint64_t> finished{0};
    };

    struct alignas(kDestructivePairSize) Lane {
        LaneQ queue;
        // How many presence slots scans must read: max(thread id) + 1 over
        // every thread that ever enqueued here.  Raised by a one-time CAS
        // per (thread, lane) *before* the thread's first started-bump, so
        // a scan that saw a slot's started value also sees it covered.
        std::atomic<std::uint32_t> slot_limit{0};
        std::array<PresenceSlot, kMaxThreads> presence{};

        explicit Lane(const QueueOptions& opt) : queue(opt) {}

        void cover(std::size_t tid) noexcept {
            const auto want = static_cast<std::uint32_t>(tid) + 1;
            std::uint32_t cur = slot_limit.load(std::memory_order_acquire);
            while (cur < want) {
                stats::count(stats::Event::kCas);
                if (slot_limit.compare_exchange_weak(cur, want,
                                                     std::memory_order_seq_cst,
                                                     std::memory_order_acquire)) {
                    return;
                }
                stats::count(stats::Event::kCasFailure);
            }
        }
    };

    // started on construction, finished on destruction — also when the
    // lane insert unwinds (kill injection), so a dead enqueuer leaves the
    // counters balanced and EMPTY certification stays live.  The relaxed
    // self-reads are sound because slots are single-writer; id recycling
    // keeps that true (ThreadIdPool hands an id to one live thread at a
    // time, and its release/acquire pair orders the handoff).
    struct PresenceGuard {
        explicit PresenceGuard(Lane& l) noexcept
            : slot(l.presence[thread_index()]) {
            l.cover(thread_index());
            slot.started.store(
                slot.started.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
        }
        ~PresenceGuard() {
            slot.finished.store(
                slot.finished.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
        }
        PresenceSlot& slot;
    };

    // Per-thread, per-queue(ish) steal hint: lane of this thread's last
    // successful dequeue, or the home lane while unset.  Slots are indexed
    // by a queue-instance id modulo a small table, so two queues may share
    // a slot — harmless, the hint is only a scan starting point.  Being
    // thread-local it adds no cross-thread traffic to the dequeue path.
    static constexpr std::size_t kHintSlots = 64;
    static constexpr std::uint8_t kHintUnset = 0xFF;

    std::uint8_t& steal_hint() const noexcept {
        thread_local auto hints = [] {
            std::array<std::uint8_t, kHintSlots> a;
            a.fill(kHintUnset);
            return a;
        }();
        return hints[qid_ % kHintSlots];
    }

    std::size_t scan_start() const noexcept {
        const std::uint8_t h = steal_hint();
        return h < lanes_.size() ? h : home_lane();
    }

    // One full rotating scan + certification attempt.  Returns true when
    // the scan produced an answer: an item (left in `item`) or a certified
    // EMPTY (`item` empty).  Returns false when certification failed and
    // the caller should retry.
    bool scan_round(std::size_t start, std::optional<value_t>& item) {
        const std::size_t n = lanes_.size();
        const std::size_t home = home_lane();
        // Round-1 snapshot, reused across calls: per-lane watermark plus
        // the covered slots' started values (offsets[i] locates lane i's
        // run inside the flat `snap`, since lanes are visited rotated).
        thread_local std::vector<std::uint64_t> snap;
        thread_local std::vector<std::uint32_t> limits;
        thread_local std::vector<std::size_t> offsets;
        snap.clear();
        limits.assign(n, 0);
        offsets.assign(n, 0);
        bool quiescent = true;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = (start + k) % n;
            Lane& lane = *lanes_[i];
            const std::uint32_t limit =
                lane.slot_limit.load(std::memory_order_seq_cst);
            limits[i] = limit;
            offsets[i] = snap.size();
            for (std::uint32_t j = 0; j < limit; ++j) {
                // Per slot: started before finished (the soundness
                // argument needs a finish counted only if its start is).
                const std::uint64_t s =
                    lane.presence[j].started.load(std::memory_order_acquire);
                const std::uint64_t f =
                    lane.presence[j].finished.load(std::memory_order_acquire);
                snap.push_back(s);
                if (s != f) quiescent = false;
            }
            LCRQ_INJECT_POINT(kLaneScan);
            if (auto v = lane.queue.dequeue()) {
                stats::count(i == home ? stats::Event::kLaneLocalHit
                                       : stats::Event::kLaneSteal);
                steal_hint() = static_cast<std::uint8_t>(i);
                item = v;
                return true;
            }
        }
        stats::count(stats::Event::kLaneEmptyScan);
        if (!quiescent) return false;
        LCRQ_INJECT_POINT(kLaneCertify);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        for (std::size_t i = 0; i < n; ++i) {
            Lane& lane = *lanes_[i];
            if (lane.slot_limit.load(std::memory_order_seq_cst) != limits[i]) {
                return false;
            }
            for (std::uint32_t j = 0; j < limits[i]; ++j) {
                if (lane.presence[j].started.load(std::memory_order_acquire) !=
                    snap[offsets[i] + j]) {
                    return false;
                }
            }
        }
        item.reset();
        return true;
    }

    static std::uint32_t alloc_qid() noexcept {
        static std::atomic<std::uint32_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    // LaneQ is neither movable nor small (per-thread hazard state inside),
    // so lanes live behind unique_ptr; the presence array adds 16 B ×
    // kMaxThreads per lane, allocated once with the lane.
    std::vector<std::unique_ptr<Lane>> lanes_;
    const std::uint32_t qid_ = alloc_qid();
};

using MultilaneLcrq = Multilane<LcrqQueue>;
using MultilaneLscq = Multilane<LscqQueue>;

}  // namespace lcrq
