// A small-step executable model of the CRQ protocol (verify substrate).
//
// Real-thread tests explore schedules at the mercy of the OS; on a
// 1-hardware-thread host almost all interesting interleavings — the ones
// the safe-bit protocol exists for — never occur.  This model mirrors
// `queues/crq.hpp` with *every shared-memory access as one atomic step*
// (including the separate val/si loads, so torn reads are modeled), which
// lets the explorer in explore.hpp drive any interleaving deterministically
// and check every outcome against the exact linearizability checker.
//
// Fidelity notes (kept in sync with crq.hpp by the differential test):
//   * spin_wait_iters is modeled as 0 — the optimization only suppresses
//     empty transitions; it adds no transition kind.
//   * starvation_limit is a model parameter exactly as in QueueOptions.
//   * fix_state's three loads and CAS are separate steps, as in the code.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "queues/queue_common.hpp"
#include "verify/history.hpp"  // kEmpty

namespace lcrq::verify {

// Shared CRQ state: plain data the step machine mutates atomically.
struct CrqModelState {
    std::uint64_t head = 0;
    std::uint64_t tail = 0;  // bit 63 = closed
    struct Cell {
        std::uint64_t si;  // (safe << 63) | idx
        value_t val;
        friend bool operator==(const Cell&, const Cell&) = default;
    };
    std::vector<Cell> ring;

    // Coverage counters (not part of the protocol state): which corner
    // transitions this execution exercised.  The explorer aggregates them
    // so tests can assert a configuration actually reaches the paths it
    // claims to verify.
    std::uint32_t unsafe_transitions = 0;
    std::uint32_t empty_transitions = 0;
    std::uint32_t closes = 0;
    std::uint32_t enq_rescues = 0;  // enqueue into an unsafe node via head<=t

    static constexpr std::uint64_t kMsb = std::uint64_t{1} << 63;

    explicit CrqModelState(std::uint64_t r = 2) {
        ring.resize(r);
        for (std::uint64_t u = 0; u < r; ++u) ring[u] = {kMsb | u, kBottom};
    }

    std::uint64_t R() const noexcept { return ring.size(); }
    bool closed() const noexcept { return (tail & kMsb) != 0; }
};

// One queue operation as a resumable step machine.  Each step() performs
// exactly one atomic access on the shared state.
class CrqModelOp {
  public:
    enum class Kind : std::uint8_t { kEnqueue, kDequeue };
    enum class Status : std::uint8_t { kRunning, kDone };

    CrqModelOp(Kind kind, value_t arg, unsigned starvation_limit)
        : kind_(kind), arg_(arg), limit_(starvation_limit == 0 ? 1 : starvation_limit) {}

    Status step(CrqModelState& s) { return kind_ == Kind::kEnqueue ? step_enq(s) : step_deq(s); }

    bool done() const noexcept { return done_; }
    // Enqueue: arg on OK, kTop on CLOSED.  Dequeue: value or kEmpty.
    value_t result() const noexcept { return result_; }
    Kind kind() const noexcept { return kind_; }
    value_t arg() const noexcept { return arg_; }

    // CLOSED marker for enqueue results.
    static constexpr value_t kClosedResult = kTop;

  private:
    static constexpr std::uint64_t kMsb = CrqModelState::kMsb;
    static std::uint64_t idx_of(std::uint64_t si) noexcept { return si & (kMsb - 1); }
    static bool safe_of(std::uint64_t si) noexcept { return (si & kMsb) != 0; }

    Status finish(value_t r) {
        done_ = true;
        result_ = r;
        return Status::kDone;
    }

    // --- enqueue: mirrors Crq::enqueue -----------------------------------
    //  pc 0: F&A(tail) -> t (or CLOSED)
    //  pc 1: read cell.val
    //  pc 2: read cell.si; branch
    //  pc 3: read head (the "safe = 0, head <= t" rescue check)
    //  pc 4: CAS2 enqueue transition
    //  pc 5: read head (full / starving give-up check)
    //  pc 6: T&S close bit
    Status step_enq(CrqModelState& s) {
        switch (pc_) {
            case 0: {
                const std::uint64_t traw = s.tail;
                s.tail += 1;
                if ((traw & kMsb) != 0) return finish(kClosedResult);
                t_ = traw;
                pc_ = 1;
                return Status::kRunning;
            }
            case 1:
                val_ = s.ring[t_ % s.R()].val;
                pc_ = 2;
                return Status::kRunning;
            case 2:
                si_ = s.ring[t_ % s.R()].si;
                if (val_ == kBottom && idx_of(si_) <= t_) {
                    pc_ = safe_of(si_) ? 4 : 3;
                } else {
                    pc_ = 5;
                }
                return Status::kRunning;
            case 3:
                if (s.head <= t_) {
                    ++s.enq_rescues;
                    pc_ = 4;
                } else {
                    pc_ = 5;
                }
                return Status::kRunning;
            case 4: {
                CrqModelState::Cell& cell = s.ring[t_ % s.R()];
                if (cell.si == si_ && cell.val == kBottom) {
                    cell = {kMsb | t_, arg_};
                    return finish(arg_);
                }
                pc_ = 5;
                return Status::kRunning;
            }
            case 5: {
                const std::uint64_t h = s.head;
                if (static_cast<std::int64_t>(t_ - h) >=
                        static_cast<std::int64_t>(s.R()) ||
                    ++tries_ >= limit_) {
                    pc_ = 6;
                } else {
                    pc_ = 0;
                }
                return Status::kRunning;
            }
            case 6:
                s.tail |= kMsb;
                ++s.closes;
                return finish(kClosedResult);
            default: return finish(kClosedResult);
        }
    }

    // --- dequeue: mirrors Crq::dequeue (spin-wait = 0) --------------------
    //  pc 10: F&A(head) -> h
    //  pc 11: read cell.val
    //  pc 12: read cell.si; branch
    //  pc 13: CAS2 dequeue transition
    //  pc 14: CAS2 unsafe transition
    //  pc 15: CAS2 empty transition
    //  pc 16: read tail (EMPTY check)
    //  fix_state: pc 17 read tail, pc 18 read head, pc 19 revalidate tail,
    //             pc 20 CAS tail
    Status step_deq(CrqModelState& s) {
        switch (pc_) {
            case 10:
                t_ = s.head;  // t_ doubles as h for dequeues
                s.head += 1;
                pc_ = 11;
                return Status::kRunning;
            case 11:
                val_ = s.ring[t_ % s.R()].val;
                pc_ = 12;
                return Status::kRunning;
            case 12: {
                si_ = s.ring[t_ % s.R()].si;
                const std::uint64_t idx = idx_of(si_);
                if (idx > t_) {
                    pc_ = 16;
                } else if (val_ != kBottom) {
                    pc_ = (idx == t_) ? 13 : 14;
                } else {
                    pc_ = 15;
                }
                return Status::kRunning;
            }
            case 13: {
                CrqModelState::Cell& cell = s.ring[t_ % s.R()];
                if (cell.si == si_ && cell.val == val_) {
                    cell = {(si_ & kMsb) | (t_ + s.R()), kBottom};
                    return finish(val_);
                }
                pc_ = 11;
                return Status::kRunning;
            }
            case 14: {
                CrqModelState::Cell& cell = s.ring[t_ % s.R()];
                if (cell.si == si_ && cell.val == val_) {
                    cell.si = idx_of(si_);  // clear safe bit
                    ++s.unsafe_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 11;
                }
                return Status::kRunning;
            }
            case 15: {
                CrqModelState::Cell& cell = s.ring[t_ % s.R()];
                if (cell.si == si_ && cell.val == kBottom) {
                    cell.si = (si_ & kMsb) | (t_ + s.R());
                    ++s.empty_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 11;
                }
                return Status::kRunning;
            }
            case 16: {
                const std::uint64_t t = s.tail & (kMsb - 1);
                pc_ = (t <= t_ + 1) ? 17 : 10;
                return Status::kRunning;
            }
            case 17:
                si_ = s.tail;  // reuse si_ as the fix_state tail snapshot
                pc_ = 18;
                return Status::kRunning;
            case 18:
                val_ = s.head;  // reuse val_ as the head snapshot
                pc_ = 19;
                return Status::kRunning;
            case 19:
                if (s.tail != si_) {
                    pc_ = 17;
                } else if ((si_ & kMsb) != 0 || val_ <= si_) {
                    return finish(kEmpty);
                } else {
                    pc_ = 20;
                }
                return Status::kRunning;
            case 20:
                if (s.tail == si_) {
                    s.tail = val_;
                    return finish(kEmpty);
                }
                pc_ = 17;
                return Status::kRunning;
            default: return finish(kEmpty);
        }
    }

    Kind kind_;
    value_t arg_;
    unsigned limit_;
    unsigned pc_ = 0;
    std::uint64_t t_ = 0;    // ticket (enqueue t / dequeue h)
    std::uint64_t val_ = 0;  // last val read (or fix_state head snapshot)
    std::uint64_t si_ = 0;   // last si read (or fix_state tail snapshot)
    unsigned tries_ = 0;
    bool done_ = false;
    value_t result_ = 0;

  public:
    // Dequeue ops start at pc 10.
    void init_pc() noexcept {
        if (kind_ == Kind::kDequeue) pc_ = 10;
    }
};

// Factory keeping construction uniform.
inline CrqModelOp make_model_op(CrqModelOp::Kind kind, value_t arg,
                                unsigned starvation_limit) {
    CrqModelOp op(kind, arg, starvation_limit);
    op.init_pc();
    return op;
}

}  // namespace lcrq::verify
