// Small-step model of the LCRQ list layer over the CRQ model
// (crq_model.hpp), for schedule exploration.
//
// Mirrors queues/linked_ring.hpp: enqueue works in the tail segment and
// appends a fresh seeded segment on CLOSED; dequeue works in the head
// segment, and — in the *corrected* December-2013 algorithm — retries the
// segment once more after seeing a successor before swinging head.  The model carries a
// `corrected` switch so the explorer can demonstrate that the proceedings
// version (without the retry, Fig. 5 lines 146-147 missing) loses items
// under a real interleaving, while the corrected version survives every
// explored schedule.  Hazard pointers are not modeled (no reclamation in
// the model; segments live in a vector).
#pragma once

#include <cstdint>
#include <vector>

#include "verify/crq_model.hpp"

namespace lcrq::verify {

struct LcrqModelState {
    std::vector<CrqModelState> segments;
    std::size_t head_seg = 0;
    std::size_t tail_seg = 0;
    std::uint64_t ring_size;

    explicit LcrqModelState(std::uint64_t r = 2) : ring_size(r) {
        segments.emplace_back(r);
    }

    // Aggregated coverage over all segments.
    std::uint64_t total_closes() const {
        std::uint64_t n = 0;
        for (const auto& s : segments) n += s.closes;
        return n;
    }
    std::size_t appended_segments() const { return segments.size() - 1; }

    // next pointer of segment i: linked iff a later segment exists.
    bool has_next(std::size_t i) const { return i + 1 < segments.size(); }
};

class LcrqModelOp {
  public:
    using Kind = CrqModelOp::Kind;
    using Status = CrqModelOp::Status;

    LcrqModelOp(Kind kind, value_t arg, unsigned starvation_limit, bool corrected)
        : kind_(kind),
          arg_(arg),
          limit_(starvation_limit),
          corrected_(corrected),
          inner_(make_model_op(kind, arg, starvation_limit)) {}

    Status step(LcrqModelState& s) {
        return kind_ == Kind::kEnqueue ? step_enq(s) : step_deq(s);
    }

    bool done() const noexcept { return done_; }
    value_t result() const noexcept { return result_; }
    Kind kind() const noexcept { return kind_; }

    static constexpr value_t kOkResult = 1;  // enqueue always succeeds at LCRQ level

  private:
    Status finish(value_t r) {
        done_ = true;
        result_ = r;
        return Status::kDone;
    }

    void restart_inner() { inner_ = make_model_op(kind_, arg_, limit_); }

    // --- enqueue ----------------------------------------------------------
    //  pc 0: read tail pointer
    //  pc 1: read tail->next (help-swing check)
    //  pc 2: CAS tail forward (help)
    //  pc 3..: inner CRQ enqueue steps
    //  pc 4: CAS(next, null, fresh seeded segment)
    //  pc 5: CAS tail to the fresh segment
    Status step_enq(LcrqModelState& s) {
        switch (pc_) {
            case 0:
                seg_ = s.tail_seg;
                pc_ = 1;
                return Status::kRunning;
            case 1:
                pc_ = s.has_next(seg_) ? 2 : 3;
                return Status::kRunning;
            case 2:
                if (s.tail_seg == seg_) s.tail_seg = seg_ + 1;
                restart_inner();
                pc_ = 0;
                return Status::kRunning;
            case 3:
                if (inner_.step(s.segments[seg_]) == Status::kDone) {
                    if (inner_.result() != CrqModelOp::kClosedResult) {
                        return finish(inner_.result());
                    }
                    pc_ = 4;  // ring closed: try to append
                }
                return Status::kRunning;
            case 4:
                if (!s.has_next(seg_)) {
                    // CAS(next, null, fresh) succeeds: fresh segment seeded
                    // with our item (constructor-time content, one step).
                    CrqModelState fresh(s.ring_size);
                    fresh.ring[0] = {CrqModelState::kMsb | 0, arg_};
                    fresh.tail = 1;
                    s.segments.push_back(fresh);
                    pc_ = 5;
                } else {
                    // Another appender won: retry from the top.
                    restart_inner();
                    pc_ = 0;
                }
                return Status::kRunning;
            case 5:
                if (s.tail_seg == seg_) s.tail_seg = seg_ + 1;
                return finish(arg_);
            default: return finish(arg_);
        }
    }

    // --- dequeue ----------------------------------------------------------
    //  pc 10: read head pointer
    //  pc 11..: inner CRQ dequeue steps (first attempt)
    //  pc 12: read head->next
    //  pc 13..: inner CRQ dequeue steps (second attempt — the fix)
    //  pc 14: CAS head forward
    Status step_deq(LcrqModelState& s) {
        switch (pc_) {
            case 10:
                seg_ = s.head_seg;
                restart_inner();
                pc_ = 11;
                return Status::kRunning;
            case 11:
                if (inner_.step(s.segments[seg_]) == Status::kDone) {
                    if (inner_.result() != kEmpty) return finish(inner_.result());
                    pc_ = 12;
                }
                return Status::kRunning;
            case 12:
                if (!s.has_next(seg_)) return finish(kEmpty);
                if (corrected_) {
                    restart_inner();
                    pc_ = 13;
                } else {
                    pc_ = 14;  // proceedings version: swing immediately
                }
                return Status::kRunning;
            case 13:
                if (inner_.step(s.segments[seg_]) == Status::kDone) {
                    if (inner_.result() != kEmpty) return finish(inner_.result());
                    pc_ = 14;
                }
                return Status::kRunning;
            case 14:
                if (s.head_seg == seg_) s.head_seg = seg_ + 1;
                pc_ = 10;
                return Status::kRunning;
            default: return finish(kEmpty);
        }
    }

    Kind kind_;
    value_t arg_;
    unsigned limit_;
    bool corrected_;
    CrqModelOp inner_;
    std::size_t seg_ = 0;
    unsigned pc_ = 0;
    bool done_ = false;
    value_t result_ = 0;

  public:
    void init_pc() noexcept { pc_ = (kind_ == Kind::kDequeue) ? 10 : 0; }
};

inline LcrqModelOp make_lcrq_model_op(LcrqModelOp::Kind kind, value_t arg,
                                      unsigned starvation_limit, bool corrected) {
    LcrqModelOp op(kind, arg, starvation_limit, corrected);
    op.init_pc();
    return op;
}

}  // namespace lcrq::verify
