// A small-step executable model of the SCQ ring and of wCQ, which is the
// SCQ ring plus a helping layer (verify substrate; companion of
// crq_model.hpp).
//
// Mirrors ScqRing (`queues/scq.hpp`) and WcqRing (`queues/wcq.hpp`)
// with *every shared-memory access as one atomic step*, so the explorer
// (explore.hpp) can enumerate the interleavings each protocol exists for.
// One op machine runs both:
//
//   * SCQ mode (helping off; ScqModelOp / make_scq_model_op): the fast
//     path only — F&A ticket, cycle/safe entry CAS, threshold-bounded
//     EMPTY, catchup — with the consume a fetch-or, as in ScqRing::take_at.
//     It covers an enqueuer stalled between its F&A and its entry CAS
//     while dequeuers lap the ring, the threshold draining to a correct
//     EMPTY under a racing slow enqueuer, and the catchup repair of
//     head > tail.
//   * wCQ mode (helping on; make_wcq_model_op): the same fast path with a
//     CAS consume (the cell must not be stamped while a helper could be
//     turning it into a note), extended after `patience` failed rounds
//     with the slow path — request publication, note reservation, the
//     single-word commit CAS on the request's arg word, idempotent
//     cleanup.  It covers a requester killed between placing its note and
//     committing it, a ticket holder resolving a foreign note mid-chase,
//     and the two-helpers-race on the commit word whose blind-revert
//     variant loses items (see `corrected` below).
//
// The consume is the only step in which the modes differ.  wCQ's extra
// dequeue branch (cycle == cycle(h) with ⊥: the cell was consumed through
// a note) cannot fire in SCQ mode, because only the holder of ticket h
// writes cycle(h), and it does so with an item or by its own empty
// transition, after which it never re-reads the cell.
//
// The model is the *value-carrying ring*: entries hold script values
// directly (⊥ = kBottom), where the production ring holds slot indices and
// pairs two rings over a data array.  The pairing adds no new transition
// kind — aq and fq are both this protocol — so the ring model is the part
// worth enumerating, and the model-vs-real differentials run against a raw
// ScqRing / WcqRing holding small integers.
//
// Fidelity notes (kept in sync with both rings by the differential tests):
//   * entries are modeled unpacked (cycle, safe, idx, note fields) — the
//     production entry packs note|kind|tag|slot into spare cycle bits; the
//     packing is bijective, so one modeled CAS is one real CAS.
//   * the cache remap is modeled as identity; it permutes slots without
//     changing the protocol (and is identity for tiny real rings anyway).
//   * no close path: neither ring closes itself (the close is one T&S
//     exercised by the list-level tests, not a ring transition worth
//     enumerating), so there is no closed bit, the kClosed resolutions
//     drop out and fix_tail always succeeds (it still takes its load+CAS
//     steps — the tail race is real).
//   * per-request records: the production ring multiplexes 64 tagged
//     slots and re-tags them per request; request identity there is
//     (slot, 16-bit tag), bijective to a fresh record up to the
//     documented tag-wrap bound.  The model gives every slow publication
//     a fresh record (identity = index), dropping the wrap — and with it
//     record collisions and the owner-mediated IDLE/CLAIMED/DONE
//     acquisition states that guard reuse, which are a
//     fallback-to-fast-path liveness detail, not a protocol transition
//     (a fresh record per request is exactly what owner-mediated reuse
//     guarantees each live requester).
//   * self-help only: the help_if_needed() peer scan is not modeled (it
//     only changes *who* runs help steps, not which steps exist); note
//     resolution by fast-path ticket holders that encounter a note IS
//     modeled, and is exactly how peers interact with a dead requester.
//   * converging CAS-retry loops whose failure path only re-reads the
//     same word — cleanup materialize/consume, fix_head, the slow-path
//     catchup — are folded to one step each; their post-states are
//     schedule-independent and they publish no intermediate states.
//   * the publish folds the record stores and the initial-candidate tail
//     load into one step: the record words are private until the req
//     store makes them visible, and the candidate is only a heuristic
//     starting point for the chase.
//   * a fast-path enqueue resolves at most one note per round before
//     surrendering its ticket (the real put_at can resolve again after a
//     failed publish CAS) — a round-accounting detail, not a transition.
//
// `corrected = false` (ExploreConfig, shared with the LCRQ family's
// December-2013 knob) reverts a losing commit CAS *blindly*, the way a
// first reading of "lost the commit ⇒ my note lost" suggests.  That is
// wrong: the commit may have been decided in favour of this very note by
// a concurrent resolver, and reverting the winning note unpublishes a
// committed item.  The explorer finds the lost-item schedules; the
// corrected protocol re-reads arg and only reverts notes that lost to a
// different ticket (wcq.hpp does the same).
//
// Contract caveat for script authors, in both modes: the ring is correct
// only while its *occupancy* — live items plus in-flight enqueues — stays
// ≤ capacity, the invariant the fq/aq pairing enforces in the full Scq and
// Wcq (fq can hand out at most n indices).  Overfilled scripts make
// enqueuers burn tickets forever (pruned schedules) and can legitimately
// drive the 3n-1 threshold to a false EMPTY — the explorer will report
// those as real linearizability violations, because they are: that is the
// ring outside its operating envelope, not a model bug.  The simplest safe
// script shape is total enqueues ≤ capacity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "queues/queue_common.hpp"
#include "verify/crq_model.hpp"  // Kind/Status vocabulary shared by all op models
#include "verify/history.hpp"    // kEmpty

namespace lcrq::verify {

// Shared ring state: capacity n, ring of N = 2n entries, head/tail
// starting one full lap in (cycle 1) as in the production ring, threshold
// -1 (empty), plus the helping records (wCQ mode only).
struct WcqModelState {
    static constexpr std::uint32_t kNoRec = ~std::uint32_t{0};
    static constexpr std::uint64_t kArgNone = ~std::uint64_t{0};
    static constexpr std::uint64_t kArgEmpty = ~std::uint64_t{0} - 1;

    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    std::int64_t threshold = -1;

    struct Cell {
        std::uint64_t cycle;
        bool safe;
        value_t idx;  // stored value, or kBottom (⊥); a note's covered value
        bool note = false;      // reserved by a slow-path request
        bool note_deq = false;  // reservation kind
        std::uint32_t rec = kNoRec;  // owning record (kNoRec when !note)
        friend bool operator==(const Cell&, const Cell&) = default;
    };
    std::vector<Cell> ring;

    // One record per slow publication (see fidelity notes).  req's
    // (state, ticket) and the arg commit word are modeled verbatim; val
    // carries the enqueue input / dequeue output.
    struct Rec {
        bool deq;
        bool pending;
        std::uint64_t ticket;  // candidate, advanced by CAS
        std::uint64_t arg;     // kArgNone / kArgEmpty / committed ticket
        value_t val;
        friend bool operator==(const Rec&, const Rec&) = default;
    };
    std::vector<Rec> recs;

    // Coverage counters (not protocol state); cf. CrqModelState.
    std::uint32_t unsafe_transitions = 0;
    std::uint32_t empty_transitions = 0;
    std::uint32_t enq_rescues = 0;
    std::uint32_t catchups = 0;
    std::uint32_t threshold_empties = 0;
    std::uint32_t slow_publishes = 0;  // requests published
    std::uint32_t notes_placed = 0;    // note reservation CASes that landed
    std::uint32_t note_commits = 0;    // arg CASes deciding a ticket
    std::uint32_t note_reverts = 0;    // loser notes taken back
    std::uint32_t empty_commits = 0;   // arg CASes deciding EMPTY

    // `armed` starts the threshold at full — the reachable state right
    // after an enqueue/dequeue pair (a successful dequeue does not drop
    // the threshold).  Without it, the threshold<0 gate serializes every
    // dequeuer behind the first completed enqueue, and tiny scripts can
    // never lose a fast-path round — i.e. never reach the slow path.
    explicit WcqModelState(std::uint64_t capacity = 2, bool armed = false) {
        ring.resize(capacity * 2);
        for (auto& c : ring) c = {0, true, kBottom};
        head = tail = ring.size();
        if (armed) threshold = threshold_full();
    }

    std::uint64_t N() const noexcept { return ring.size(); }
    std::uint64_t capacity() const noexcept { return ring.size() / 2; }
    std::int64_t threshold_full() const noexcept {
        return static_cast<std::int64_t>(3 * capacity() - 1);
    }
    std::uint64_t cycle_of_ticket(std::uint64_t t) const noexcept {
        return t / N();
    }
};

// One ring operation as a resumable step machine.  Program counters:
//   fast enqueue  0-5   (note awareness at pc 1 in wCQ mode)
//   fast dequeue 10-21  (consume at pc 13: fetch-or in SCQ mode, CAS in
//                        wCQ mode, exactly as in the two take_at)
//   slow enqueue 30-46  (publish, help loop, fix_tail, commit, cleanup)
//   slow dequeue 50-67  (publish, help loop, EMPTY commit, cleanup)
//   resolve_note 80-90  (subroutine; returns to rs_ret_)
class WcqModelOp {
  public:
    using Kind = CrqModelOp::Kind;
    using Status = CrqModelOp::Status;

    // helping = false is SCQ mode: patience, corrected and force_slow are
    // then unused.
    WcqModelOp(Kind kind, value_t arg, unsigned patience, bool corrected,
               bool force_slow, bool helping = true)
        : kind_(kind),
          arg_(arg),
          patience_(patience),
          corrected_(corrected),
          helping_(helping) {
        if (kind_ == Kind::kDequeue) pc_ = force_slow ? 50 : 10;
        else pc_ = force_slow ? 30 : 0;
    }

    Status step(WcqModelState& s) {
        if (pc_ >= 80) return step_resolve(s);
        if (pc_ >= 50) return step_slow_deq(s);
        if (pc_ >= 30) return step_slow_enq(s);
        if (pc_ >= 10) return step_deq(s);
        return step_enq(s);
    }

    bool done() const noexcept { return done_; }
    value_t result() const noexcept { return result_; }
    Kind kind() const noexcept { return kind_; }
    value_t arg() const noexcept { return arg_; }

  private:
    using Cell = WcqModelState::Cell;
    static constexpr std::uint32_t kNoRec = WcqModelState::kNoRec;
    static constexpr std::uint64_t kArgNone = WcqModelState::kArgNone;
    static constexpr std::uint64_t kArgEmpty = WcqModelState::kArgEmpty;

    Status finish(value_t r) {
        done_ = true;
        result_ = r;
        return Status::kDone;
    }

    Cell& cell(WcqModelState& s, std::uint64_t t) const {
        return s.ring[t % s.N()];
    }

    // Enter the resolve_note subroutine for the note `c` found at ticket
    // position t; resume at ret when it returns.
    Status start_resolve(WcqModelState& s, const Cell& c, std::uint64_t t,
                         unsigned ret) {
        rs_rec_ = c.rec;
        rs_saved_ = c;
        rs_t_ = c.cycle * s.N() + (t % s.N());
        rs_ret_ = ret;
        pc_ = 80;
        return Status::kRunning;
    }

    // A fast-path round failed: retry, or (wCQ) go slow once out of patience.
    void fail_enq_round() { pc_ = helping_ && ++rounds_ > patience_ ? 30 : 0; }

    // --- fast enqueue: mirrors ScqRing/WcqRing::enqueue and put_at ---------
    Status step_enq(WcqModelState& s) {
        switch (pc_) {
            case 0:
                t_ = s.tail;
                s.tail += 1;
                tried_resolve_ = false;
                pc_ = 1;
                return Status::kRunning;
            case 1: {
                const Cell& c = cell(s, t_);
                cell_ = c;
                if (c.note) {
                    // Reserved: drive it to a decision once, then give the
                    // ticket up if the cell is still reserved.
                    if (tried_resolve_) {
                        fail_enq_round();
                        return Status::kRunning;
                    }
                    tried_resolve_ = true;
                    return start_resolve(s, c, t_, 1);
                }
                if (c.idx != kBottom || c.cycle >= s.cycle_of_ticket(t_)) {
                    fail_enq_round();
                } else {
                    pc_ = c.safe ? 3 : 2;
                }
                return Status::kRunning;
            }
            case 2:
                if (s.head <= t_) {
                    ++s.enq_rescues;
                    pc_ = 3;
                } else {
                    fail_enq_round();
                }
                return Status::kRunning;
            case 3: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), true, arg_};
                    pc_ = 4;
                } else {
                    pc_ = 1;
                }
                return Status::kRunning;
            }
            case 4:
                if (s.threshold != s.threshold_full()) {
                    pc_ = 5;
                    return Status::kRunning;
                }
                return finish(arg_);
            case 5:
                s.threshold = s.threshold_full();
                return finish(arg_);
            default: return finish(arg_);
        }
    }

    // --- fast dequeue: mirrors ScqRing/WcqRing::dequeue, take_at, catchup --
    Status step_deq(WcqModelState& s) {
        switch (pc_) {
            case 10:
                if (s.threshold < 0) return finish(kEmpty);
                pc_ = 11;
                return Status::kRunning;
            case 11:
                t_ = s.head;
                s.head += 1;
                pc_ = 12;
                return Status::kRunning;
            case 12: {
                const Cell& c = cell(s, t_);
                cell_ = c;
                if (c.note) return start_resolve(s, c, t_, 12);
                const std::uint64_t hc = s.cycle_of_ticket(t_);
                if (c.cycle == hc) {
                    pc_ = c.idx == kBottom ? 16 : 13;  // ⊥: slow-consumed
                } else if (c.cycle > hc) {
                    pc_ = 16;
                } else if (c.idx != kBottom) {
                    pc_ = c.safe ? 14 : 16;
                } else {
                    pc_ = 15;
                }
                return Status::kRunning;
            }
            case 13: {
                // Consume.  SCQ: a fetch-or that stamps ⊥ and cannot fail
                // (concurrent transitions can only have flipped safe).
                // wCQ: a CAS — the cell must not be stamped while a helper
                // could be turning it into a note.
                Cell& c = cell(s, t_);
                if (!helping_) {
                    c.idx = kBottom;
                    return finish(cell_.idx);
                }
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
                    return finish(cell_.idx);
                }
                pc_ = 12;
                return Status::kRunning;
            }
            case 14: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c.safe = false;
                    ++s.unsafe_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 12;
                }
                return Status::kRunning;
            }
            case 15: {
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
                    ++s.empty_transitions;
                    pc_ = 16;
                } else {
                    pc_ = 12;
                }
                return Status::kRunning;
            }
            case 16:
                tsnap_ = s.tail;
                if (tsnap_ <= t_ + 1) {
                    cand_ = t_ + 1;
                    pc_ = 17;
                } else {
                    pc_ = 21;
                }
                return Status::kRunning;
            case 17:
                if (tsnap_ >= cand_) {
                    pc_ = 20;
                } else if (s.tail == tsnap_) {
                    s.tail = cand_;
                    ++s.catchups;
                    pc_ = 20;
                } else {
                    pc_ = 18;
                }
                return Status::kRunning;
            case 18:
                cand_ = s.head;
                pc_ = 19;
                return Status::kRunning;
            case 19:
                tsnap_ = s.tail;
                pc_ = 17;
                return Status::kRunning;
            case 20:
                s.threshold -= 1;
                return finish(kEmpty);
            case 21:
                if (s.threshold-- <= 0) {
                    ++s.threshold_empties;
                    return finish(kEmpty);
                }
                pc_ = helping_ && ++rounds_ > patience_ ? 50 : 11;
                return Status::kRunning;
            default: return finish(kEmpty);
        }
    }

    // --- slow enqueue: mirrors enqueue_slow + help_enqueue ----------------
    Status step_slow_enq(WcqModelState& s) {
        switch (pc_) {
            case 30:  // publish (record stores folded; see fidelity notes)
                rec_ = static_cast<std::uint32_t>(s.recs.size());
                s.recs.push_back({false, true, s.tail, kArgNone, arg_});
                ++s.slow_publishes;
                pc_ = 31;
                return Status::kRunning;
            case 31: {  // load arg: decided?
                const std::uint64_t a = s.recs[rec_].arg;
                if (a == kArgNone) {
                    pc_ = 32;
                } else {
                    ct_ = a;
                    pc_ = 43;
                }
                return Status::kRunning;
            }
            case 32:  // load req: candidate ticket
                cand_ = s.recs[rec_].ticket;
                t_ = cand_;
                pc_ = 33;
                return Status::kRunning;
            case 33: {  // load entry at the candidate
                const Cell& c = cell(s, t_);
                cell_ = c;
                if (c.note) {
                    if (c.rec == rec_ && c.cycle == s.cycle_of_ticket(t_)) {
                        // Our own pending note (its placer may be stalled
                        // anywhere): adopt it — fix tail, then commit.
                        placed_ = false;
                        noted_ = c;
                        pc_ = 38;
                        return Status::kRunning;
                    }
                    return start_resolve(s, c, t_, 31);
                }
                if (c.cycle < s.cycle_of_ticket(t_) && c.idx == kBottom) {
                    pc_ = c.safe ? 37 : 34;
                } else {
                    pc_ = 35;  // unusable: advance the candidate
                }
                return Status::kRunning;
            }
            case 34:  // unsafe cell: the head <= t rescue check
                if (s.head <= t_) {
                    ++s.enq_rescues;
                    pc_ = 37;
                } else {
                    pc_ = 35;
                }
                return Status::kRunning;
            case 35:  // next candidate = max(t+1, tail)
                tsnap_ = s.tail;
                pc_ = 36;
                return Status::kRunning;
            case 36: {  // candidate CAS on req
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.pending && r.ticket == cand_) {
                    r.ticket = std::max(t_ + 1, tsnap_);
                }
                pc_ = 31;
                return Status::kRunning;
            }
            case 37: {  // note-place CAS
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), true, arg_, true, false, rec_};
                    noted_ = c;
                    ++s.notes_placed;
                    placed_ = true;
                    pc_ = 38;
                } else {
                    pc_ = 33;
                }
                return Status::kRunning;
            }
            case 38:  // fix_tail: load
                tsnap_ = s.tail;
                pc_ = tsnap_ > t_ ? 40 : 39;
                return Status::kRunning;
            case 39:  // fix_tail: CAS
                if (s.tail == tsnap_) {
                    s.tail = t_ + 1;
                    pc_ = 40;
                } else {
                    pc_ = 38;
                }
                return Status::kRunning;
            case 40: {  // commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = t_;
                    ++s.note_commits;
                    ct_ = t_;
                    pc_ = 43;
                } else if (!placed_) {
                    pc_ = 31;  // adopted note: the loop re-reads arg
                } else {
                    pc_ = corrected_ ? 41 : 42;
                }
                return Status::kRunning;
            }
            case 41:  // corrected lose-branch: did OUR ticket win anyway?
                pc_ = s.recs[rec_].arg == t_ ? 31 : 42;
                return Status::kRunning;
            case 42: {  // revert the loser note
                Cell& c = cell(s, t_);
                if (c == noted_) {
                    c = {noted_.cycle, noted_.safe, kBottom};
                    ++s.note_reverts;
                }
                pc_ = 31;
                return Status::kRunning;
            }
            case 43: {  // cleanup: materialize the winning note (folded)
                Cell& c = cell(s, ct_);
                if (c.note && c.rec == rec_ &&
                    c.cycle == s.cycle_of_ticket(ct_)) {
                    c = {c.cycle, c.safe, c.idx};
                    pc_ = 44;
                } else {
                    pc_ = 46;  // already materialized (maybe consumed)
                }
                return Status::kRunning;
            }
            case 44:
                pc_ = s.threshold != s.threshold_full() ? 45 : 46;
                return Status::kRunning;
            case 45:
                s.threshold = s.threshold_full();
                pc_ = 46;
                return Status::kRunning;
            case 46:  // finish_req
                s.recs[rec_].pending = false;
                return finish(arg_);
            default: return finish(arg_);
        }
    }

    // --- slow dequeue: mirrors dequeue_slow + help_dequeue ----------------
    Status step_slow_deq(WcqModelState& s) {
        switch (pc_) {
            case 50:  // publish
                rec_ = static_cast<std::uint32_t>(s.recs.size());
                s.recs.push_back({true, true, s.head, kArgNone, 0});
                ++s.slow_publishes;
                pc_ = 51;
                return Status::kRunning;
            case 51: {  // load arg
                const std::uint64_t a = s.recs[rec_].arg;
                if (a == kArgNone) {
                    pc_ = 52;
                } else if (a == kArgEmpty) {
                    empty_result_ = true;
                    pc_ = 56;
                } else {
                    ct_ = a;
                    pc_ = 59;
                }
                return Status::kRunning;
            }
            case 52:
                cand_ = s.recs[rec_].ticket;
                t_ = cand_;
                pc_ = 53;
                return Status::kRunning;
            case 53: {  // load entry at the candidate
                const Cell& c = cell(s, t_);
                cell_ = c;
                const std::uint64_t hc = s.cycle_of_ticket(t_);
                if (c.note && c.cycle == hc) {
                    if (c.rec == rec_ && c.note_deq) {
                        placed_ = false;
                        noted_ = c;
                        pc_ = 55;  // our own pending note: adopt and commit
                        return Status::kRunning;
                    }
                    return start_resolve(s, c, t_, 51);
                }
                if (c.note) return start_resolve(s, c, t_, 51);  // old cycle
                if (c.cycle == hc && c.idx != kBottom) {
                    pc_ = 54;  // consumable: reserve it
                } else if (c.cycle < hc && c.idx != kBottom) {
                    pc_ = c.safe ? 61 : 63;
                } else if (c.cycle < hc) {
                    pc_ = 62;
                } else {
                    pc_ = 63;  // cycle == hc && ⊥, or overtaken
                }
                return Status::kRunning;
            }
            case 54: {  // note-place CAS
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {c.cycle, c.safe, c.idx, true, true, rec_};
                    noted_ = c;
                    ++s.notes_placed;
                    placed_ = true;
                    pc_ = 55;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 55: {  // commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = t_;
                    ++s.note_commits;
                    ct_ = t_;
                    pc_ = 59;
                } else if (!placed_) {
                    pc_ = 51;
                } else {
                    pc_ = corrected_ ? 57 : 58;
                }
                return Status::kRunning;
            }
            case 56:  // finish_req + read the result
                s.recs[rec_].pending = false;
                return finish(empty_result_ ? kEmpty : s.recs[rec_].val);
            case 57:  // corrected lose-branch
                pc_ = s.recs[rec_].arg == t_ ? 51 : 58;
                return Status::kRunning;
            case 58: {  // revert the loser note: release the covered item
                Cell& c = cell(s, t_);
                if (c == noted_) {
                    c = {noted_.cycle, noted_.safe, noted_.idx};
                    ++s.note_reverts;
                }
                pc_ = 51;
                return Status::kRunning;
            }
            case 59: {  // cleanup: publish val, consume the cell (folded)
                Cell& c = cell(s, ct_);
                if (c.note && c.rec == rec_ &&
                    c.cycle == s.cycle_of_ticket(ct_)) {
                    s.recs[rec_].val = c.idx;
                    c = {c.cycle, c.safe, kBottom};
                }
                pc_ = 60;
                return Status::kRunning;
            }
            case 60:  // fix_head past the consumed ticket (folded)
                if (s.head <= ct_) s.head = ct_ + 1;
                pc_ = 56;
                return Status::kRunning;
            case 61: {  // ticket holder's unsafe transition
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c.safe = false;
                    ++s.unsafe_transitions;
                    pc_ = 63;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 62: {  // ticket holder's empty transition
                Cell& c = cell(s, t_);
                if (c == cell_) {
                    c = {s.cycle_of_ticket(t_), cell_.safe, kBottom};
                    ++s.empty_transitions;
                    pc_ = 63;
                } else {
                    pc_ = 53;
                }
                return Status::kRunning;
            }
            case 63:  // EMPTY check
                tsnap_ = s.tail;
                pc_ = tsnap_ <= t_ + 1 ? 64 : 66;
                return Status::kRunning;
            case 64:  // catchup (folded)
                if (s.tail == tsnap_ && tsnap_ < t_ + 1) {
                    s.tail = t_ + 1;
                    ++s.catchups;
                }
                pc_ = 65;
                return Status::kRunning;
            case 65: {  // EMPTY commit CAS on arg
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.arg == kArgNone) {
                    r.arg = kArgEmpty;
                    ++s.empty_commits;
                }
                pc_ = 51;
                return Status::kRunning;
            }
            case 66:  // next candidate = max(h+1, head)
                tsnap_ = s.head;
                pc_ = 67;
                return Status::kRunning;
            case 67: {
                WcqModelState::Rec& r = s.recs[rec_];
                if (r.pending && r.ticket == cand_) {
                    r.ticket = std::max(t_ + 1, tsnap_);
                }
                pc_ = 51;
                return Status::kRunning;
            }
            default: return finish(kEmpty);
        }
    }

    // --- resolve_note: drive a foreign (or stale own) note to a decision --
    Status step_resolve(WcqModelState& s) {
        switch (pc_) {
            case 80: {  // is the note still there?
                const Cell& c = cell(s, rs_t_);
                if (!(c == rs_saved_)) {
                    pc_ = rs_ret_;
                } else {
                    pc_ = 81;
                }
                return Status::kRunning;
            }
            case 81: {  // load the request's arg
                const std::uint64_t a = s.recs[rs_rec_].arg;
                if (a == kArgNone) {
                    // Undecided: decide in favour of this note (enqueue
                    // notes must fix tail first, exactly like the owner).
                    pc_ = rs_saved_.note_deq ? 84 : 82;
                } else if (a == rs_t_) {
                    pc_ = 86;  // this note won: finish the cleanup
                } else {
                    pc_ = 85;  // committed elsewhere: loser
                }
                return Status::kRunning;
            }
            case 82:  // fix_tail: load
                tsnap_ = s.tail;
                pc_ = tsnap_ > rs_t_ ? 84 : 83;
                return Status::kRunning;
            case 83:  // fix_tail: CAS
                if (s.tail == tsnap_) {
                    s.tail = rs_t_ + 1;
                    pc_ = 84;
                } else {
                    pc_ = 82;
                }
                return Status::kRunning;
            case 84: {  // decide CAS, then re-read (the owner may race us)
                WcqModelState::Rec& r = s.recs[rs_rec_];
                if (r.arg == kArgNone) {
                    r.arg = rs_t_;
                    ++s.note_commits;
                }
                pc_ = 80;
                return Status::kRunning;
            }
            case 85: {  // revert the loser note
                Cell& c = cell(s, rs_t_);
                if (c == rs_saved_) {
                    c = rs_saved_.note_deq
                            ? Cell{rs_saved_.cycle, rs_saved_.safe,
                                   rs_saved_.idx}
                            : Cell{rs_saved_.cycle, rs_saved_.safe, kBottom};
                    ++s.note_reverts;
                }
                pc_ = rs_ret_;
                return Status::kRunning;
            }
            case 86: {  // cleanup on the winner's behalf (folded)
                Cell& c = cell(s, rs_t_);
                const bool mine = c.note && c.rec == rs_rec_ &&
                                  c.cycle == s.cycle_of_ticket(rs_t_);
                if (rs_saved_.note_deq) {
                    if (mine) {
                        s.recs[rs_rec_].val = c.idx;
                        c = {c.cycle, c.safe, kBottom};
                    }
                    pc_ = 90;
                } else {
                    if (mine) {
                        c = {c.cycle, c.safe, c.idx};
                        pc_ = 87;
                    } else {
                        pc_ = 89;
                    }
                }
                return Status::kRunning;
            }
            case 87:
                pc_ = s.threshold != s.threshold_full() ? 88 : 89;
                return Status::kRunning;
            case 88:
                s.threshold = s.threshold_full();
                pc_ = 89;
                return Status::kRunning;
            case 89:  // finish_req for the helped request
                s.recs[rs_rec_].pending = false;
                pc_ = rs_ret_;
                return Status::kRunning;
            case 90:  // fix_head for the helped dequeue (folded)
                if (s.head <= rs_t_) s.head = rs_t_ + 1;
                pc_ = 89;
                return Status::kRunning;
            default:
                pc_ = rs_ret_;
                return Status::kRunning;
        }
    }

    Kind kind_;
    value_t arg_;
    unsigned patience_;
    bool corrected_;
    bool helping_;
    unsigned pc_ = 0;
    unsigned rounds_ = 0;
    bool tried_resolve_ = false;
    std::uint64_t t_ = 0;      // current ticket (fast F&A or slow candidate)
    std::uint64_t cand_ = 0;   // candidate snapshot for the req CAS
    std::uint64_t ct_ = 0;     // committed ticket (cleanup target)
    std::uint64_t tsnap_ = 0;  // tail/head snapshot
    std::uint32_t rec_ = kNoRec;  // own request record
    Cell cell_{};   // entry snapshot for CAS expectations
    Cell noted_{};  // our placed/adopted note, for the revert CAS
    bool placed_ = false;
    bool empty_result_ = false;
    // resolve_note frame
    std::uint32_t rs_rec_ = kNoRec;
    std::uint64_t rs_t_ = 0;
    Cell rs_saved_{};
    unsigned rs_ret_ = 0;
    bool done_ = false;
    value_t result_ = 0;
};

inline WcqModelOp make_wcq_model_op(WcqModelOp::Kind kind, value_t arg,
                                    unsigned patience = 64,
                                    bool corrected = true,
                                    bool force_slow = false) {
    return WcqModelOp(kind, arg, patience, corrected, force_slow);
}

// The SCQ ring: the same machine with helping off.
using ScqModelState = WcqModelState;
using ScqModelOp = WcqModelOp;
inline ScqModelOp make_scq_model_op(ScqModelOp::Kind kind, value_t arg) {
    return ScqModelOp(kind, arg, 0, true, false, /*helping=*/false);
}

}  // namespace lcrq::verify
