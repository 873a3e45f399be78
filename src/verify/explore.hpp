// Schedule exploration of the queue step models.
//
// The search core (search.hpp: search_exhaustive / search_random) drives
// any small world of step machines: every possible interleaving,
// depth-first, for tiny configurations, or uniformly random interleavings
// for larger ones.  This header is its queue client: the step models of
// crq_model.hpp, lcrq_model.hpp, infinite_array_model.hpp and
// wcq_model.hpp (which also models the SCQ ring with helping off).
//
// For the queues, each thread runs a script of operations.  Every
// completed execution yields a history with step-counter timestamps,
// which is checked with the exact linearizability checker plus the tantrum
// rule (no enqueue that starts after a CLOSED response may succeed —
// applicable to the bare-CRQ family).
//
// This is the executable counterpart of the paper's §4.1.2 proof: instead
// of trusting that the safe-bit protocol covers all interleavings, the
// tiny-configuration tests *enumerate* them.  The LCRQ family additionally
// demonstrates the December-2013 correction: with `corrected = false` the
// explorer finds the proceedings version's lost-item schedules.
#pragma once

#include <string>
#include <vector>

#include "util/xorshift.hpp"
#include "verify/crq_model.hpp"
#include "verify/infinite_array_model.hpp"
#include "verify/lcrq_model.hpp"
#include "verify/lin_check.hpp"
#include "verify/search.hpp"
#include "verify/wcq_model.hpp"

namespace lcrq::verify {

// --- queue scripts -------------------------------------------------------------

struct ScriptOp {
    CrqModelOp::Kind kind;
    value_t arg = 0;
};
using ThreadScript = std::vector<ScriptOp>;

inline ScriptOp enq_op(value_t v) { return {CrqModelOp::Kind::kEnqueue, v}; }
inline ScriptOp deq_op() { return {CrqModelOp::Kind::kDequeue, 0}; }

struct ExploreConfig {
    std::uint64_t ring_size = 2;
    unsigned starvation_limit = 2;
    // LCRQ family: include the December-2013 second-dequeue fix?
    // wCQ family: re-check arg before reverting a note whose commit CAS
    // lost (false = blind revert, which loses items; wcq_model.hpp).
    bool corrected = true;
    // wCQ family: failed fast-path rounds before an op publishes a
    // helping request.  Low values route the explorer into the slow path.
    unsigned wcq_patience = 1;
    // wCQ family: start with the threshold armed (the state after a prior
    // enqueue/dequeue pair), so script dequeuers can race the first
    // enqueue's cell instead of serializing behind the threshold gate.
    bool wcq_armed = false;
    // Exhaustive mode completes at most this many schedules and reports
    // truncated=true if the search had more; random mode runs exactly
    // `samples` schedules.
    std::uint64_t max_schedules = 5'000'000;
    // Schedules longer than this are pruned unchecked (counted in
    // `pruned`).  Needed because some modeled algorithms can livelock —
    // the infinite-array queue genuinely does (the paper says so; the
    // explorer would otherwise recurse down those branches forever).
    std::uint64_t max_steps = 400;
    std::uint64_t samples = 10'000;
    std::uint64_t seed = 1;
};

struct ExploreResult {
    std::uint64_t schedules = 0;
    std::uint64_t violations = 0;
    bool truncated = false;  // exhaustive search had more than max_schedules
    std::string first_error{};

    // Coverage across all explored schedules (see CrqModelState counters).
    std::uint64_t unsafe_transitions = 0;
    std::uint64_t empty_transitions = 0;
    std::uint64_t closes = 0;
    std::uint64_t enq_rescues = 0;
    std::uint64_t appended_segments = 0;  // LCRQ family only
    std::uint64_t catchups = 0;           // SCQ family only: tail repairs
    std::uint64_t threshold_empties = 0;  // SCQ family only: EMPTY via threshold
    std::uint64_t slow_publishes = 0;     // wCQ family: requests published
    std::uint64_t notes_placed = 0;       // wCQ family: reservations landed
    std::uint64_t note_commits = 0;       // wCQ family: ticket commits on arg
    std::uint64_t note_reverts = 0;       // wCQ family: loser notes taken back
    std::uint64_t empty_commits = 0;      // wCQ family: EMPTY commits on arg
    std::uint64_t pruned = 0;             // schedules cut at max_steps

    bool ok() const noexcept { return violations == 0 && !truncated; }

    // One-line budget/coverage digest for failure messages.  A plain
    // "violations == 0" pass can silently mean "explored almost nothing"
    // when the budget truncated the enumeration or max_steps pruned the
    // interesting branches — surface both so a failing (or vacuous) run
    // says which budget to raise.
    std::string summary() const {
        std::string s = "schedules=" + std::to_string(schedules) +
                        " violations=" + std::to_string(violations) +
                        " pruned=" + std::to_string(pruned);
        if (truncated) s += " TRUNCATED(past max_schedules)";
        if (!first_error.empty()) s += " first_error=\"" + first_error + "\"";
        return s;
    }
};

// --- model families --------------------------------------------------------

struct CrqFamily {
    using State = CrqModelState;
    using Op = CrqModelOp;

    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_model_op(s.kind, s.arg, cfg.starvation_limit);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        out.unsafe_transitions += s.unsafe_transitions;
        out.empty_transitions += s.empty_transitions;
        out.closes += s.closes;
        out.enq_rescues += s.enq_rescues;
    }
};

struct LcrqFamily {
    using State = LcrqModelState;
    using Op = LcrqModelOp;

    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_lcrq_model_op(s.kind, s.arg, cfg.starvation_limit, cfg.corrected);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        for (const auto& seg : s.segments) {
            out.unsafe_transitions += seg.unsafe_transitions;
            out.empty_transitions += seg.empty_transitions;
            out.enq_rescues += seg.enq_rescues;
        }
        out.closes += s.total_closes();
        out.appended_segments += s.appended_segments();
    }
};

// SCQ and wCQ share one step model (wcq_model.hpp); the SCQ family runs
// it with helping off.  cfg.ring_size is the capacity n (2n modeled
// entries), so CRQ and SCQ configs describe the same logical size.
struct WcqFamily {
    using State = WcqModelState;
    using Op = WcqModelOp;

    static State make_state(const ExploreConfig& cfg) {
        return State(cfg.ring_size, cfg.wcq_armed);
    }
    static Op make_op(const ScriptOp& s, const ExploreConfig& cfg) {
        return make_wcq_model_op(s.kind, s.arg, cfg.wcq_patience, cfg.corrected);
    }
    static void accumulate(const State& s, ExploreResult& out) {
        out.unsafe_transitions += s.unsafe_transitions;
        out.empty_transitions += s.empty_transitions;
        out.enq_rescues += s.enq_rescues;
        out.catchups += s.catchups;
        out.threshold_empties += s.threshold_empties;
        out.slow_publishes += s.slow_publishes;
        out.notes_placed += s.notes_placed;
        out.note_commits += s.note_commits;
        out.note_reverts += s.note_reverts;
        out.empty_commits += s.empty_commits;
    }
};

struct ScqFamily : WcqFamily {
    static State make_state(const ExploreConfig& cfg) { return State(cfg.ring_size); }
    static Op make_op(const ScriptOp& s, const ExploreConfig&) {
        return make_scq_model_op(s.kind, s.arg);
    }
};

struct InfArrayFamily {
    using State = InfArrayModelState;
    using Op = InfArrayModelOp;

    static State make_state(const ExploreConfig&) { return State{}; }
    static Op make_op(const ScriptOp& s, const ExploreConfig&) {
        return Op(s.kind, s.arg);
    }
    static void accumulate(const State&, ExploreResult&) {}
};

namespace detail_explore {

// The queue-family world: each thread runs its script, one op at a time.
template <typename Family>
struct World {
    typename Family::State shared;
    struct Thread {
        const ThreadScript* script;
        std::size_t next_op = 0;
        typename Family::Op op;
        bool active = false;
        std::uint64_t invoke = 0;

        explicit Thread(typename Family::Op initial) : op(initial) {}
    };
    std::vector<Thread> per_thread;
    const ExploreConfig* cfg;
    History history;
    std::uint64_t step_count = 0;

    World(const std::vector<ThreadScript>& scripts, const ExploreConfig& config)
        : shared(Family::make_state(config)), cfg(&config) {
        for (std::size_t i = 0; i < scripts.size(); ++i) {
            // Placeholder op; replaced at activation.
            per_thread.push_back(Thread(Family::make_op(enq_op(0), config)));
            per_thread.back().script = &scripts[i];
        }
    }

    std::size_t threads() const { return per_thread.size(); }
    std::uint64_t steps() const { return step_count; }

    bool enabled(std::size_t i) const {
        const Thread& t = per_thread[i];
        return t.active || t.next_op < t.script->size();
    }

    void step(std::size_t i) {
        Thread& t = per_thread[i];
        ++step_count;
        if (!t.active) {
            t.op = Family::make_op((*t.script)[t.next_op], *cfg);
            t.active = true;
            t.invoke = step_count;
        }
        if (t.op.step(shared) == CrqModelOp::Status::kDone) {
            t.active = false;
            ++t.next_op;
            Operation rec;
            rec.thread = static_cast<int>(i);
            rec.invoke = t.invoke;
            rec.response = step_count;
            rec.kind = t.op.kind() == CrqModelOp::Kind::kEnqueue
                           ? Operation::Kind::kEnqueue
                           : Operation::Kind::kDequeue;
            rec.value = t.op.result();
            history.push_back(rec);
        }
    }
};

// Validate one completed execution: tantrum rule + exact linearizability
// of the FIFO part (CLOSED enqueues removed — they enqueue nothing).
inline CheckResult check_execution(const History& full) {
    std::uint64_t first_closed_response = ~std::uint64_t{0};
    for (const auto& op : full) {
        if (op.kind == Operation::Kind::kEnqueue &&
            op.value == CrqModelOp::kClosedResult) {
            first_closed_response = std::min(first_closed_response, op.response);
        }
    }
    History fifo;
    for (const auto& op : full) {
        if (op.kind == Operation::Kind::kEnqueue) {
            if (op.value == CrqModelOp::kClosedResult) continue;
            if (op.invoke > first_closed_response) {
                return {false, "tantrum violation: enqueue succeeded after CLOSED"};
            }
        }
        fifo.push_back(op);
    }
    return check_queue_exact(fifo);
}

// Checks every completed schedule and sums the coverage counters.  Past
// `budget` completed schedules, a further one ends the search as
// truncated: a search with exactly `budget` schedules is complete.
template <typename Family>
struct Checker {
    ExploreResult& out;
    std::uint64_t budget;

    bool stopped() const { return out.truncated; }
    void reached(const World<Family>&) {}
    void pruned() { ++out.pruned; }  // livelocked or overlong
    void leaf(const World<Family>& world) {
        if (out.schedules == budget) {
            out.truncated = true;
            return;
        }
        ++out.schedules;
        Family::accumulate(world.shared, out);
        const CheckResult r = check_execution(world.history);
        if (!r.ok) {
            ++out.violations;
            if (out.first_error.empty()) out.first_error = r.error;
        }
    }
};

template <typename Family>
ExploreResult run_exhaustive(const std::vector<ThreadScript>& scripts,
                             const ExploreConfig& cfg) {
    ExploreResult out;
    Checker<Family> checker{out, cfg.max_schedules};
    search_exhaustive(World<Family>(scripts, cfg), cfg.max_steps, checker);
    return out;
}

template <typename Family>
ExploreResult run_random(const std::vector<ThreadScript>& scripts,
                         const ExploreConfig& cfg) {
    ExploreResult out;
    Checker<Family> checker{out, ~std::uint64_t{0}};  // sampling has no budget
    Xoshiro256 rng(cfg.seed);
    for (std::uint64_t s = 0; s < cfg.samples; ++s) {
        search_random(World<Family>(scripts, cfg), cfg.max_steps, rng, checker);
    }
    return out;
}

}  // namespace detail_explore

// --- public entry points ----------------------------------------------------

// Enumerate every interleaving (small configs only: the schedule count is
// combinatorial in total steps).
inline ExploreResult explore_exhaustive(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<CrqFamily>(scripts, cfg);
}

// Sample `cfg.samples` uniformly random schedules.
inline ExploreResult explore_random(const std::vector<ThreadScript>& scripts,
                                    const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<CrqFamily>(scripts, cfg);
}

// Figure 2 infinite-array queue (the paper omits its proof; footnote 4).
inline ExploreResult explore_infarray_exhaustive(
    const std::vector<ThreadScript>& scripts, const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<InfArrayFamily>(scripts, cfg);
}

inline ExploreResult explore_infarray_random(const std::vector<ThreadScript>& scripts,
                                             const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<InfArrayFamily>(scripts, cfg);
}

// SCQ ring (cycle/safe/threshold protocol; wcq_model.hpp with helping
// off).  Keep ring occupancy (live items + in-flight enqueues) ≤
// cfg.ring_size — easiest via total enqueues ≤ capacity.  Overfilled
// rings burn enqueue tickets by design (pruned schedules) and can exhaust
// the threshold into a false EMPTY the checker rightly flags; see the
// wcq_model.hpp caveat.
inline ExploreResult explore_scq_exhaustive(const std::vector<ThreadScript>& scripts,
                                            const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<ScqFamily>(scripts, cfg);
}

inline ExploreResult explore_scq_random(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<ScqFamily>(scripts, cfg);
}

// wCQ ring (SCQ protocol + helping slow path; wcq_model.hpp).  Same
// occupancy caveat as the SCQ ring.  cfg.wcq_patience routes ops into the
// slow path; cfg.corrected = false reproduces the blind-revert lost-item
// schedules on the commit word.
inline ExploreResult explore_wcq_exhaustive(const std::vector<ThreadScript>& scripts,
                                            const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<WcqFamily>(scripts, cfg);
}

inline ExploreResult explore_wcq_random(const std::vector<ThreadScript>& scripts,
                                        const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<WcqFamily>(scripts, cfg);
}

// LCRQ-layer variants (unbounded queue over CRQ segments).
inline ExploreResult explore_lcrq_exhaustive(const std::vector<ThreadScript>& scripts,
                                             const ExploreConfig& cfg = {}) {
    return detail_explore::run_exhaustive<LcrqFamily>(scripts, cfg);
}

inline ExploreResult explore_lcrq_random(const std::vector<ThreadScript>& scripts,
                                         const ExploreConfig& cfg = {}) {
    return detail_explore::run_random<LcrqFamily>(scripts, cfg);
}

}  // namespace lcrq::verify
