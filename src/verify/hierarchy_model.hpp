// Exhaustive step-model of the §4.1.1 cluster-handoff protocol
// (ClusterHierarchy::enter in queues/hierarchy.hpp).
//
// The enter() protocol is tiny — load the tag, spin a bounded budget,
// then CAS and proceed regardless — but its correctness claim is global:
// *no interleaving* of waiters, claimants, handovers, and dead threads can
// leave a live thread stuck.  That is exactly the shape the explore.hpp
// family checks for the queues, so the hierarchy policy gets the same
// treatment: a self-contained model of the per-thread state machine
//
//   kLoad  --tag==mine-->  kEntered
//   kLoad  --foreign---->  kWait(budget)
//   kWait  --tag==mine-->  kEntered            (handover received)
//   kWait  --budget>0--->  kWait(budget-1)
//   kWait  --budget==0-->  kClaim              (timeout expired)
//   kClaim --CAS win/lose-> kEntered           ("even if the CAS fails")
//
// searched over every interleaving of every live thread's next step by
// search.hpp's core.
//
// The model mirrors two deliberate details of the implementation: the
// claiming CAS compares against the *last observed* tag (so it can lose
// to a racing claimant), and the proceed-on-timeout ablation removes the
// kWait -> kClaim edge, which is what turns the policy into the cohort
// lock the paper rejects — the tests assert the model detects exactly
// that as a blocked state.
//
// A thread may be configured to die at a phase (kill_phase): once it
// reaches that phase it never steps again, but it still occupies its
// state — a killed claimant holds the timeout expiry without ever CASing,
// a killed owner never hands the tag over.  The nonblocking property is
// then: every OTHER thread still enters in every interleaving.
#pragma once

#include <cstdint>
#include <vector>

#include "verify/search.hpp"

namespace lcrq::verify {

enum class HierPhase : std::uint8_t { kLoad = 0, kWait, kClaim, kEntered };

struct HierarchyModelConfig {
    // One entry per thread: the thread's cluster id.
    std::vector<int> thread_cluster;
    // Cluster tag the segment starts with.
    int initial_tag = 0;
    // Wait-loop passes before the timeout expires (keep tiny: the state
    // space is exponential in total steps).
    int wait_budget = 1;
    // The paper's "even if the CAS fails" fall-through.  false = the
    // cohort-lock ablation: a thread whose budget expired has no enabled
    // transition until the tag becomes its own.
    bool proceed_on_timeout = true;
    // Thread that dies on *reaching* `kill_phase` (-1 = nobody dies).  A
    // thread killed at kEntered completed its operation and then never
    // hands over — the dead-owner scenario.
    int killed_thread = -1;
    HierPhase kill_phase = HierPhase::kEntered;
};

struct HierarchyModelResult {
    std::uint64_t states = 0;        // interleaving prefixes explored
    std::uint64_t leaves = 0;        // schedules run until no thread can step
    std::uint64_t blocked_leaves = 0;  // leaves with a live thread stuck
    std::uint64_t cas_lost_entries = 0;  // leaves where a claimant lost the
                                         // CAS and entered anyway
    std::uint64_t handoffs = 0;      // claim transitions across all leaves
    std::uint64_t max_depth = 0;     // longest schedule (bounded-steps witness)
    bool all_live_entered = true;    // every live thread entered in every leaf
};

namespace detail {

struct HierThread {
    HierPhase phase = HierPhase::kLoad;
    int budget = 0;
    int observed = 0;    // tag value the claim CAS will compare against
    bool cas_lost = false;
};

// The search world: every thread's state machine plus the shared tag.
struct HierWorld {
    const HierarchyModelConfig* cfg;
    std::vector<HierThread> per_thread;
    int tag;
    std::uint64_t depth = 0;
    std::uint64_t handoffs = 0;  // claim transitions on this schedule

    std::size_t threads() const { return per_thread.size(); }
    std::uint64_t steps() const { return depth; }

    bool dead(std::size_t i) const {
        return static_cast<int>(i) == cfg->killed_thread &&
               per_thread[i].phase == cfg->kill_phase;
    }

    // A thread has an enabled transition unless it entered, died, or is a
    // budget-exhausted waiter in the cohort-lock ablation whose tag is
    // still foreign (the blocked state the ablation exists to exhibit).
    bool enabled(std::size_t i) const {
        const HierThread& t = per_thread[i];
        if (t.phase == HierPhase::kEntered || dead(i)) return false;
        return !(t.phase == HierPhase::kWait && !cfg->proceed_on_timeout &&
                 t.budget == 0 && tag != cfg->thread_cluster[i]);
    }

    void step(std::size_t i) {
        HierThread& t = per_thread[i];
        const int mine = cfg->thread_cluster[i];
        ++depth;
        switch (t.phase) {
            case HierPhase::kLoad:
                t.observed = tag;
                if (tag == mine) {
                    t.phase = HierPhase::kEntered;
                } else {
                    t.phase = HierPhase::kWait;
                    t.budget = cfg->wait_budget;
                }
                break;
            case HierPhase::kWait:
                t.observed = tag;
                if (tag == mine) {
                    t.phase = HierPhase::kEntered;
                } else if (t.budget > 0) {
                    --t.budget;
                } else {
                    t.phase = HierPhase::kClaim;  // proceed_on_timeout checked
                }                                 // by enabled()
                break;
            case HierPhase::kClaim:
                // compare_exchange against the last observed tag; the
                // thread enters whether or not the CAS installs its
                // cluster (paper: "even if the CAS fails").
                if (tag == t.observed) {
                    tag = mine;
                } else {
                    t.cas_lost = true;
                }
                ++handoffs;
                t.phase = HierPhase::kEntered;
                break;
            case HierPhase::kEntered:
                break;
        }
    }
};

// Classifies each leaf: a live thread that has not entered is blocked.
struct HierTally {
    HierarchyModelResult& res;

    bool stopped() const { return false; }
    void pruned() {}  // no depth cap: never called
    void reached(const HierWorld& w) {
        ++res.states;
        if (w.depth > res.max_depth) res.max_depth = w.depth;
    }
    void leaf(const HierWorld& w) {
        ++res.leaves;
        res.handoffs += w.handoffs;
        bool blocked = false;
        bool cas_lost = false;
        for (std::size_t i = 0; i < w.per_thread.size(); ++i) {
            if (w.dead(i)) continue;
            if (w.per_thread[i].phase != HierPhase::kEntered) blocked = true;
            else if (w.per_thread[i].cas_lost) cas_lost = true;
        }
        if (blocked) {
            ++res.blocked_leaves;
            res.all_live_entered = false;
        }
        if (cas_lost) ++res.cas_lost_entries;
    }
};

}  // namespace detail

// Exhaustively explore every interleaving.  The search has no depth cap:
// each thread takes at most wait_budget + 3 steps, so every schedule
// terminates (in the ablation, by blocking) and the exploration is
// exhaustive by construction.
inline HierarchyModelResult explore_hierarchy(const HierarchyModelConfig& cfg) {
    HierarchyModelResult res;
    detail::HierTally tally{res};
    const detail::HierWorld world{
        &cfg, std::vector<detail::HierThread>(cfg.thread_cluster.size()),
        cfg.initial_tag};
    search_exhaustive(world, ~std::uint64_t{0}, tally);
    return res;
}

}  // namespace lcrq::verify
