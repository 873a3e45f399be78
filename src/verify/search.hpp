// The schedule-search core: one exhaustive DFS and one random sampler
// over any small world of step machines.  Clients: the queue step models
// (explore.hpp), the §4.1.1 cluster-handoff model (hierarchy_model.hpp)
// and the facade's gated-wake model (test_model_explore.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/xorshift.hpp"

namespace lcrq::verify {

// A world is a small copyable state machine:
//   std::size_t threads() const        model threads
//   bool enabled(std::size_t i) const  thread i has a next step
//   void step(std::size_t i)           take it (one atomic access)
//   std::uint64_t steps() const        steps taken so far
// A leaf is a world in which no thread is enabled: every thread finished,
// or the live ones are blocked.  A visitor sees the search:
//   void reached(const W&)   every world the search enters, leaves included
//   void leaf(const W&)      one completed schedule
//   void pruned()            a schedule cut at max_steps
//   bool stopped() const     end the search now (exhaustive budget spent)

// Every interleaving, depth first, copying the world at each branch.
template <typename W, typename V>
void search_exhaustive(const W& world, std::uint64_t max_steps, V& visitor) {
    visitor.reached(world);
    bool leaf = true;
    for (std::size_t i = 0; i < world.threads() && leaf; ++i) leaf = !world.enabled(i);
    if (leaf) return visitor.leaf(world);
    if (world.steps() >= max_steps) return visitor.pruned();
    for (std::size_t i = 0; i < world.threads() && !visitor.stopped(); ++i) {
        if (!world.enabled(i)) continue;
        W branch = world;
        branch.step(i);
        search_exhaustive(branch, max_steps, visitor);
    }
}

// One schedule that picks uniformly among the enabled threads at each step.
template <typename W, typename V>
void search_random(W world, std::uint64_t max_steps, Xoshiro256& rng, V& visitor) {
    std::vector<std::size_t> enabled;
    for (;;) {
        visitor.reached(world);
        enabled.clear();
        for (std::size_t i = 0; i < world.threads(); ++i) {
            if (world.enabled(i)) enabled.push_back(i);
        }
        if (enabled.empty()) return visitor.leaf(world);
        if (world.steps() >= max_steps) return visitor.pruned();
        world.step(enabled[rng.bounded(enabled.size())]);
    }
}

}  // namespace lcrq::verify
