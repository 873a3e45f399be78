// CC-Queue and H-Queue (Fatourou & Kallimanis, PPoPP 2012).
//
// The Michael–Scott two-lock queue with each lock replaced by a combining
// instance (ccsynch.hpp): one instance serializes all enqueues, the other
// all dequeues, and the two ends run in parallel.  CC-Queue combines over
// one publication list (CC-Synch) and is the best-performing
// software-combining queue in the literature the paper compares against;
// H-Queue combines over one list per cluster (H-Synch) and is the
// strongest combining baseline in the paper's four-processor experiments.
#pragma once

#include <optional>

#include "queues/ccsynch.hpp"
#include "queues/two_lock_queue.hpp"
#include "topology/topology.hpp"

namespace lcrq {

// Hierarchical: one list per cluster — QueueOptions::clusters, or the
// discovered cluster count when that is 0.  Otherwise one list.
template <bool Hierarchical>
class CombiningQueue {
  public:
    static constexpr const char* kName = Hierarchical ? "h-queue" : "cc-queue";

    explicit CombiningQueue(const QueueOptions& opt = {})
        : clusters_(!Hierarchical      ? 1
                    : opt.clusters > 0 ? opt.clusters
                                       : topo::discover().num_clusters),
          enq_side_(list_, &apply_enqueue, opt.combiner_bound, clusters_),
          deq_side_(list_, &apply_dequeue, opt.combiner_bound, clusters_) {}

    void enqueue(value_t x) {
        CombineRequest req;
        req.is_enqueue = true;
        req.arg = x;
        enq_side_.apply(req);
    }

    std::optional<value_t> dequeue() {
        CombineRequest req;
        req.is_enqueue = false;
        const value_t v = deq_side_.apply(req);
        if (v == kBottom) return std::nullopt;
        return v;
    }

    int clusters() const noexcept { return clusters_; }

  private:
    static void apply_enqueue(MsTwoLockList& list, CombineRequest& req) {
        list.push_tail(req.arg);
        req.result = kBottom;
    }
    static void apply_dequeue(MsTwoLockList& list, CombineRequest& req) {
        const auto v = list.pop_head();
        req.result = v.has_value() ? *v : kBottom;
    }

    using ApplyFn = void (*)(MsTwoLockList&, CombineRequest&);

    int clusters_;
    MsTwoLockList list_;
    Combiner<MsTwoLockList, ApplyFn> enq_side_;
    Combiner<MsTwoLockList, ApplyFn> deq_side_;
};

using CcQueue = CombiningQueue<false>;
using HQueue = CombiningQueue<true>;

}  // namespace lcrq
