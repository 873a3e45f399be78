// CC-Synch and H-Synch — the blocking combining constructions of Fatourou
// & Kallimanis (PPoPP 2012), written once: H-Synch with one cluster list
// is CC-Synch.  Used by CC-Queue and H-Queue (cc_queue.hpp).
//
// Threads announce operations by SWAPping a fresh node onto a publication
// list's tail; the thread whose node sits at the list head becomes
// *combiner* and applies up to `bound` announced operations to the
// protected object while the others spin locally on their node's wait
// flag.  Synchronization cost is one SWAP per operation, but the work
// itself is serialized through the combiner — the design point the paper
// contrasts LCRQ against.
//
// H-Synch keeps one list per cluster plus one global lock.  A thread
// publishes into its own cluster's list; the cluster's combiner acquires
// the global lock, applies its cluster's batch, releases.  Whole batches
// of same-cluster operations execute back to back, so the shared object's
// cache lines cross sockets once per batch instead of once per operation
// — the same locality argument as LCRQ+H's cluster handoff, but with
// blocking.  With one list there is nothing to serialize against, so the
// cluster lookup and the global lock are skipped: that is CC-Synch.
//
// The per-thread "spare node" trick from the original algorithm avoids
// allocation on the hot path: after publishing node A and receiving node B
// from the SWAP, the thread keeps B as its spare for the next operation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "arch/backoff.hpp"
#include "arch/cacheline.hpp"
#include "arch/faa_policy.hpp"
#include "arch/thread_id.hpp"
#include "queues/queue_common.hpp"
#include "queues/two_lock_queue.hpp"
#include "topology/topology.hpp"

namespace lcrq {

// Request: an operation on the protected object.  For the queue use-cases
// Op encodes enqueue(value) / dequeue(); Apply is supplied by the owner.
struct CombineRequest {
    value_t arg = kBottom;
    value_t result = kBottom;
    bool is_enqueue = false;
};

template <typename Object, typename ApplyFn>
class Combiner {
  public:
    // `bound`: max operations one combiner applies before handing off.
    // `clusters`: publication lists (values below 1 mean one).
    Combiner(Object& object, ApplyFn apply, unsigned bound, int clusters = 1)
        : object_(object),
          apply_(apply),
          bound_(bound == 0 ? 1 : bound),
          n_lists_(static_cast<std::size_t>(clusters < 1 ? 1 : clusters)) {
        if (n_lists_ > 1) lists_.reset(check_alloc(new (std::nothrow) ClusterList[n_lists_]));
        for (std::size_t i = 0; i < n_lists_; ++i) {
            list(i)->store(check_alloc(new (std::nothrow) Node), std::memory_order_relaxed);
        }
        for (auto& s : spare_) s = nullptr;
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    ~Combiner() {
        for (std::size_t i = 0; i < n_lists_; ++i) {
            delete list(i)->load(std::memory_order_relaxed);
        }
        for (auto* s : spare_) delete s;
    }

    Combiner(const Combiner&) = delete;
    Combiner& operator=(const Combiner&) = delete;

    // Execute `req` under the construction; returns the operation result.
    value_t apply(CombineRequest req) {
        const bool hierarchical = n_lists_ > 1;
        std::atomic<Node*>& tail =
            hierarchical
                ? *lists_[static_cast<std::size_t>(topo::current_cluster()) % n_lists_]
                : *tail_;

        Node* next = my_spare();
        next->next.store(nullptr, std::memory_order_relaxed);
        next->wait.store(true, std::memory_order_relaxed);
        next->completed.store(false, std::memory_order_relaxed);

        Node* cur = counted_swap(tail, next);
        cur->req = req;
        cur->next.store(next, std::memory_order_release);
        spare_[thread_index()] = cur;

        // Local spin: our cache line, flipped either by our combiner
        // (completed) or by the previous combiner handing us the role.
        SpinWait waiter;
        while (cur->wait.load(std::memory_order_acquire)) waiter.spin();

        if (cur->completed.load(std::memory_order_acquire)) {
            return cur->req.result;
        }

        // We are the combiner (of our cluster: serialize against the other
        // clusters' combiners, then apply this cluster's batch).
        stats::count(stats::Event::kCombinerAcquire);
        if (hierarchical) global_lock_->lock();
        Node* node = cur;
        unsigned combined = 0;
        while (true) {
            Node* follower = node->next.load(std::memory_order_acquire);
            if (follower == nullptr || combined >= bound_) break;
            apply_(object_, node->req);
            ++combined;
            node->completed.store(true, std::memory_order_relaxed);
            node->wait.store(false, std::memory_order_release);
            node = follower;
        }
        if (hierarchical) global_lock_->unlock();
        stats::count(stats::Event::kCombine, combined);
        // Hand the combiner role to the first waiter we did not serve (or
        // release the dummy if the list drained).
        node->wait.store(false, std::memory_order_release);
        return cur->req.result;
    }

  private:
    struct alignas(kCacheLineSize) Node {
        CombineRequest req{};
        std::atomic<bool> wait{false};
        std::atomic<bool> completed{false};
        std::atomic<Node*> next{nullptr};
    };
    // One list's tail; its first node is a dummy.
    using ClusterList = CacheAligned<std::atomic<Node*>, kDestructivePairSize>;

    ClusterList& list(std::size_t i) noexcept { return n_lists_ == 1 ? tail_ : lists_[i]; }

    Node* my_spare() {
        auto& slot = spare_[thread_index()];
        if (slot == nullptr) slot = check_alloc(new (std::nothrow) Node);
        return slot;
    }

    Object& object_;
    ApplyFn apply_;
    const unsigned bound_;
    const std::size_t n_lists_;
    // One list: its tail sits inline, as in CC-Synch.  Several: one heap
    // array of cluster tails, and `tail_` is unused.
    ClusterList tail_{nullptr};
    std::unique_ptr<ClusterList[]> lists_;
    CacheAligned<SpinLock, kDestructivePairSize> global_lock_;
    Node* spare_[kMaxThreads];
};

template <typename Object, typename ApplyFn>
using CcSynch = Combiner<Object, ApplyFn>;

}  // namespace lcrq
