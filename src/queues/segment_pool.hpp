// Bounded free list of ring segments for the list queues (LCRQ/LSCQ).
//
// Every ring close in LCRQ/LSCQ hits the allocator: the winning appender
// news a fresh segment and every losing appender deletes its speculative
// one, so close-heavy regimes (small rings, the CAS ablation,
// oversubscription) pay malloc/free on the hot path the paper never
// prices.  Nikolaev's memory-efficient SCQ work and wCQ (PAPERS.md) both
// recycle segments instead; this pool is the per-queue-instance version of
// that idea.
//
// Segments enter the pool from two directions:
//  * loser appenders park the speculative segment another thread beat them
//    to appending — the segment was never published, so no other thread
//    can hold a reference;
//  * drained segments come back through the hazard-pointer path with a
//    retire-to-pool deleter (linked_ring.hpp): the hazard scan proves no
//    slot still protects the pointer before the deleter runs, which is
//    exactly the property that keeps the list head/tail CASes ABA-safe
//    across recycling (a stale holder has the segment protected, so it
//    cannot reappear under a CAS while that holder can still compare
//    against it).
//
// Cluster placement (§4.1.1 support, NUMA-aware since the mem_policy
// substrate): the free list is sharded by cluster and try_pop serves the
// popper's own shard before scanning the rest.  Filing is by the
// segment's *home* cluster when the segment records one (the cluster
// whose thread allocated the slab — where its pages physically live on a
// first-touch kernel; see topology/mem_policy.hpp), falling back to the
// parking thread's cluster for plain intrusive nodes.  Cache residency
// and page residency then both favor the popping cluster: a ring drained
// on C has its lines on C, and a slab allocated on C has its pages on C,
// so a pop from the home shard reopens memory that is local twice over.
// On a flat host every thread is cluster 0 and the pool degenerates to
// the single Treiber stack it was before.  The shard preference is
// best-effort placement, never a partition: any cluster can pop any
// shard, so capacity and correctness are unchanged.
//
// Each shard is a Treiber stack threaded through the segments' own
// intrusive `next` link (unused while a segment is parked).  One textbook
// deviation: pop takes the WHOLE stack with an exchange(nullptr), keeps
// the head, and pushes the remainder back.  A classic one-node pop CAS is
// ABA-prone once the same segment addresses cycle pool -> list -> pool —
// exchange cannot observe a stale head, and the push-back CAS installs a
// `next` it just read under private ownership, so neither needs tags or
// CAS2 (LSCQ stays free of double-width atomics).
//
// Counting: sizes are per-shard relaxed counters bumped at push/pop, so
// size() and shard_size() never walk a chain that a concurrent try_pop
// could exchange away (or an over-capacity push could delete) mid-walk.
// The counters are approximate under concurrency — a pop decrements only
// after the remainder chain is republished, so a racing reader can
// transiently see one node too many — but they only ever read from the
// pool's own memory.
//
// Capacity is approximate and pool-wide: the capacity gate reads the
// summed count with relaxed ordering and is not atomic with the list
// update, so a burst of concurrent pushes can overshoot the cap by at
// most the number of in-flight pushers (each passed the gate before any
// of them incremented).  Poppers never widen that bound: a pop's
// decrement happens only after its republish, so the count a pusher reads
// is never transiently *low*.  The cap exists to bound idle memory, not
// to enforce an exact high-water mark.
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>

#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "topology/topology.hpp"

namespace lcrq {

template <typename Seg>
class SegmentPool {
  public:
    // Enough shards for the paper's 4-socket testbed and the virtual
    // topologies the tests build; larger cluster ids wrap, which only
    // softens the hint.
    static constexpr std::size_t kShards = 8;

    explicit SegmentPool(std::size_t capacity) : capacity_(capacity) {}

    ~SegmentPool() {
        for (auto& head : heads_) {
            Seg* s = head.ptr.exchange(nullptr, std::memory_order_acquire);
            while (s != nullptr) {
                Seg* next = s->next.load(std::memory_order_relaxed);
                delete s;
                s = next;
            }
        }
    }

    SegmentPool(const SegmentPool&) = delete;
    SegmentPool& operator=(const SegmentPool&) = delete;

    // Take one parked segment, or nullptr when the pool is empty.  Prefers
    // the caller's own cluster shard (see the placement note above).
    // The caller owns the returned segment exclusively and must reset() it
    // before publishing (its ring still holds the drained state).
    Seg* try_pop() {
        const std::size_t home = shard_of(topo::current_cluster());
        for (std::size_t i = 0; i < kShards; ++i) {
            const std::size_t shard = (home + i) % kShards;
            Seg* s = heads_[shard].ptr.exchange(nullptr, std::memory_order_acquire);
            if (s == nullptr) continue;
            Seg* rest = s->next.load(std::memory_order_relaxed);
            // Republish the remainder BEFORE decrementing: between the
            // exchange above and the counter update the pool's count may
            // transiently overstate, which at worst makes a concurrent
            // push delete a segment it could have parked — never the
            // reverse (see the capacity note in the header).
            if (rest != nullptr) push_chain(shard, rest);
            heads_[shard].count.fetch_sub(1, std::memory_order_relaxed);
            s->next.store(nullptr, std::memory_order_relaxed);
            stats::count(i == 0 ? stats::Event::kSegmentPopLocal
                                : stats::Event::kSegmentPopRemote);
            return s;
        }
        return nullptr;
    }

    // Park `s` for reuse, filed under its home cluster when it records
    // one, else under the parking thread's cluster (the segment's last
    // owner).  Always takes ownership; returns false when the pool was at
    // capacity and the segment was deleted instead.  The caller must hold
    // `s` exclusively (unpublished, or past a hazard scan).
    bool push(Seg* s) {
        if (size() >= capacity_) {
            delete s;
            return false;
        }
        const std::size_t shard = shard_of(filing_cluster(s));
        heads_[shard].count.fetch_add(1, std::memory_order_relaxed);
        s->next.store(nullptr, std::memory_order_relaxed);
        push_chain(shard, s);
        return true;
    }

    // Approximate; see the counting note above.
    std::size_t size() const noexcept {
        std::size_t n = 0;
        for (const auto& head : heads_) {
            n += head.count.load(std::memory_order_relaxed);
        }
        return n;
    }
    std::size_t capacity() const noexcept { return capacity_; }

    // Parked segments filed under `cluster`'s shard (tests/introspection;
    // approximate under concurrency for the same reason size() is, but
    // never dereferences the chain — safe against concurrent pop/delete).
    std::size_t shard_size(int cluster) const noexcept {
        return heads_[shard_of(cluster)].count.load(std::memory_order_relaxed);
    }

  private:
    static std::size_t shard_of(int cluster) noexcept {
        return static_cast<std::size_t>(cluster < 0 ? 0 : cluster) % kShards;
    }

    // Where to file a parked segment: its recorded home cluster (slab
    // pages live there) when the segment type exposes one, else the
    // parking thread's cluster (cache lines live there).
    static int filing_cluster(Seg* s) noexcept {
        if constexpr (requires {
                          { s->home_cluster() } -> std::convertible_to<int>;
                      }) {
            if (const int home = s->home_cluster(); home >= 0) return home;
        }
        return topo::current_cluster();
    }

    // Push an already-linked chain (its tail's next may be anything; it is
    // rewritten).  The CAS is ABA-safe without tags: `old_head` feeds only
    // the store to a privately owned link, never a comparison against
    // memory that could have been recycled.
    void push_chain(std::size_t shard, Seg* first) {
        Seg* last = first;
        while (Seg* n = last->next.load(std::memory_order_relaxed)) last = n;
        auto& head = heads_[shard].ptr;
        Seg* old_head = head.load(std::memory_order_relaxed);
        do {
            last->next.store(old_head, std::memory_order_relaxed);
        } while (!head.compare_exchange_weak(old_head, first,
                                             std::memory_order_release,
                                             std::memory_order_relaxed));
    }

    // Shard heads on separate cache lines so cluster-local push/pop
    // traffic does not false-share across clusters (the point of the
    // hint).  The per-shard count rides on the same line as its head:
    // they are always touched together.
    struct alignas(kCacheLineSize) ShardHead {
        std::atomic<Seg*> ptr{nullptr};
        std::atomic<std::size_t> count{0};
    };

    ShardHead heads_[kShards];
    const std::size_t capacity_;
};

}  // namespace lcrq
