// LCRQ — linked list of CRQs (paper §4.2, Figure 5, corrected version).
//
// The unbounded queue is a Michael–Scott list whose nodes are whole CRQ
// rings (the list layer itself, shared with LSCQ and LwCQ, is
// linked_ring.hpp).  Nearly all activity happens inside one ring; the
// list head/tail pointers only move when a ring closes (enqueue side) or
// drains (dequeue side), so they are uncontended in the common case.  A
// CRQ is a tantrum queue: it closes itself when full or starving, so the
// list layer never sees kFull from it.
//
// The aliases select the paper's evaluated variants — LCRQ, LCRQ-CAS (F&A
// emulated by a CAS loop) and LCRQ-H (the paper's LCRQ+H) — and the
// ablations.
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/crq.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_ring.hpp"

namespace lcrq {

// The paper's evaluated variants.
using LcrqQueue = LinkedRing<Crq<HardwareFaa>>;
using LcrqCasQueue = LinkedRing<Crq<CasLoopFaa>>;
using LcrqHQueue = LinkedRing<Crq<HardwareFaa>, ClusterHierarchy>;
// Ablations: nodes packed 4-per-cache-line; no hazard protection (prices
// the paper's footnote-6 overhead, leaks rings until destruction).
using LcrqCompactQueue = LinkedRing<Crq<HardwareFaa, false>>;
using LcrqNoReclaimQueue = LinkedRing<Crq<HardwareFaa>, NoHierarchy, false>;
// No segment pool: every ring close pays the allocator (the pre-pool
// behaviour, kept as the ablation bench's baseline).
using LcrqNoPoolQueue = LinkedRing<Crq<HardwareFaa>, NoHierarchy, true, false>;

}  // namespace lcrq
