// LSCQ — linked list of SCQs (Nikolaev, DISC'19 §5; see PAPERS.md).
//
// The unbounded queue over the SCQ segment backend, shaped exactly like
// LCRQ over CRQ — the same list layer (linked_ring.hpp): a Michael–Scott
// list whose nodes are whole bounded queues, with nearly all activity
// inside one segment and the list pointers moving only when a segment
// fills (enqueue side) or drains (dequeue side).
//
// The one protocol difference: SCQ never closes itself, so on FULL the
// list layer closes the segment (where CRQ would tantrum) and appends a
// new one seeded with the item.
//
// Unlike LCRQ, no operation in here or in the segments uses CAS2 — every
// RMW is on a single 64-bit word, which is the point of carrying a second
// backend: identical harness, portable primitives (the segment pool
// preserves this: its pop is an exchange, not a tagged CAS).
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_ring.hpp"
#include "queues/scq.hpp"

namespace lcrq {

using LscqQueue = LinkedRing<Scq<HardwareFaa>>;
using LscqCasQueue = LinkedRing<Scq<CasLoopFaa>>;
// LSCQ-H: the §4.1.1 cluster handoff over the SCQ segment backend — the
// hierarchical variant that stays CAS2-free (the tag CAS is single-word).
using LscqHQueue = LinkedRing<Scq<HardwareFaa>, ClusterHierarchy>;
using LscqNoReclaimQueue = LinkedRing<Scq<HardwareFaa>, NoHierarchy, false>;
// Malloc-per-close ablation (cf. LcrqNoPoolQueue).
using LscqNoPoolQueue = LinkedRing<Scq<HardwareFaa>, NoHierarchy, true, false>;

}  // namespace lcrq
