// LwCQ — linked list of wCQs (cf. Nikolaev & Ravindran, SPAA'22 §5).
//
// The unbounded queue over the wCQ segment backend, shaped exactly like
// LSCQ over SCQ — the same list layer (linked_ring.hpp): hazard-pointer
// reclamation, and the bounded segment pool recycling drained rings
// (which also recycles their helping records — Wcq::reset clears them —
// so the memory bound survives arbitrary segment turnover, the "bounded
// memory" half of wCQ's title).  As with SCQ, the list layer closes a
// FULL segment.  wCQ segments have no batched operations, so LwCQ has no
// native bulk path (generic code falls back to the per-item loop).
//
// Progress note: each segment's operations are wait-free (the helping
// layer in wcq.hpp), while the list-layer segment switches remain
// lock-free CAS races — the same layering as the paper's unbounded
// construction.  A request published on a segment that then drains
// resolves as EMPTY/CLOSED via helpers, never blocks the list.
#pragma once

#include "arch/faa_policy.hpp"
#include "queues/hierarchy.hpp"
#include "queues/linked_ring.hpp"
#include "queues/wcq.hpp"

namespace lcrq {

using LwcqQueue = LinkedRing<Wcq<HardwareFaa>>;
using LwcqNoReclaimQueue = LinkedRing<Wcq<HardwareFaa>, NoHierarchy, false>;
// Malloc-per-close ablation (cf. LscqNoPoolQueue).
using LwcqNoPoolQueue = LinkedRing<Wcq<HardwareFaa>, NoHierarchy, true, false>;

}  // namespace lcrq
