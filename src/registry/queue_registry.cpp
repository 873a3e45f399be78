#include "registry/queue_registry.hpp"

#include <cassert>
#include <functional>
#include <map>
#include <string_view>

#include "queues/bounded_mpmc_queue.hpp"
#include "queues/cc_queue.hpp"
#include "queues/fc_queue.hpp"
#include "queues/infinite_array_queue.hpp"
#include "queues/kp_queue.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/lwcq.hpp"
#include "queues/ms_queue.hpp"
#include "queues/multilane.hpp"
#include "queues/scq.hpp"
#include "queues/mutex_queue.hpp"
#include "queues/two_lock_queue.hpp"

namespace lcrq {

namespace {

template <typename Q>
class Adapter final : public AnyQueue {
  public:
    Adapter(std::string name, const QueueOptions& opt)
        : name_(std::move(name)), q_(opt) {}

    void enqueue(value_t x) override {
        assert(is_enqueueable(x));
        q_.enqueue(x);
        stats::count(stats::Event::kEnqueue);
    }

    std::optional<value_t> dequeue() override {
        auto v = q_.dequeue();
        stats::count(stats::Event::kDequeue);
        if (!v.has_value()) stats::count(stats::Event::kDequeueEmpty);
        return v;
    }

    void enqueue_bulk(std::span<const value_t> items) override {
        for ([[maybe_unused]] value_t v : items) assert(is_enqueueable(v));
        bulk_enqueue(q_, items);
        stats::count(stats::Event::kEnqueue, items.size());
        stats::count(stats::Event::kBulkEnqueue);
    }

    std::size_t dequeue_bulk(value_t* out, std::size_t max) override {
        const std::size_t n = bulk_dequeue(q_, out, max);
        // An empty batch counts as one (EMPTY-returning) dequeue, matching
        // the single-op accounting.
        stats::count(stats::Event::kDequeue, n != 0 ? n : 1);
        if (n == 0) stats::count(stats::Event::kDequeueEmpty);
        stats::count(stats::Event::kBulkDequeue);
        return n;
    }

    const std::string& name() const noexcept override { return name_; }

  private:
    std::string name_;
    Q q_;
};

struct Entry {
    QueueInfo info;
    // Takes the *requested* name so knob-suffixed instances ("lcrq-ml8")
    // report the name they were asked for, not the catalog base name.
    std::function<std::unique_ptr<AnyQueue>(std::string, const QueueOptions&)> make;
};

template <typename Q>
Entry entry(const char* name, const char* description, bool nonblocking,
            bool hierarchical, bool bounded, bool deferred_reclamation = false,
            unsigned paper_sets = 0, bool per_lane_fifo = false) {
    QueueInfo info{name,        description, nonblocking,   hierarchical,
                   bounded,     deferred_reclamation,
                   per_lane_fifo, paper_sets};
    return Entry{std::move(info), [](std::string n, const QueueOptions& opt) {
                     return std::make_unique<Adapter<Q>>(std::move(n), opt);
                 }};
}

const std::vector<Entry>& entries() {
    static const std::vector<Entry> all = {
        entry<LcrqQueue>("lcrq", "LCRQ: F&A-based nonblocking ring-list queue (this paper)",
                         true, false, false, false,
                         kSetSingleProcessor | kSetMultiProcessor),
        entry<LcrqCasQueue>("lcrq-cas", "LCRQ with F&A emulated by a CAS loop (ablation)",
                            true, false, false, false,
                            kSetSingleProcessor | kSetMultiProcessor),
        entry<LcrqHQueue>("lcrq-h",
                          "LCRQ with hierarchical cluster handoff (§4.1.1; accepts "
                          "-h<timeout_us>)",
                          true, true, false, false, kSetMultiProcessor),
        entry<LcrqCompactQueue>("lcrq-compact",
                                "LCRQ with unpadded 16-byte ring nodes (ablation)", true,
                                false, false),
        entry<LcrqNoReclaimQueue>("lcrq-noreclaim",
                                  "LCRQ without hazard protection (footnote-6 ablation; "
                                  "reclaims at destruction)",
                                  true, false, false, /*deferred_reclamation=*/true),
        entry<LcrqNoPoolQueue>("lcrq-nopool",
                               "LCRQ without the segment pool (malloc per ring close; "
                               "ablation)",
                               true, false, false),
        entry<LscqQueue>("lscq",
                         "LSCQ: SCQ ring-list queue, single-word CAS + threshold "
                         "(DISC'19; second segment backend)",
                         true, false, false, false,
                         kSetSingleProcessor | kSetMultiProcessor),
        entry<LscqHQueue>("lscq-h",
                          "LSCQ with hierarchical cluster handoff (CAS2-free; accepts "
                          "-h<timeout_us>)",
                          true, true, false, false, kSetMultiProcessor),
        entry<LscqNoPoolQueue>("lscq-nopool",
                               "LSCQ without the segment pool (malloc per segment close; "
                               "ablation)",
                               true, false, false),
        entry<LwcqQueue>("lwcq",
                         "LwCQ: wCQ ring-list queue — SCQ plus helping records, "
                         "wait-free per segment with bounded memory (SPAA'22)",
                         true, false, false, false,
                         kSetSingleProcessor | kSetMultiProcessor),
        entry<LwcqNoReclaimQueue>("lwcq-noreclaim",
                                  "LwCQ without hazard protection (reclaims at "
                                  "destruction; ablation)",
                                  true, false, false,
                                  /*deferred_reclamation=*/true),
        entry<LwcqNoPoolQueue>("lwcq-nopool",
                               "LwCQ without the segment pool (malloc per segment close; "
                               "ablation)",
                               true, false, false),
        entry<MultilaneLcrq>("lcrq-ml",
                             "Multilane LCRQ: coordination-free per-thread lanes, "
                             "balancing dequeue (per-producer FIFO; accepts -ml<N>)",
                             true, false, false, false, kSetMultiProcessor,
                             /*per_lane_fifo=*/true),
        entry<MultilaneLscq>("lscq-ml",
                             "Multilane LSCQ: coordination-free per-thread lanes, "
                             "balancing dequeue (per-producer FIFO; accepts -ml<N>)",
                             true, false, false, false, kSetMultiProcessor,
                             /*per_lane_fifo=*/true),
        entry<ScqQueue>("scq",
                        "Bounded SCQ ring pair (allocated/free queues over a data "
                        "array; no CAS2)",
                        true, false, true),
        entry<WcqQueue>("wcq",
                        "Bounded wCQ ring pair (SCQ plus per-thread helping records; "
                        "wait-free, no CAS2)",
                        true, false, true),
        entry<MsQueue<true>>("ms", "Michael-Scott nonblocking queue (PODC'96), with backoff",
                             true, false, false, false, kSetSingleProcessor),
        entry<MsQueue<false>>("ms-nobackoff",
                              "Michael-Scott nonblocking queue without backoff (ablation)",
                              true, false, false),
        entry<TwoLockQueue>("two-lock", "Michael-Scott two-lock queue (PODC'96)", false,
                            false, false),
        entry<TwoLockQueueBlind>("two-lock-blind",
                                 "two-lock queue with non-yielding spinlocks "
                                 "(oversubscription-collapse demo)",
                                 false, false, false),
        entry<CcQueue>("cc-queue", "CC-Queue: two-lock queue over CC-Synch combining "
                                   "(PPoPP'12)",
                       false, false, false, false,
                       kSetSingleProcessor | kSetMultiProcessor),
        entry<HQueue>("h-queue", "H-Queue: two-lock queue over hierarchical H-Synch "
                                 "combining (PPoPP'12)",
                      false, true, false, false, kSetMultiProcessor),
        entry<FcQueue>("fc-queue", "Flat-combining queue (SPAA'10)", false, false, false,
                       false, kSetSingleProcessor),
        entry<BoundedMpmcQueue>("bounded-mpmc",
                                "Bounded CAS-ticket ring (cyclic-array family reference)",
                                false, false, true),
        entry<KpQueue>("kp",
                       "Kogan-Petrank wait-free queue (PPoPP'11; reclaims at "
                       "destruction)",
                       true, false, false, /*deferred_reclamation=*/true),
        entry<MutexQueue>("mutex", "std::mutex-protected list (sanity floor)", false, false,
                          false),
        entry<InfiniteArrayQueue>("infinite-array",
                                  "Figure 2 infinite-array queue (pedagogical)", true,
                                  false, false),
    };
    return all;
}

// Digit knobs: "lcrq-ml8" → {"lcrq-ml", 8 lanes}, "lcrq-h250" → {"lcrq-h",
// 250 µs}.  `name` must end in `suffix` plus a non-empty all-digit value
// ≤ `cap`, else it is not a knob spelling (so plain "lcrq-ml" and unknown
// names fall through).  0 lanes is not a queue, but a 0 µs timeout is
// valid ("claim a foreign segment immediately" — a meaningful ablation);
// the timeout cap keeps the µs→ns conversion far from overflow.
struct DigitKnob {
    std::string base;
    std::uint64_t value;
};

std::optional<DigitKnob> split_digit_knob(const std::string& name,
                                          std::string_view suffix, std::uint64_t cap,
                                          bool zero_ok) {
    const std::size_t pos = name.rfind(suffix);
    if (pos == std::string::npos) return std::nullopt;
    const std::size_t end = pos + suffix.size();
    if (end == name.size()) return std::nullopt;
    std::uint64_t value = 0;
    for (std::size_t i = end; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') return std::nullopt;
        value = value * 10 + static_cast<std::uint64_t>(name[i] - '0');
        if (value > cap) return std::nullopt;
    }
    if (value == 0 && !zero_ok) return std::nullopt;
    return DigitKnob{name.substr(0, end), value};
}

// "lcrq-huge" → "lcrq".  Unlike -ml/-h this knob is boolean: it takes no
// digits, must be the final suffix, and composes with the other knobs
// ("lcrq-ml8-huge", "lscq-h250-huge") — strip it, set
// QueueOptions::huge_segments, and resolve the remainder as usual.  Safe
// next to the -h<digits> grammar because "uge" is not a digit string.
std::optional<std::string> split_huge_knob(const std::string& name) {
    static constexpr const char kSuffix[] = "-huge";
    static constexpr std::size_t kLen = sizeof(kSuffix) - 1;
    if (name.size() <= kLen) return std::nullopt;
    if (name.compare(name.size() - kLen, kLen, kSuffix) != 0) return std::nullopt;
    return name.substr(0, name.size() - kLen);
}

const Entry* find_entry(const std::string& name) {
    for (const auto& e : entries()) {
        if (e.info.name == name) return &e;
    }
    return nullptr;
}

// Resolution chain shared by lookup and construction: exact catalog name,
// then the -ml and -h digit knobs.  (The -huge suffix is stripped by the
// callers before this runs.)
const Entry* resolve_entry(const std::string& name, QueueOptions& opt) {
    if (const Entry* e = find_entry(name)) return e;
    if (const auto knob = split_digit_knob(name, "-ml", kMaxLanes, false)) {
        if (const Entry* e = find_entry(knob->base)) {
            opt.lanes = static_cast<std::size_t>(knob->value);
            return e;
        }
    }
    if (const auto knob = split_digit_knob(name, "-h", 10'000'000, true)) {  // ≤ 10 s
        if (const Entry* e = find_entry(knob->base)) {
            opt.cluster_timeout_ns = knob->value * 1'000;
            return e;
        }
    }
    return nullptr;
}

// The hierarchical variants were briefly catalogued as "lcrq+h"; the '+'
// spelling stays resolvable (scripts, saved baselines) but is not listed.
std::string canonical_name(const std::string& name) {
    if (name.size() >= 2 && name.compare(name.size() - 2, 2, "+h") == 0) {
        return name.substr(0, name.size() - 2) + "-h";
    }
    return name;
}

std::vector<std::string> tagged_set(unsigned bit) {
    std::vector<std::string> out;
    for (const auto& e : entries()) {
        if (e.info.paper_sets & bit) out.push_back(e.info.name);
    }
    return out;
}

}  // namespace

const std::vector<QueueInfo>& queue_catalog() {
    static const std::vector<QueueInfo> catalog = [] {
        std::vector<QueueInfo> out;
        for (const auto& e : entries()) out.push_back(e.info);
        return out;
    }();
    return catalog;
}

const QueueInfo* find_queue_info(const std::string& raw) {
    std::string name = canonical_name(raw);
    if (const auto base = split_huge_knob(name)) name = *base;
    QueueOptions scratch;
    if (const Entry* e = resolve_entry(name, scratch)) return &e->info;
    return nullptr;
}

std::vector<std::string> paper_single_processor_set() {
    return tagged_set(kSetSingleProcessor);
}

std::vector<std::string> paper_multi_processor_set() {
    return tagged_set(kSetMultiProcessor);
}

std::unique_ptr<AnyQueue> make_queue(const std::string& raw, const QueueOptions& opt) {
    std::string name = canonical_name(raw);
    QueueOptions resolved_opt = opt;
    if (const auto base = split_huge_knob(name)) {
        name = *base;
        resolved_opt.huge_segments = true;
    }
    if (const Entry* e = resolve_entry(name, resolved_opt)) {
        return e->make(raw, resolved_opt);
    }
    return nullptr;
}

}  // namespace lcrq
