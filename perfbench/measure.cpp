// Measurement half of the repository benchmark (perfbench/run.py derives
// the metrics).  One process drives the queue layers only through their
// public APIs and writes what it measured to <out>/raw.json plus binary
// sample files; it computes no metric itself.
//
//   perfbench_measure --workload pairs|churn|dispatch --seed N --seconds S
//                     --trace 0|1 --out DIR
//
// Untraced (--trace 0): one pass of the workload at nproc threads fills the
// whole budget.  Traced (--trace 1): a short untraced pass at 1 and nproc
// threads, the same pass with fenced-TSC spans around sampled calls, then
// the layer-cost ladder.
//
// Every closed-loop window checks conservation (count, mixed-sum and xor
// checksums over every value enqueued and dequeued, including warm-up and
// a final drain) and per-producer FIFO order; the dispatch window checks
// conservation of accepted requests.  A violation is recorded per window
// and fails the run in run.py.
#include <malloc.h>
#include <unistd.h>
#include <x86intrin.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/cacheline.hpp"
#include "arch/counters.hpp"
#include "queues/async_queue.hpp"
#include "queues/blocking_queue.hpp"
#include "queues/crq.hpp"
#include "queues/lcrq.hpp"
#include "queues/lscq.hpp"
#include "queues/scq.hpp"
#include "registry/queue_registry.hpp"
#include "util/timing.hpp"

namespace pb {

using lcrq::value_t;

// --- workload constants (the "why" of each is in perfbench/README.md) -----

constexpr unsigned kPairsRingOrder = 12;
constexpr unsigned kChurnRingOrder = 8;
constexpr std::uint64_t kPairsWarmup = 20'000;    // pairs per thread
constexpr std::uint64_t kChurnWarmupBursts = 8;   // bursts per thread
constexpr unsigned kLatencyEvery = 64;            // untraced latency sample
constexpr unsigned kSpanEvery = 128;              // traced span sample
constexpr std::size_t kSpanCap = std::size_t{1} << 16;  // spans per thread
constexpr unsigned kMaxEmptyRun = 64;  // consecutive EMPTYs before giving up
// Facade capacity for the closed-loop facade rungs and the dispatch open
// loop: far above any backlog a host stall builds at the offered rate, so
// a shed means the program fell behind, not the host.
constexpr std::size_t kFacadeCapacity = std::size_t{1} << 16;
constexpr double kDispatchMops = 0.2;
constexpr unsigned kDispatchWorkers = 2;
constexpr std::uint64_t kServiceNs = 1'000;
constexpr std::uint64_t kDeadlineNs = 50'000'000;  // > the longest host stall seen
constexpr std::uint64_t kDispatchWarmupNs = 300'000'000;
constexpr std::uint64_t kWorkerSliceNs = 1'000'000;

// --- values and checksums ---------------------------------------------------

constexpr unsigned kSeqBits = 40;
constexpr value_t kSeqMask = (value_t{1} << kSeqBits) - 1;
constexpr value_t encode(unsigned producer, std::uint64_t seq) noexcept {
    return (static_cast<value_t>(producer) << kSeqBits) | seq;
}

constexpr std::uint64_t mix(std::uint64_t x) noexcept {  // splitmix64 finalizer
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

struct Checksum {
    std::uint64_t count = 0, sum = 0, xr = 0;
    void add(value_t v) noexcept {
        ++count;
        sum += mix(v);
        xr ^= v;
    }
    Checksum& operator+=(const Checksum& o) noexcept {
        count += o.count;
        sum += o.sum;
        xr ^= o.xr;
        return *this;
    }
    bool operator==(const Checksum&) const = default;
};

// --- clocks, memory ----------------------------------------------------------

inline std::uint64_t tsc_begin() noexcept {
    _mm_lfence();
    const std::uint64_t t = __rdtsc();
    _mm_lfence();
    return t;
}
inline std::uint64_t tsc_end() noexcept {
    unsigned aux = 0;
    const std::uint64_t t = __rdtscp(&aux);
    _mm_lfence();
    return t;
}

double rss_mb() {
    std::ifstream f("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    f >> size >> resident;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

// --- rung targets: one uniform call surface over each public type ----------

lcrq::QueueOptions options(unsigned ring_order) {
    lcrq::QueueOptions o;
    o.ring_order = ring_order;
    return o;
}

using AnyBase = lcrq::UniquePtrBase<lcrq::AnyQueue>;
using Facade = lcrq::BlockingQueue<AnyBase>;

AnyBase any_base(const std::string& backend, unsigned ring_order) {
    auto q = lcrq::make_queue(backend, options(ring_order));
    if (!q) throw std::runtime_error("unknown backend " + backend);
    return AnyBase(std::move(q));
}

// Rung 1: the bare ring.  A CRQ may close itself (starvation tantrum); the
// refusal ends that thread's window, as no list layer exists to append.
struct CrqTarget {
    lcrq::Crq<> q;
    CrqTarget(const std::string&, unsigned order) : q(options(order)) {}
    bool enq(value_t v) { return q.enqueue(v) == lcrq::EnqueueResult::kOk; }
    std::optional<value_t> deq() { return q.dequeue(); }
    std::optional<value_t> drain() { return q.dequeue(); }
};
struct ScqTarget {
    lcrq::Scq<> q;
    ScqTarget(const std::string&, unsigned order) : q(order) {}
    bool enq(value_t v) { return q.try_enqueue(v) == lcrq::ScqPutResult::kOk; }
    std::optional<value_t> deq() { return q.dequeue(); }
    std::optional<value_t> drain() { return q.dequeue(); }
};

// Rungs 2-4: the concrete list queues.
template <class Q>
struct ListTarget {
    Q q;
    ListTarget(const std::string&, unsigned order) : q(options(order)) {}
    bool enq(value_t v) {
        q.enqueue(v);
        return true;
    }
    std::optional<value_t> deq() { return q.dequeue(); }
    std::optional<value_t> drain() { return q.dequeue(); }
    std::uint64_t segments() { return q.segment_count(); }
    std::uint64_t retired() { return q.hazard_domain().retired_count(); }
};

// Rung 5: the registry's AnyQueue.
struct AnyTarget {
    std::unique_ptr<lcrq::AnyQueue> q;
    AnyTarget(const std::string& backend, unsigned order)
        : q(lcrq::make_queue(backend, options(order))) {
        if (!q) throw std::runtime_error("unknown backend " + backend);
    }
    bool enq(value_t v) {
        q->enqueue(v);
        return true;
    }
    std::optional<value_t> deq() { return q->dequeue(); }
    std::optional<value_t> drain() { return q->dequeue(); }
};

// Rung 6: BlockingQueue try_* over the AnyQueue.
struct FacadeTryTarget {
    Facade q;
    FacadeTryTarget(const std::string& backend, unsigned order)
        : q(any_base(backend, order), kFacadeCapacity) {}
    bool enq(value_t v) { return q.try_enqueue(v); }
    std::optional<value_t> deq() { return q.try_dequeue(); }
    std::optional<value_t> drain() { return q.try_dequeue(); }
};

// The dispatch workers' calls (try_enqueue admission, wait_dequeue_for).
struct FacadeWaitTarget {
    Facade q;
    FacadeWaitTarget(const std::string& backend, unsigned order)
        : q(any_base(backend, order), kFacadeCapacity) {}
    bool enq(value_t v) { return q.try_enqueue(v); }
    std::optional<value_t> deq() { return q.wait_dequeue_for(kWorkerSliceNs).to_optional(); }
    std::optional<value_t> drain() { return q.try_dequeue(); }
};

// Rung 7: AsyncQueue co_await, bridged to threads by sync_wait.
struct AsyncTarget {
    lcrq::AsyncQueue<AnyBase> q;
    AsyncTarget(const std::string& backend, unsigned order)
        : q(any_base(backend, order), kFacadeCapacity) {}
    bool enq(value_t v) { return lcrq::sync_wait(q.enqueue(v)); }
    // Never parks in these loops: each thread dequeues only after its own
    // enqueue, so the queue cannot be empty at any dequeue.
    std::optional<value_t> deq() { return lcrq::sync_wait(q.dequeue()); }
    std::optional<value_t> drain() { return q.try_dequeue_sync(); }
};

// --- closed-loop window ----------------------------------------------------

enum class Kernel { kPairs, kChurn };

struct Span {
    std::uint64_t start;
    std::uint32_t ticks;
    std::uint16_t thread;
    std::uint16_t kind;  // 0 enqueue, 1 dequeue
};

struct WindowSpec {
    std::string pass;     // "main", "untraced", "traced", "ladder"
    std::string kind;     // "pairs", "churn", "facade"
    std::string backend;  // registry name of the family
    int rung = 0;         // ladder rung (1-7), 0 outside the ladder
    int round = 0;        // repetition of the window set within the pass
    Kernel kernel = Kernel::kPairs;
    unsigned threads = 1;
    unsigned ring_order = kPairsRingOrder;
    std::uint64_t window_ns = 0;
    bool latency = false;  // time sampled units with the steady clock
    bool spans = false;    // fenced-TSC spans around sampled calls
    std::vector<std::uint32_t> bursts;  // churn burst lengths (seeded)
};

// One per worker, on its own cache lines: the owner writes it on every
// operation, and the main thread reads `progress` while it runs.
struct alignas(lcrq::kCacheLineSize) ThreadOut {
    std::atomic<std::uint64_t> progress{0};  // measured ops so far
    std::uint64_t ops = 0, active_ns = 0, empties = 0, refused = 0;
    std::uint64_t fifo_violations = 0;
    Checksum enq, deq;
    std::vector<std::uint32_t> lat;
    std::vector<Span> spans;
};

struct Shared {
    std::atomic<unsigned> ready{0};
    std::atomic<int> phase{0};  // 0 warm-up, 1 measure, 2 stop
};

struct WindowResult {
    WindowSpec spec;
    std::uint64_t ops = 0, active_ns = 0, setup_ns = 0;
    std::uint64_t empties = 0, refused = 0;
    std::uint64_t enqueued = 0, dequeued = 0, fifo_violations = 0;
    // (ns, ops completed) per ~2 ms slice of the window, as the main
    // thread saw the workers' progress.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
    double rss_peak_mb = 0;
    std::uint64_t segments_max = 0, retired_max = 0;
    bool sampled_gauges = false;
    bool correct = true;
    std::string error;
    lcrq::stats::Snapshot counters;
    std::vector<std::uint32_t> lat;
    std::vector<Span> spans;
};

// Owns a set of threads and joins them on every exit path.  On an early
// exit (an exception while spawning) `release` runs first, so threads held
// at a start gate can leave.  An exception inside a thread ends only that
// thread; it is counted and its message kept for the window's verdict.
class ThreadGroup {
  public:
    explicit ThreadGroup(std::function<void()> release) : release_(std::move(release)) {}
    ~ThreadGroup() {
        if (threads_.empty()) return;
        release_();
        join();
    }
    ThreadGroup(const ThreadGroup&) = delete;
    ThreadGroup& operator=(const ThreadGroup&) = delete;

    template <class F>
    void spawn(F f) {
        std::string& error = errors_.emplace_back();  // deque: stable reference
        threads_.emplace_back([this, &error, f = std::move(f)]() mutable {
            try {
                f();
            } catch (const std::exception& e) {
                error = e.what();
                failed_.fetch_add(1, std::memory_order_release);
            }
        });
    }

    unsigned failed() const { return failed_.load(std::memory_order_acquire); }
    // Valid once the threads are joined.
    std::string first_error() const {
        for (const auto& e : errors_) {
            if (!e.empty()) return e;
        }
        return "";
    }
    // Joins the first `n` threads still running (all by default).
    void join(std::size_t n = SIZE_MAX) {
        for (std::size_t i = 0; i < threads_.size() && i < n; ++i) {
            if (threads_[i].joinable()) threads_[i].join();
        }
        if (n >= threads_.size()) threads_.clear();
    }

  private:
    std::function<void()> release_;
    std::deque<std::string> errors_;
    std::atomic<unsigned> failed_{0};
    std::vector<std::thread> threads_;
};

template <class T>
class Worker {
  public:
    Worker(T& q, const WindowSpec& s, unsigned tid, Shared& sh, ThreadOut& out)
        : q_(q), s_(s), tid_(tid), sh_(sh), out_(out), last_(s.threads, 0) {}

    void run() {
        if (s_.kernel == Kernel::kPairs) {
            for (std::uint64_t i = 0; i < kPairsWarmup && live_; ++i) pair(false);
        } else {
            for (std::uint64_t i = 0; i < kChurnWarmupBursts && live_; ++i) burst(false);
        }
        sh_.ready.fetch_add(1, std::memory_order_acq_rel);
        while (sh_.phase.load(std::memory_order_acquire) == 0) {
        }
        const std::uint64_t t0 = lcrq::now_ns();
        while (live_ && sh_.phase.load(std::memory_order_relaxed) == 1) {
            if (s_.kernel == Kernel::kPairs) {
                pair(true);
            } else {
                burst(true);
            }
        }
        out_.active_ns = lcrq::now_ns() - t0;
    }

  private:
    bool stopping() const { return sh_.phase.load(std::memory_order_relaxed) == 2; }

    void record_span(std::uint64_t a, std::uint64_t b, std::uint16_t kind) {
        if (out_.spans.size() < kSpanCap) {
            out_.spans.push_back({a, static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                         b - a, UINT32_MAX)),
                                  static_cast<std::uint16_t>(tid_), kind});
        }
    }
    void record_lat(std::uint64_t ns) {
        out_.lat.push_back(static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
    }

    bool enq(bool measured) {
        const value_t v = encode(tid_, seq_);
        bool ok = false;
        if (measured && s_.spans && (++enq_spans_ % kSpanEvery) == 0) {
            const std::uint64_t a = tsc_begin();
            ok = q_.enq(v);
            record_span(a, tsc_end(), 0);
        } else {
            ok = q_.enq(v);
        }
        if (!ok) {
            ++out_.refused;
            live_ = false;
            return false;
        }
        ++seq_;
        out_.enq.add(v);
        return true;
    }

    // Retries EMPTY, which a linearizable queue cannot answer here: each
    // thread dequeues only after its own enqueue.  A queue that lost an
    // item answers it forever, so the thread gives up after a bounded run
    // of EMPTYs (or at the window's end) and conservation reports the loss.
    bool deq(bool measured) {
        for (unsigned empty_run = 0;; ++empty_run) {
            std::optional<value_t> d;
            if (measured && s_.spans && (++deq_spans_ % kSpanEvery) == 0) {
                const std::uint64_t a = tsc_begin();
                d = q_.deq();
                record_span(a, tsc_end(), 1);
            } else {
                d = q_.deq();
            }
            if (d) {
                check(*d);
                return true;
            }
            ++out_.empties;
            if (stopping() || empty_run >= kMaxEmptyRun) {
                live_ = false;
                return false;
            }
        }
    }

    void check(value_t v) {
        out_.deq.add(v);
        const std::uint64_t p = v >> kSeqBits;
        const std::uint64_t next = (v & kSeqMask) + 1;
        if (p >= last_.size() || next <= last_[p]) {
            ++out_.fifo_violations;
            return;
        }
        last_[p] = next;
    }

    void pair(bool measured) {
        const bool timed = measured && s_.latency && (++lat_tick_ % kLatencyEvery) == 0;
        const std::uint64_t t0 = timed ? lcrq::now_ns() : 0;
        if (!enq(measured) || !deq(measured)) return;
        if (timed) record_lat(lcrq::now_ns() - t0);
        if (measured) done(2);
    }

    void done(std::uint64_t ops) {
        out_.ops += ops;
        out_.progress.store(out_.ops, std::memory_order_relaxed);
    }

    bool timed_op(bool measured, bool is_enq) {
        const bool timed = measured && s_.latency && (++lat_tick_ % kLatencyEvery) == 0;
        const std::uint64_t t0 = timed ? lcrq::now_ns() : 0;
        const bool ok = is_enq ? enq(measured) : deq(measured);
        if (ok && timed) record_lat(lcrq::now_ns() - t0);
        if (ok && measured) done(1);
        return ok;
    }

    void burst(bool measured) {
        const std::uint32_t b = s_.bursts[burst_idx_++ % s_.bursts.size()];
        std::uint32_t put = 0;
        while (put < b && timed_op(measured, true)) ++put;
        std::uint32_t got = 0;
        while (got < put && timed_op(measured, false)) ++got;
    }

    T& q_;
    const WindowSpec& s_;
    const unsigned tid_;
    Shared& sh_;
    ThreadOut& out_;
    std::vector<std::uint64_t> last_;  // per producer: last seq seen + 1
    std::uint64_t seq_ = 0, lat_tick_ = 0, enq_spans_ = 0, deq_spans_ = 0;
    std::size_t burst_idx_ = 0;
    bool live_ = true;
};

template <class T>
WindowResult run_window(const WindowSpec& spec) {
    WindowResult r;
    r.spec = spec;
    malloc_trim(0);  // each window starts from the same resident baseline
    const std::uint64_t setup0 = lcrq::now_ns();
    auto q = std::make_unique<T>(spec.backend, spec.ring_order);
    Shared sh;
    std::vector<ThreadOut> outs(spec.threads);
    for (auto& o : outs) {
        if (spec.latency) o.lat.reserve(1 << 18);
        if (spec.spans) o.spans.reserve(kSpanCap);
    }
    ThreadGroup threads([&] { sh.phase.store(2, std::memory_order_release); });
    for (unsigned t = 0; t < spec.threads; ++t) {
        threads.spawn([&, t] { Worker<T>(*q, spec, t, sh, outs[t]).run(); });
    }
    while (sh.ready.load(std::memory_order_acquire) < spec.threads && threads.failed() == 0) {
        std::this_thread::yield();
    }
    r.setup_ns = lcrq::now_ns() - setup0;

    const lcrq::stats::Snapshot before = lcrq::stats::global_snapshot();
    const std::uint64_t t0 = lcrq::now_ns();
    sh.phase.store(1, std::memory_order_release);
    r.rss_peak_mb = rss_mb();
    // The main thread samples memory (and the list gauges, when the rung
    // exposes them) while the workers run.
    std::uint64_t last_ns = t0, last_ops = 0;
    while (last_ns - t0 < spec.window_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const std::uint64_t nw = lcrq::now_ns();
        std::uint64_t ops = 0;
        for (const auto& o : outs) ops += o.progress.load(std::memory_order_relaxed);
        r.slices.emplace_back(nw - last_ns, ops - last_ops);
        last_ns = nw;
        last_ops = ops;
        r.rss_peak_mb = std::max(r.rss_peak_mb, rss_mb());
        if constexpr (requires(T& t) { t.segments(); t.retired(); }) {
            r.sampled_gauges = true;
            r.segments_max = std::max(r.segments_max, q->segments());
            r.retired_max = std::max(r.retired_max, q->retired());
        }
    }
    sh.phase.store(2, std::memory_order_release);
    threads.join();
    r.counters = lcrq::stats::global_snapshot() - before;

    Checksum enq, deq;
    for (auto& o : outs) {
        r.ops += o.ops;
        r.active_ns += o.active_ns;
        r.empties += o.empties;
        r.refused += o.refused;
        enq += o.enq;
        deq += o.deq;
        r.fifo_violations += o.fifo_violations;
        r.lat.insert(r.lat.end(), o.lat.begin(), o.lat.end());
        r.spans.insert(r.spans.end(), o.spans.begin(), o.spans.end());
    }
    while (auto v = q->drain()) deq.add(*v);
    r.enqueued = enq.count;
    r.dequeued = deq.count;
    if (threads.failed() != 0) {
        r.correct = false;
        r.error = "worker failed: " + threads.first_error();
    } else if (!(enq == deq)) {
        r.correct = false;
        r.error = "conservation: enqueued " + std::to_string(enq.count) + ", dequeued " +
                  std::to_string(deq.count) + " (or checksum mismatch)";
    } else if (r.fifo_violations != 0) {
        r.correct = false;
        r.error = "per-producer FIFO order violated";
    }
    return r;
}

// --- open-loop dispatch ------------------------------------------------------

struct DispatchResult {
    std::string pass;
    bool traced = false;
    std::uint64_t setup_ns = 0, window_ns = 0, warmup_ns = 0;
    std::uint64_t offered = 0, accepted = 0, shed = 0, completed = 0;
    bool correct = true;
    std::string error;
    lcrq::stats::Snapshot counters;
    // Per request (index = sequence number); UINT32_MAX = never completed.
    std::vector<std::uint32_t> e2e_ns, lag_ns;
    // Traced only: admission span, admission start -> dequeue return, and
    // service, in TSC ticks.
    std::vector<std::uint32_t> admit_ticks, wait_ticks, service_ticks;
};

DispatchResult run_dispatch(const std::string& pass, bool traced, std::uint64_t window_ns,
                            std::uint64_t seed) {
    DispatchResult r;
    r.pass = pass;
    r.traced = traced;
    r.window_ns = window_ns;
    r.warmup_ns = kDispatchWarmupNs;
    malloc_trim(0);
    const std::uint64_t setup0 = lcrq::now_ns();

    // Poisson schedule over warm-up + window, fixed before any thread runs.
    std::vector<std::uint64_t> sched;
    {
        const double rate_per_ns = kDispatchMops * 1e-3;
        const double horizon = static_cast<double>(kDispatchWarmupNs + window_ns);
        sched.reserve(static_cast<std::size_t>(rate_per_ns * horizon * 1.1) + 16);
        std::mt19937_64 rng(seed);
        std::exponential_distribution<double> gap(rate_per_ns);
        for (double t = gap(rng); t < horizon; t += gap(rng)) {
            sched.push_back(static_cast<std::uint64_t>(t));
        }
    }
    const std::size_t n = sched.size();
    r.offered = n;
    r.e2e_ns.assign(n, UINT32_MAX);
    r.lag_ns.assign(n, 0);
    std::vector<std::uint64_t> admit_start;
    if (traced) {
        r.admit_ticks.assign(n, 0);
        r.wait_ticks.assign(n, 0);
        r.service_ticks.assign(n, 0);
        admit_start.assign(n, 0);
    }

    Facade q(any_base("lcrq", kPairsRingOrder), kFacadeCapacity);
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::atomic<std::uint64_t> start_ns{0};
    std::vector<Checksum> wsum(kDispatchWorkers);
    std::vector<std::uint64_t> wdone(kDispatchWorkers, 0);
    Checksum gsum;

    std::atomic<bool> abort{false};
    ThreadGroup threads([&] {
        abort.store(true);
        go.store(true, std::memory_order_release);
        q.close();
    });
    // The generator is thread 0; the workers follow.
    threads.spawn([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
        }
        const std::uint64_t t0 = start_ns.load(std::memory_order_acquire);
        for (std::size_t seq = 0; seq < n && !abort.load(std::memory_order_relaxed); ++seq) {
            const std::uint64_t intended = t0 + sched[seq];
            std::uint64_t nw = lcrq::now_ns();
            // Sleep off long gaps so an idle generator leaves the CPU to
            // the workers; spin the last stretch for precision.
            constexpr std::uint64_t kSpinTailNs = 50'000;
            if (nw + kSpinTailNs < intended) {
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(intended - nw - kSpinTailNs));
                nw = lcrq::now_ns();
            }
            while (nw < intended) nw = lcrq::now_ns();
            r.lag_ns[seq] = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(nw - intended, UINT32_MAX));
            const value_t v = encode(0, seq);
            bool ok = false;
            if (traced) {
                const std::uint64_t a = tsc_begin();
                // Published before admission: a worker may dequeue the
                // value before try_enqueue returns.
                admit_start[seq] = a;
                ok = q.try_enqueue(v);
                const std::uint64_t b = tsc_end();
                r.admit_ticks[seq] = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(b - a, UINT32_MAX));
            } else {
                ok = q.try_enqueue(v);
            }
            if (ok) {
                gsum.add(v);
            } else {
                ++r.shed;
            }
        }
    });
    for (unsigned w = 0; w < kDispatchWorkers; ++w) {
        threads.spawn([&, w] {
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {
            }
            const std::uint64_t t0 = start_ns.load(std::memory_order_acquire);
            for (;;) {
                const lcrq::WaitResult res = q.wait_dequeue_for(kWorkerSliceNs);
                if (res.closed()) break;
                if (!res.ok()) continue;
                const std::uint64_t deq_tsc = traced ? tsc_end() : 0;
                const std::uint64_t seq = res.value & kSeqMask;
                if (seq >= n) {  // corrupt value: counted by conservation
                    wsum[w].add(res.value);
                    continue;
                }
                const std::uint64_t s0 = traced ? tsc_begin() : 0;
                lcrq::spin_for_ns(kServiceNs);
                if (traced) {
                    r.service_ticks[seq] = static_cast<std::uint32_t>(tsc_end() - s0);
                    const std::uint64_t e = admit_start[seq];
                    r.wait_ticks[seq] = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(deq_tsc > e ? deq_tsc - e : 0, UINT32_MAX));
                }
                const std::uint64_t done = lcrq::now_ns();
                const std::uint64_t intended = t0 + sched[seq];
                r.e2e_ns[seq] = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(done > intended ? done - intended : 0,
                                            UINT32_MAX - 1));
                wsum[w].add(res.value);
                ++wdone[w];
            }
        });
    }
    while (ready.load() < kDispatchWorkers + 1) std::this_thread::yield();
    const lcrq::stats::Snapshot before = lcrq::stats::global_snapshot();
    start_ns.store(lcrq::now_ns(), std::memory_order_release);
    go.store(true, std::memory_order_release);
    // Set-up ends when the warm-up interval of the schedule has passed.
    std::this_thread::sleep_for(std::chrono::nanoseconds(kDispatchWarmupNs));
    r.setup_ns = lcrq::now_ns() - setup0;

    threads.join(1);
    q.close();
    threads.join();
    r.counters = lcrq::stats::global_snapshot() - before;

    Checksum done;
    for (unsigned w = 0; w < kDispatchWorkers; ++w) {
        done += wsum[w];
        r.completed += wdone[w];
    }
    r.accepted = gsum.count;
    if (threads.failed() != 0) {
        r.correct = false;
        r.error = "dispatch thread failed: " + threads.first_error();
    } else if (!(done == gsum)) {
        r.correct = false;
        r.error = "dispatch conservation: accepted " + std::to_string(gsum.count) +
                  ", completed " + std::to_string(done.count) + " (or checksum mismatch)";
    }
    // The per-request arrays keep only the measured (post-warm-up) suffix.
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(sched.begin(), sched.end(), kDispatchWarmupNs) - sched.begin());
    auto trim = [first](std::vector<std::uint32_t>& v) {
        if (!v.empty()) v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(first));
    };
    trim(r.e2e_ns);
    trim(r.lag_ns);
    trim(r.admit_ticks);
    trim(r.wait_ticks);
    trim(r.service_ticks);
    return r;
}

// --- host stall probe --------------------------------------------------------

struct StallProbe {
    std::uint64_t span_ns = 0, stalled_ns = 0, gaps = 0, longest_ns = 0;
};

// Spins on the clock; a gap above 50 us between consecutive reads is time
// the host took from a thread that wanted to run.
StallProbe probe_host(std::uint64_t span_ns) {
    StallProbe p;
    const std::uint64_t t0 = lcrq::now_ns();
    std::uint64_t prev = t0;
    for (;;) {
        const std::uint64_t nw = lcrq::now_ns();
        const std::uint64_t gap = nw - prev;
        if (gap > 50'000) {
            p.stalled_ns += gap;
            ++p.gaps;
            p.longest_ns = std::max(p.longest_ns, gap);
        }
        prev = nw;
        if (nw - t0 >= span_ns) break;
    }
    p.span_ns = prev - t0;
    return p;
}

// --- passes ------------------------------------------------------------------

struct Args {
    std::string workload, out;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

unsigned nproc() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 2u, 4u);
}

const std::vector<std::string> kBackends = {"lcrq", "lscq", "lwcq"};

std::vector<std::uint32_t> churn_bursts(std::mt19937_64& rng) {
    // Two to six rings deep per thread, so depth sweeps across many live
    // segments and every burst closes and appends rings.
    const std::uint32_t ring = 1u << kChurnRingOrder;
    std::uniform_int_distribution<std::uint32_t> d(2 * ring, 6 * ring);
    std::vector<std::uint32_t> b(64);
    for (auto& x : b) x = d(rng);
    return b;
}

// --- output ------------------------------------------------------------------

std::string counters_json(const lcrq::stats::Snapshot& s) {
    std::ostringstream o;
    o << "{";
    for (std::size_t i = 0; i < lcrq::stats::kEventCount; ++i) {
        if (i) o << ",";
        o << "\"" << lcrq::stats::event_name(static_cast<lcrq::stats::Event>(i))
          << "\":" << s.counts[i];
    }
    o << "}";
    return o.str();
}

std::string quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') q += '\\';
        q += c;
    }
    return q + "\"";
}

// Collects the run's records.  Sample arrays are written out and freed as
// soon as their window ends, so the memory of later windows holds only
// their own queue and samples; raw.json is written when the run ends.
class Recorder {
  public:
    explicit Recorder(std::string dir) : dir_(std::move(dir)) {}

    void add(WindowResult&& w) {
        const std::string id = "w" + std::to_string(windows_++);
        const std::string lat = spill(id + "_lat.u32", w.lat);
        const std::string spans = spill(id + "_spans.bin", w.spans);
        std::ostringstream& o = section(windows_json_);
        o << "{\"pass\":" << quote(w.spec.pass) << ",\"kind\":" << quote(w.spec.kind)
          << ",\"backend\":" << quote(w.spec.backend) << ",\"rung\":" << w.spec.rung
          << ",\"round\":" << w.spec.round << ",\"threads\":" << w.spec.threads
          << ",\"ops\":" << w.ops << ",\"active_ns\":" << w.active_ns
          << ",\"setup_ns\":" << w.setup_ns
          << ",\"empties\":" << w.empties << ",\"refused\":" << w.refused
          << ",\"enqueued\":" << w.enqueued << ",\"dequeued\":" << w.dequeued
          << ",\"fifo_violations\":" << w.fifo_violations
          << ",\"rss_peak_mb\":" << w.rss_peak_mb << ",\"slices\":[";
        for (std::size_t i = 0; i < w.slices.size(); ++i) {
            o << (i ? "," : "") << "[" << w.slices[i].first << "," << w.slices[i].second << "]";
        }
        o << "]";
        if (w.sampled_gauges) {
            o << ",\"segments_max\":" << w.segments_max << ",\"retired_max\":" << w.retired_max;
        }
        o << ",\"correct\":" << (w.correct ? "true" : "false")
          << ",\"error\":" << quote(w.error) << ",\"lat_file\":" << quote(lat)
          << ",\"span_file\":" << quote(spans) << ",\"counters\":" << counters_json(w.counters)
          << "}";
    }

    void add(DispatchResult&& d) {
        const std::string id = "d" + std::to_string(dispatches_++) + "_";
        spill(id + "e2e.u32", d.e2e_ns);
        spill(id + "lag.u32", d.lag_ns);
        if (d.traced) {
            spill(id + "admit.u32", d.admit_ticks);
            spill(id + "wait.u32", d.wait_ticks);
            spill(id + "service.u32", d.service_ticks);
        }
        std::ostringstream& o = section(dispatch_json_);
        o << "{\"pass\":" << quote(d.pass) << ",\"traced\":" << (d.traced ? "true" : "false")
          << ",\"files\":" << quote(id) << ",\"setup_ns\":" << d.setup_ns
          << ",\"window_ns\":" << d.window_ns << ",\"warmup_ns\":" << d.warmup_ns
          << ",\"offered\":" << d.offered
          << ",\"accepted\":" << d.accepted << ",\"shed\":" << d.shed
          << ",\"completed\":" << d.completed << ",\"deadline_ns\":" << kDeadlineNs
          << ",\"service_ns\":" << kServiceNs << ",\"offered_mops\":" << kDispatchMops
          << ",\"correct\":" << (d.correct ? "true" : "false")
          << ",\"error\":" << quote(d.error) << ",\"counters\":" << counters_json(d.counters)
          << "}";
    }

    void finish(const Args& a, const StallProbe& probe) {
        std::ofstream f(dir_ + "/raw.json");
        f.precision(17);
        f << "{\"workload\":" << quote(a.workload) << ",\"seed\":" << a.seed
          << ",\"seconds\":" << a.seconds << ",\"trace\":" << (a.trace ? 1 : 0)
          << ",\"nproc\":" << nproc() << ",\"tsc_per_ns\":" << lcrq::tsc_per_ns()
          << ",\"host\":{\"span_ns\":" << probe.span_ns
          << ",\"stalled_ns\":" << probe.stalled_ns << ",\"gaps\":" << probe.gaps
          << ",\"longest_ns\":" << probe.longest_ns << "},\"windows\":["
          << windows_json_.str() << "],\"dispatch\":[" << dispatch_json_.str() << "]}\n";
        if (!f) throw std::runtime_error("cannot write raw.json");
    }

  private:
    std::ostringstream& section(std::ostringstream& o) {
        if (o.tellp() > 0) o << ",";
        o.precision(17);
        return o;
    }

    // Writes `v` to `name` unless empty and releases its memory; returns
    // the file name, or "" when nothing was written.
    template <class T>
    std::string spill(const std::string& name, std::vector<T>& v) {
        if (v.empty()) return "";
        std::ofstream f(dir_ + "/" + name, std::ios::binary);
        f.write(reinterpret_cast<const char*>(v.data()),
                static_cast<std::streamsize>(v.size() * sizeof(T)));
        if (!f) throw std::runtime_error("cannot write " + name);
        std::vector<T>().swap(v);
        return name;
    }

    std::string dir_;
    std::ostringstream windows_json_, dispatch_json_;
    std::size_t windows_ = 0, dispatches_ = 0;
};

// --- passes ------------------------------------------------------------------

// A window of `kind` ("pairs", "churn" or "facade"): churn runs bursts at
// its own ring order, the others run pairs.
WindowSpec window_spec(const std::string& pass, const std::string& kind,
                       const std::string& backend, unsigned threads, int round,
                       std::uint64_t window_ns, std::mt19937_64& rng) {
    WindowSpec s;
    s.pass = pass;
    s.kind = kind;
    s.backend = backend;
    s.threads = threads;
    s.round = round;
    s.window_ns = window_ns;
    if (kind == "churn") {
        s.kernel = Kernel::kChurn;
        s.ring_order = kChurnRingOrder;
        s.bursts = churn_bursts(rng);
    }
    return s;
}

WindowResult run_any_or_facade(const WindowSpec& s) {
    if (s.kind == "facade") return run_window<FacadeWaitTarget>(s);
    return run_window<AnyTarget>(s);
}

// One pass of a workload's closed-loop windows: every backend at each
// thread count, `rounds` times in seeded order, splitting `budget_ns`.
void closed_pass(const std::string& pass, const std::string& kind,
                 const std::vector<unsigned>& thread_counts, bool spans, int rounds,
                 std::uint64_t budget_ns, std::mt19937_64& rng, Recorder& rec) {
    std::vector<std::pair<std::string, unsigned>> cells;
    for (const auto& b : kBackends) {
        for (unsigned t : thread_counts) cells.emplace_back(b, t);
    }
    const std::uint64_t win = budget_ns / (cells.size() * static_cast<unsigned>(rounds));
    for (int r = 0; r < rounds; ++r) {
        std::shuffle(cells.begin(), cells.end(), rng);
        for (const auto& [backend, threads] : cells) {
            WindowSpec s = window_spec(pass, kind, backend, threads, r, win, rng);
            // The closed loops' e2e latency is lcrq's, as in dispatch.
            s.latency = backend == "lcrq" && threads > 1;
            s.spans = spans && backend == "lcrq" && threads > 1;
            rec.add(run_any_or_facade(s));
        }
    }
}

template <class Raw, class NoReclaim, class NoPool, class Full>
WindowResult run_rung(const WindowSpec& s) {
    switch (s.rung) {
        case 1: return run_window<Raw>(s);
        case 2: return run_window<ListTarget<NoReclaim>>(s);
        case 3: return run_window<ListTarget<NoPool>>(s);
        case 4: return run_window<ListTarget<Full>>(s);
        case 5: return run_window<AnyTarget>(s);
        case 6: return run_window<FacadeTryTarget>(s);
        default: return run_window<AsyncTarget>(s);
    }
}

// The layer-cost ladder: the same closed loop against each rung's public
// type.  pairs at 1 and nproc threads over rungs 1-7; churn at nproc over
// rungs 2-4 (a bare ring cannot churn).
void ladder(std::uint64_t budget_ns, std::mt19937_64& rng, Recorder& rec) {
    struct Cell {
        std::string family;
        std::string kind;
        int rung;
        unsigned threads;
    };
    std::vector<Cell> cells;
    for (const char* fam : {"lcrq", "lscq"}) {
        for (int rung = 1; rung <= 7; ++rung) {
            cells.push_back({fam, "pairs", rung, 1});
            cells.push_back({fam, "pairs", rung, nproc()});
        }
        for (int rung = 2; rung <= 4; ++rung) cells.push_back({fam, "churn", rung, nproc()});
    }
    constexpr int kRounds = 2;
    const std::uint64_t win = budget_ns / (cells.size() * kRounds);
    for (int r = 0; r < kRounds; ++r) {
        std::shuffle(cells.begin(), cells.end(), rng);
        for (const auto& c : cells) {
            WindowSpec s = window_spec("ladder", c.kind, c.family, c.threads, r, win, rng);
            s.rung = c.rung;
            if (c.family == "lcrq") {
                rec.add(run_rung<CrqTarget, lcrq::LcrqNoReclaimQueue, lcrq::LcrqNoPoolQueue,
                                 lcrq::LcrqQueue>(s));
            } else {
                rec.add(run_rung<ScqTarget, lcrq::LscqNoReclaimQueue, lcrq::LscqNoPoolQueue,
                                 lcrq::LscqQueue>(s));
            }
        }
    }
}

// A workload's pass: the closed-loop windows, plus the open loop for
// dispatch (whose closed-loop windows run the facade as its workers do).
void workload_pass(const Args& a, const std::string& pass,
                   const std::vector<unsigned>& thread_counts, bool traced, int rounds,
                   std::uint64_t budget_ns, std::mt19937_64& rng, Recorder& rec) {
    if (a.workload == "dispatch") {
        const std::uint64_t open_ns = budget_ns * 6 / 10;
        closed_pass(pass, "facade", thread_counts, traced, rounds, budget_ns - open_ns, rng,
                    rec);
        rec.add(run_dispatch(pass, traced, open_ns, rng()));
    } else {
        closed_pass(pass, a.workload, thread_counts, traced, rounds, budget_ns, rng, rec);
    }
}

int main_impl(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::stoull(v);
        else if (k == "--seconds") a.seconds = std::stod(v);
        else if (k == "--trace") a.trace = v == "1";
        else if (k == "--out") a.out = v;
        else throw std::runtime_error("unknown flag " + k);
    }
    if (a.workload != "pairs" && a.workload != "churn" && a.workload != "dispatch") {
        throw std::runtime_error("--workload must be pairs, churn or dispatch");
    }
    if (a.out.empty() || !(a.seconds > 0)) throw std::runtime_error("need --out and --seconds > 0");

    std::mt19937_64 rng(a.seed);
    lcrq::tsc_per_ns();  // calibrate before any window
    const StallProbe probe = probe_host(100'000'000);
    const auto budget = static_cast<std::uint64_t>(a.seconds * 1e9);
    Recorder rec(a.out);
    if (!a.trace) {
        // Only nproc threads are gated end to end: single-thread throughput
        // drifts with the host by more than a usable bound, so it is a
        // per-layer metric of the traced run.
        workload_pass(a, "main", {nproc()}, false, 10, budget, rng, rec);
    } else {
        workload_pass(a, "untraced", {1, nproc()}, false, 2, budget / 5, rng, rec);
        workload_pass(a, "traced", {1, nproc()}, true, 2, budget / 4, rng, rec);
        ladder(budget - budget / 5 - budget / 4, rng, rec);
    }
    rec.finish(a, probe);
    return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
    try {
        return pb::main_impl(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_measure: %s\n", e.what());
        return 2;
    }
}
