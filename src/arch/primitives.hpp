// The x86 synchronization primitives of the paper's Section 3:
//
//   read, F&A (lock xadd), SWAP (xchg), T&S (lock bts),
//   CAS (lock cmpxchg), CAS2 (lock cmpxchg16b).
//
// All the lock-prefixed RMW instructions are globally ordered and flush the
// store buffer, so (per x86-TSO) an algorithm whose shared writes are all
// RMW primitives may be reasoned about as sequentially consistent.  We use
// std::atomic with seq_cst for the single-word primitives — on x86 they
// compile to exactly the instructions above — and inline asm for CAS2,
// which std::atomic<__int128> would route through libatomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "arch/cacheline.hpp"

namespace lcrq {

#if defined(__x86_64__) && defined(__GCC_ASM_FLAG_OUTPUTS__)
#define LCRQ_HAVE_NATIVE_CAS2 1
#else
#define LCRQ_HAVE_NATIVE_CAS2 0
#endif

// ---------------------------------------------------------------------------
// Single-word primitives.  Thin named wrappers so algorithm code reads like
// the paper's pseudocode and so instrumented builds can count invocations.
// ---------------------------------------------------------------------------

// F&A(a, x): returns the previous value, adds x.  `lock xadd`.
template <typename T>
inline T fetch_and_add(std::atomic<T>& a, T x) noexcept {
    return a.fetch_add(x, std::memory_order_seq_cst);
}

// SWAP(a, x): returns the previous value, stores x.  `xchg`.
template <typename T>
inline T swap(std::atomic<T>& a, T x) noexcept {
    return a.exchange(x, std::memory_order_seq_cst);
}

// T&S over a designated bit: returns the previous bit.  `lock bts`.
inline bool test_and_set_bit(std::atomic<std::uint64_t>& a, unsigned bit) noexcept {
#if defined(__x86_64__)
    bool old;
    asm volatile("lock btsq %2, %0"
                 : "+m"(a), "=@ccc"(old)
                 : "Jr"(static_cast<std::uint64_t>(bit))
                 : "memory");
    return old;
#else
    const std::uint64_t mask = std::uint64_t{1} << bit;
    return (a.fetch_or(mask, std::memory_order_seq_cst) & mask) != 0;
#endif
}

// CAS(a, o, n): single-word compare-and-swap.  `lock cmpxchg`.
// Returns true on success; unlike compare_exchange it does not report the
// observed value — matching the paper's primitive and keeping call sites
// honest about re-reading.
template <typename T>
inline bool cas(std::atomic<T>& a, T expected, T desired) noexcept {
    return a.compare_exchange_strong(expected, desired, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// CAS2: double-width (16-byte) compare-and-swap.  `lock cmpxchg16b`.
//
// The target must be 16-byte aligned.  On failure the observed value is
// written back into `expected` (like compare_exchange), which the CRQ uses
// to avoid an extra read before retrying.
// ---------------------------------------------------------------------------

struct alignas(16) U128 {
    std::uint64_t lo{0};
    std::uint64_t hi{0};

    friend bool operator==(const U128&, const U128&) = default;
};
static_assert(sizeof(U128) == 16 && alignof(U128) == 16);

inline bool cas2(U128* target, U128& expected, U128 desired) noexcept {
#if LCRQ_HAVE_NATIVE_CAS2
    bool ok;
    asm volatile("lock cmpxchg16b %1"
                 : "=@ccz"(ok), "+m"(*target), "+a"(expected.lo), "+d"(expected.hi)
                 : "b"(desired.lo), "c"(desired.hi)
                 : "memory");
    return ok;
#else
    using Int128 = unsigned __int128;
    auto* p = reinterpret_cast<Int128*>(target);
    Int128 exp = (Int128{expected.hi} << 64) | expected.lo;
    const Int128 des = (Int128{desired.hi} << 64) | desired.lo;
    const bool ok = __atomic_compare_exchange_n(p, &exp, des, false, __ATOMIC_SEQ_CST,
                                                __ATOMIC_SEQ_CST);
    expected.lo = static_cast<std::uint64_t>(exp);
    expected.hi = static_cast<std::uint64_t>(exp >> 64);
    return ok;
#endif
}

// Atomic 16-byte read.  x86 has no plain 16-byte atomic load; the portable
// trick — also what libatomic does — is a cmpxchg16b with equal
// expected/desired, which either succeeds (no visible write) or returns the
// current value in `expected`.  The CRQ instead reads its two node words
// with separate 8-byte loads and revalidates (see crq.hpp); this helper is
// for tests and non-hot paths.
inline U128 load2(U128* target) noexcept {
    U128 value{};  // arbitrary guess
    (void)cas2(target, value, value);
    return value;
}

// ---------------------------------------------------------------------------
// Feature report used by `regress --figure table1`.
// ---------------------------------------------------------------------------

struct PrimitiveSupport {
    bool native_faa;
    bool native_swap;
    bool native_tas;
    bool native_cas;
    bool native_cas2;
};

inline constexpr PrimitiveSupport primitive_support() noexcept {
#if defined(__x86_64__)
    return {true, true, true, true, LCRQ_HAVE_NATIVE_CAS2 != 0};
#else
    return {false, false, false, true, false};
#endif
}

}  // namespace lcrq
