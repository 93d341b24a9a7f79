// SIMD word types for the bit-parallel simulation engine.
//
// The engine (bit_sim_engine.hpp) is templated on a Word type; one word
// carries one simulation lane per bit, so widening the word widens the
// whole engine. Three families are provided:
//
//  - std::uint64_t            — the scalar reference word (64 lanes).
//  - SimdWord<N>              — portable N x u64 limb array (128/256/512
//                               lanes for N = 2/4/8). Plain C++ loops over
//                               the limbs; the compiler auto-vectorises
//                               them with whatever ISA the TU is built for.
//  - AvxWord512               — explicit __m512i backend. Only defined
//                               when the translation unit is compiled with
//                               AVX-512F enabled, so this header stays
//                               includable from baseline TUs; the library
//                               compiles it in one dedicated per-ISA TU
//                               (rtl/lane_sim_avx512.cpp) behind runtime
//                               CPU dispatch (simd_mode.hpp).
//
// Every word type exposes the same contract through WordTraits<W>:
// bitwise operators (&, |, ^, ~ — lane-wise boolean algebra), plus the
// lane-indexed helpers the engine needs for staging, counting and
// cross-lane carries. All operations are pure boolean/bit manipulation, so
// every backend computes the identical function and the engine stays
// bit-identical to the scalar oracle at any width.
#pragma once

#include <bit>
#include <cstdint>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace hlp {

/// Portable wide word: N 64-bit limbs = N*64 lanes. `Tag` only
/// disambiguates otherwise-identical instantiations that are compiled in
/// different-ISA translation units (distinct types -> distinct symbols, so
/// the linker can never mix codegen across ISA boundaries).
template <int N, int Tag = 0>
struct SimdWord {
  std::uint64_t limb[N];

  friend SimdWord operator&(const SimdWord& a, const SimdWord& b) {
    SimdWord r;
    for (int i = 0; i < N; ++i) r.limb[i] = a.limb[i] & b.limb[i];
    return r;
  }
  friend SimdWord operator|(const SimdWord& a, const SimdWord& b) {
    SimdWord r;
    for (int i = 0; i < N; ++i) r.limb[i] = a.limb[i] | b.limb[i];
    return r;
  }
  friend SimdWord operator^(const SimdWord& a, const SimdWord& b) {
    SimdWord r;
    for (int i = 0; i < N; ++i) r.limb[i] = a.limb[i] ^ b.limb[i];
    return r;
  }
  friend SimdWord operator~(const SimdWord& a) {
    SimdWord r;
    for (int i = 0; i < N; ++i) r.limb[i] = ~a.limb[i];
    return r;
  }
};

using SimdX2 = SimdWord<2>;  // 128 lanes
using SimdX4 = SimdWord<4>;  // 256 lanes
using SimdX8 = SimdWord<8>;  // 512 lanes

/// The lane-level operations the engine needs beyond the bitwise
/// operators. Specialised per word type; see the std::uint64_t instance
/// for the authoritative semantics of each member.
template <typename W>
struct WordTraits;

template <>
struct WordTraits<std::uint64_t> {
  using Word = std::uint64_t;
  /// Simulation lanes per word (one lane per bit).
  static constexpr int kLanes = 64;
  static Word zero() { return 0; }
  static Word ones() { return ~0ull; }
  /// All lanes 0 or all lanes 1.
  static Word fill(bool b) { return b ? ones() : zero(); }
  /// Any lane set?
  static bool any(Word w) { return w != 0; }
  /// Number of set lanes.
  static int popcount(Word w) { return std::popcount(w); }
  /// Bit of lane `l` (0 or 1).
  static int lane(Word w, int l) {
    return static_cast<int>((w >> l) & 1u);
  }
  /// OR `bit` (0 or 1) into lane `l` — branchless staging primitive.
  static void or_lane(Word& w, int l, std::uint64_t bit) { w |= bit << l; }
  /// Word with lanes [0, n) set (n may equal kLanes).
  static Word mask_lo(int n) {
    return n >= kLanes ? ones() : (1ull << n) - 1;
  }
  /// Shift every lane up by one, inserting `carry_in` (0 or 1) at lane 0.
  static Word shl1(Word w, int carry_in) {
    return (w << 1) | static_cast<Word>(carry_in);
  }
};

template <int N, int Tag>
struct WordTraits<SimdWord<N, Tag>> {
  using Word = SimdWord<N, Tag>;
  static constexpr int kLanes = 64 * N;
  static Word zero() {
    Word w;
    for (int i = 0; i < N; ++i) w.limb[i] = 0;
    return w;
  }
  static Word ones() {
    Word w;
    for (int i = 0; i < N; ++i) w.limb[i] = ~0ull;
    return w;
  }
  static Word fill(bool b) { return b ? ones() : zero(); }
  static bool any(const Word& w) {
    std::uint64_t acc = 0;
    for (int i = 0; i < N; ++i) acc |= w.limb[i];
    return acc != 0;
  }
  static int popcount(const Word& w) {
    int c = 0;
    for (int i = 0; i < N; ++i) c += std::popcount(w.limb[i]);
    return c;
  }
  static int lane(const Word& w, int l) {
    return static_cast<int>((w.limb[l >> 6] >> (l & 63)) & 1u);
  }
  static void or_lane(Word& w, int l, std::uint64_t bit) {
    w.limb[l >> 6] |= bit << (l & 63);
  }
  static Word mask_lo(int n) {
    Word w;
    for (int i = 0; i < N; ++i) {
      const int base = i * 64;
      if (n >= base + 64)
        w.limb[i] = ~0ull;
      else if (n <= base)
        w.limb[i] = 0;
      else
        w.limb[i] = (1ull << (n - base)) - 1;
    }
    return w;
  }
  static Word shl1(const Word& w, int carry_in) {
    Word r;
    std::uint64_t carry = static_cast<std::uint64_t>(carry_in);
    for (int i = 0; i < N; ++i) {
      r.limb[i] = (w.limb[i] << 1) | carry;
      carry = w.limb[i] >> 63;
    }
    return r;
  }
};

#if defined(__AVX512F__)

/// 512-lane word on an AVX-512 register (AVX512F ops only, so runtime
/// dispatch needs exactly the avx512f CPUID bit).
struct AvxWord512 {
  union {
    __m512i v;
    std::uint64_t limb[8];
  };

  friend AvxWord512 operator&(const AvxWord512& a, const AvxWord512& b) {
    AvxWord512 r;
    r.v = _mm512_and_epi64(a.v, b.v);
    return r;
  }
  friend AvxWord512 operator|(const AvxWord512& a, const AvxWord512& b) {
    AvxWord512 r;
    r.v = _mm512_or_epi64(a.v, b.v);
    return r;
  }
  friend AvxWord512 operator^(const AvxWord512& a, const AvxWord512& b) {
    AvxWord512 r;
    r.v = _mm512_xor_epi64(a.v, b.v);
    return r;
  }
  friend AvxWord512 operator~(const AvxWord512& a) {
    AvxWord512 r;
    r.v = _mm512_xor_epi64(a.v, _mm512_set1_epi64(-1));
    return r;
  }
};

template <>
struct WordTraits<AvxWord512> {
  using Word = AvxWord512;
  static constexpr int kLanes = 512;
  static Word zero() {
    Word w;
    w.v = _mm512_setzero_si512();
    return w;
  }
  static Word ones() {
    Word w;
    w.v = _mm512_set1_epi64(-1);
    return w;
  }
  static Word fill(bool b) { return b ? ones() : zero(); }
  static bool any(const Word& w) {
    return _mm512_test_epi64_mask(w.v, w.v) != 0;
  }
  static int popcount(const Word& w) {
#if defined(HLP_HAVE_AVX512VPOPCNT)
    // AVX512VPOPCNTDQ collapses the 8-limb scalar loop into one vector
    // popcount + horizontal add. The helper carries its own target
    // attribute (this TU is only -mavx512f) and is gated on the CPUID bit
    // once per process — toggle counting is the hottest popcount in the
    // engine, so the branch is a predictable scalar test.
    static const bool kHaveVpopcnt =
        __builtin_cpu_supports("avx512vpopcntdq");
    if (kHaveVpopcnt) return popcount_vpopcntdq(w);
#endif
    int c = 0;
    for (int i = 0; i < 8; ++i) c += std::popcount(w.limb[i]);
    return c;
  }
#if defined(HLP_HAVE_AVX512VPOPCNT)
  // The eight limb counts are stored and summed, not reduced with
  // _mm512_reduce_add_epi64: GCC 12 expands that through an undefined
  // vector and warns it is used uninitialized.
  __attribute__((target("avx512f,avx512vpopcntdq"))) static int
  popcount_vpopcntdq(const Word& w) {
    std::uint64_t counts[8];
    _mm512_storeu_si512(counts, _mm512_popcnt_epi64(w.v));
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts) sum += c;
    return static_cast<int>(sum);
  }
#endif
  static int lane(const Word& w, int l) {
    return static_cast<int>((w.limb[l >> 6] >> (l & 63)) & 1u);
  }
  static void or_lane(Word& w, int l, std::uint64_t bit) {
    w.limb[l >> 6] |= bit << (l & 63);
  }
  // Self-contained (no WordTraits<SimdWord<8>> reference): this TU is
  // compiled with AVX flags, and instantiating the baseline portable
  // traits here would emit COMDAT symbols the linker could prefer over
  // the baseline TUs' copies — exactly the cross-ISA mixing the SimdWord
  // Tag exists to prevent.
  static Word mask_lo(int n) {
    Word w;
    for (int i = 0; i < 8; ++i) {
      const int base = i * 64;
      if (n >= base + 64)
        w.limb[i] = ~0ull;
      else if (n <= base)
        w.limb[i] = 0;
      else
        w.limb[i] = (1ull << (n - base)) - 1;
    }
    return w;
  }
  static Word shl1(const Word& w, int carry_in) {
    Word r;
    std::uint64_t carry = static_cast<std::uint64_t>(carry_in);
    for (int i = 0; i < 8; ++i) {
      r.limb[i] = (w.limb[i] << 1) | carry;
      carry = w.limb[i] >> 63;
    }
    return r;
  }
};

#endif  // __AVX512F__

}  // namespace hlp
