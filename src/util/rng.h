// Deterministic PRNG (xoshiro256**) for workload generation and adversaries.
//
// The protocols themselves are deterministic; randomness appears only in
// tests, byzantine strategies, and benchmark workload generators, where
// reproducibility across runs matters more than cryptographic quality.
#pragma once

#include <cstdint>

#include "util/bignat.h"
#include "util/common.h"

namespace coca {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      s = mix64(x);
    }
  }

  /// splitmix64 finalizer: the bijective avalanche step used both to expand
  /// seeds into xoshiro state and to derive independent stream seeds.
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Seed of child stream `stream_id` of `seed`. Both words pass through the
  /// splitmix64 finalizer before being combined, so related parent seeds and
  /// consecutive stream ids still yield uncorrelated child streams. This is
  /// the contract the round engine relies on for per-party RNG streams:
  /// the stream depends only on (root seed, stream id), never on draw
  /// order or execution interleaving. Pinned by tests/test_rng.cpp --
  /// changing this function is a break in reproducibility, not a refactor.
  static constexpr std::uint64_t derive_stream_seed(std::uint64_t seed,
                                                    std::uint64_t stream_id) {
    const std::uint64_t a = mix64(seed + 0x9E3779B97F4A7C15ULL);
    const std::uint64_t b = mix64(stream_id + 0xD1B54A32D192ED03ULL);
    return mix64(a ^ (b + 0x8BB84B93962EACC9ULL));
  }

  /// Child stream `stream_id` of `seed` (see `derive_stream_seed`).
  static Rng stream(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(derive_stream_seed(seed, stream_id));
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) for bound >= 1, via rejection sampling.
  std::uint64_t below(std::uint64_t bound) {
    require(bound > 0, "Rng::below: bound must be positive");
    const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
    std::uint64_t v = next_u64();
    while (v >= limit) v = next_u64();
    return v % bound;
  }

  bool next_bool() { return (next_u64() >> 63) != 0; }

  Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(next_u64());
    return out;
  }

  /// Uniform bitstring of exactly `nbits` bits.
  Bitstring bits(std::size_t nbits) {
    return Bitstring::from_packed(bytes(ceil_div(nbits, 8)), nbits);
  }

  /// Uniform BigNat with at most `nbits` bits.
  BigNat nat_below_pow2(std::size_t nbits) {
    return BigNat::from_bits(bits(nbits));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace coca
