// Power-of-two and bit-manipulation helpers.
//
// The protection table decomposes arbitrary vma ranges into power-of-two TCAM entries (§4.2)
// and the directory halves regions down to 4 KB (§5); both lean on these helpers.
#ifndef MIND_SRC_COMMON_BITOPS_H_
#define MIND_SRC_COMMON_BITOPS_H_

#include <bit>
#include <cstdint>

namespace mind {

[[nodiscard]] constexpr bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// floor(log2(x)); x must be non-zero.
[[nodiscard]] constexpr uint32_t Log2Floor(uint64_t x) {
  return 63u - static_cast<uint32_t>(std::countl_zero(x));
}

// ceil(log2(x)); x must be non-zero.
[[nodiscard]] constexpr uint32_t Log2Ceil(uint64_t x) {
  return x <= 1 ? 0 : Log2Floor(x - 1) + 1;
}

// Smallest power of two >= x (x must be non-zero and representable).
[[nodiscard]] constexpr uint64_t RoundUpPowerOfTwo(uint64_t x) {
  return uint64_t{1} << Log2Ceil(x);
}

// Largest power of two <= x (x must be non-zero).
[[nodiscard]] constexpr uint64_t RoundDownPowerOfTwo(uint64_t x) {
  return uint64_t{1} << Log2Floor(x);
}

[[nodiscard]] constexpr uint64_t AlignUp(uint64_t x, uint64_t alignment) {
  return (x + alignment - 1) & ~(alignment - 1);
}

[[nodiscard]] constexpr uint64_t AlignDown(uint64_t x, uint64_t alignment) {
  return x & ~(alignment - 1);
}

[[nodiscard]] constexpr bool IsAligned(uint64_t x, uint64_t alignment) {
  return (x & (alignment - 1)) == 0;
}

// Index of the lowest set bit; x must be non-zero.
[[nodiscard]] constexpr uint32_t LowestSetBit(uint64_t x) {
  return static_cast<uint32_t>(std::countr_zero(x));
}

}  // namespace mind

#endif  // MIND_SRC_COMMON_BITOPS_H_
