// CRC-32 (IEEE 802.3 polynomial, reflected) for log-entry and checkpoint integrity.
// Torn writes at the tail of a segment are detected by the length prefix; CRC catches
// the harder case of a partially-overwritten or bit-flipped entry body, which a length
// check alone would happily parse into garbage operations.
//
// Slicing-by-8: eight 256-entry tables let the main loop fold eight input bytes per
// step with independent lookups instead of a serial byte-at-a-time chain. The result is
// bit-identical to the classic bytewise table loop (Crc32Bytewise, kept as the
// reference the tests compare against), so nothing on disk changes.
#ifndef DOPPEL_SRC_PERSIST_CRC32_H_
#define DOPPEL_SRC_PERSIST_CRC32_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace doppel {

namespace internal {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  // t[k][i] is the CRC state after feeding byte i followed by k zero bytes.
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

}  // namespace internal

// Reference implementation: one table lookup per byte.
inline std::uint32_t Crc32Bytewise(const void* data, std::size_t len,
                                   std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t0 = internal::kCrc32Tables[0];
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c = t0[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

inline std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t seed = 0) {
  static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
                "slicing-by-8 folds 64-bit little-endian loads");
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = internal::kCrc32Tables;
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = t[7][w & 0xffu] ^ t[6][(w >> 8) & 0xffu] ^ t[5][(w >> 16) & 0xffu] ^
        t[4][(w >> 24) & 0xffu] ^ t[3][(w >> 32) & 0xffu] ^ t[2][(w >> 40) & 0xffu] ^
        t[1][(w >> 48) & 0xffu] ^ t[0][w >> 56];
  }
  for (; len > 0; ++p, --len) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace doppel

#endif  // DOPPEL_SRC_PERSIST_CRC32_H_
