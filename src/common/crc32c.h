// CRC32C (Castagnoli): the checksum under every WAL frame (wal/log.h) and
// both CRCs of every wire frame (net/wire.h). One portable software kernel,
// deterministic across platforms and independent of the buffer's alignment
// and the host's byte order. Stored CRCs are masked (LevelDB-style) so a CRC
// computed over bytes that themselves contain CRCs does not degenerate.
//
// The kernel is slicing-by-8: kCrc32cTables[k][b] is the CRC register
// contribution of byte b followed by k zero bytes, so one step folds eight
// input bytes with eight independent table lookups instead of eight
// dependent ones. The eight bytes are read as two little-endian words
// assembled from single bytes (compilers merge that into one load on
// little-endian hosts); the tail shorter than a step runs a byte at a time
// on kCrc32cTables[0], the classic byte table. Both paths compute the same
// function, so values are bit-identical to a byte-at-a-time CRC32C.
#ifndef SRC_COMMON_CRC32C_H_
#define SRC_COMMON_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace common {

namespace internal {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32cTables BuildCrc32cTables() {
  // Reflected Castagnoli polynomial.
  constexpr std::uint32_t kPoly = 0x82f63b78u;
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  // One more zero byte shifts a table entry through the byte table once.
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

inline constexpr Crc32cTables kCrc32cTables = BuildCrc32cTables();

inline std::uint32_t LoadLe32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace internal

// CRC32C of `data`. Passing a previous result as `seed` extends it:
// Crc32c(b, Crc32c(a)) == Crc32c(a + b).
inline std::uint32_t Crc32c(std::string_view data, std::uint32_t seed = 0) {
  const auto& t = internal::kCrc32cTables;
  std::uint32_t crc = ~seed;
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ internal::LoadLe32(p);
    const std::uint32_t hi = internal::LoadLe32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

// Rotate-and-offset mask applied to CRCs before storing them in frames.
inline std::uint32_t MaskCrc(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline std::uint32_t UnmaskCrc(std::uint32_t masked) {
  const std::uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace common

#endif  // SRC_COMMON_CRC32C_H_
