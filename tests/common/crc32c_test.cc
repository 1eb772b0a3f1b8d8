// common::Crc32c: published vectors, and equality with a bitwise reference
// at every length and start offset the slicing-by-8 kernel's step and tail
// can split an input into.
#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace common {
namespace {

// The definition, one bit at a time: no table, nothing shared with the
// kernel under test.
std::uint32_t BitwiseCrc32c(std::string_view data, std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (char c : data) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return ~crc;
}

std::string RandomBytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng.Below(256));
  }
  return out;
}

TEST(Crc32cTest, KnownVectorAndExtension) {
  // RFC 3720 test vector: crc32c("123456789") == 0xe3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  // Incremental computation matches one-shot.
  EXPECT_EQ(Crc32c("6789", Crc32c("12345")), Crc32c("123456789"));
  EXPECT_EQ(UnmaskCrc(MaskCrc(0xe3069283u)), 0xe3069283u);
}

TEST(Crc32cTest, Rfc3720AppendixB4Vectors) {
  std::string ascending;
  std::string descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(Crc32c(std::string(32, '\x00')), 0x8a9136aau);
  EXPECT_EQ(Crc32c(std::string(32, '\xff')), 0x62a8ab43u);
  EXPECT_EQ(Crc32c(ascending), 0x46dd794eu);
  EXPECT_EQ(Crc32c(descending), 0x113fdb5cu);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(20251020);
  const std::string buffer = RandomBytes(rng, 300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::string_view data(buffer.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.Next());
      ASSERT_EQ(Crc32c(data, seed), BitwiseCrc32c(data, seed))
          << "offset " << offset << " length " << len << " seed " << seed;
      ASSERT_EQ(Crc32c(data), BitwiseCrc32c(data)) << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtensionHoldsAtEverySplitPoint) {
  Rng rng(7);
  const std::string whole = RandomBytes(rng, 131);
  const std::uint32_t expected = Crc32c(whole);
  ASSERT_EQ(expected, BitwiseCrc32c(whole));
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::string_view a(whole.data(), split);
    const std::string_view b(whole.data() + split, whole.size() - split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), expected) << "split " << split;
  }
}

}  // namespace
}  // namespace common
