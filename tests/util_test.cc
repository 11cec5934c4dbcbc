#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "src/util/rng.h"
#include "src/util/sha256.h"
#include "src/util/sha256_kernels.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/table.h"

namespace configerator {
namespace {

// ---- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ConflictError("path changed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.message(), "path changed");
  EXPECT_EQ(s.ToString(), "CONFLICT: path changed");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kInvalidConfig,
        StatusCode::kNotFound, StatusCode::kAlreadyExists, StatusCode::kConflict,
        StatusCode::kRejected, StatusCode::kUnavailable,
        StatusCode::kDeadlineExceeded, StatusCode::kCorruption,
        StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFoundError("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HelperParsePositive(int x) {
  if (x <= 0) {
    return InvalidArgumentError("not positive");
  }
  return x;
}

Status HelperUsesMacros(int x, int* out) {
  ASSIGN_OR_RETURN(int v, HelperParsePositive(x));
  RETURN_IF_ERROR(OkStatus());
  *out = v * 2;
  return OkStatus();
}

TEST(ResultTest, MacrosPropagateErrors) {
  int out = 0;
  EXPECT_TRUE(HelperUsesMacros(5, &out).ok());
  EXPECT_EQ(out, 10);
  Status s = HelperUsesMacros(-1, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---- SHA-256 ----------------------------------------------------------------

TEST(Sha256Test, EmptyStringVector) {
  // FIPS 180-4 test vector.
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  EXPECT_EQ(hasher.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 hasher;
    hasher.Update(data.substr(0, split));
    hasher.Update(data.substr(split));
    EXPECT_EQ(hasher.Finish(), Sha256::Hash(data)) << "split=" << split;
  }
}

// Kernel agreement. Each kernel hashes a message the way Finish does: every
// full block in one call, then the one or two padding blocks. The dispatched
// Sha256 gets the same message through random Update split points.
using Sha256Kernel = void (*)(uint32_t*, const uint8_t*, size_t);

Sha256Digest HashWithKernel(Sha256Kernel kernel, std::string_view message) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const auto* bytes = reinterpret_cast<const uint8_t*>(message.data());
  const size_t full = message.size() / 64;
  kernel(state, bytes, full);
  uint8_t tail[128] = {};
  const size_t rest = message.size() - 64 * full;
  std::memcpy(tail, bytes + 64 * full, rest);
  tail[rest] = 0x80;
  const size_t tail_blocks = rest + 9 > 64 ? 2 : 1;
  const uint64_t bits = uint64_t{message.size()} * 8;
  for (int i = 0; i < 8; ++i) {
    tail[64 * tail_blocks - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  kernel(state, tail, tail_blocks);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      digest.bytes[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return digest;
}

Sha256Digest HashInRandomPieces(std::string_view message, Rng& rng) {
  Sha256 hasher;
  size_t pos = 0;
  while (pos < message.size()) {
    size_t piece = rng.NextBounded(std::min<size_t>(message.size() - pos, 150) + 1);
    hasher.Update(message.substr(pos, piece));
    pos += piece;
  }
  return hasher.Finish();
}

// Seeded random messages of every length from 0 to 300 bytes (55, 56, 63,
// 64, 119 and 120 straddle Finish's one- and two-block padding), plus a few
// of 10-20 KB.
std::vector<std::string> KernelTestMessages() {
  Rng rng(256);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) {
    lengths.push_back(len);
  }
  for (int i = 0; i < 4; ++i) {
    lengths.push_back(10'000 + rng.NextBounded(10'001));
  }
  std::vector<std::string> messages;
  for (size_t len : lengths) {
    std::string message(len, '\0');
    for (char& c : message) {
      c = static_cast<char>(rng.Next());
    }
    messages.push_back(std::move(message));
  }
  return messages;
}

TEST(Sha256Test, PortableKernelMatchesDispatchedHasher) {
  Rng rng(7);
  for (const std::string& message : KernelTestMessages()) {
    const Sha256Digest expected =
        HashWithKernel(sha256_internal::CompressPortable, message);
    EXPECT_EQ(Sha256::Hash(message), expected) << "length " << message.size();
    EXPECT_EQ(HashInRandomPieces(message, rng), expected)
        << "length " << message.size();
  }
}

TEST(Sha256Test, ShaNiKernelMatchesPortableKernel) {
#if defined(__x86_64__)
  if (!sha256_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "this CPU lacks the SHA extensions or SSE4.1, so Sha256 "
                    "runs only the portable kernel";
  }
  Rng rng(11);
  for (const std::string& message : KernelTestMessages()) {
    const Sha256Digest expected =
        HashWithKernel(sha256_internal::CompressPortable, message);
    EXPECT_EQ(HashWithKernel(sha256_internal::CompressShaNi, message), expected)
        << "length " << message.size();
    EXPECT_EQ(HashInRandomPieces(message, rng), expected)
        << "length " << message.size();
  }
#else
  GTEST_SKIP() << "the SHA-NI kernel exists only on x86-64";
#endif
}

TEST(Sha256Test, HexRoundTrip) {
  Sha256Digest digest = Sha256::Hash("roundtrip");
  Sha256Digest parsed;
  ASSERT_TRUE(Sha256Digest::FromHex(digest.ToHex(), &parsed));
  EXPECT_EQ(parsed, digest);
}

TEST(Sha256Test, FromHexRejectsMalformed) {
  Sha256Digest out;
  EXPECT_FALSE(Sha256Digest::FromHex("abc", &out));
  EXPECT_FALSE(Sha256Digest::FromHex(std::string(64, 'g'), &out));
  EXPECT_TRUE(Sha256Digest::FromHex(std::string(64, 'A'), &out));  // Uppercase OK.
}

TEST(Sha256Test, ShortHexIsPrefix) {
  Sha256Digest digest = Sha256::Hash("x");
  EXPECT_EQ(digest.ShortHex(8), digest.ToHex().substr(0, 8));
}

TEST(Sha256Test, DigestsAreHashable) {
  std::unordered_map<Sha256Digest, int> map;
  map[Sha256::Hash("a")] = 1;
  map[Sha256::Hash("b")] = 2;
  EXPECT_EQ(map.at(Sha256::Hash("a")), 1);
  EXPECT_EQ(map.at(Sha256::Hash("b")), 2);
}

// ---- RNG ---------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBoundedWithinRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // All five values appear.
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) {
    stats.Add(rng.NextExponential(4.0));
  }
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  ZipfDistribution zipf(1000, 1.2);
  Rng rng(17);
  size_t rank0 = 0;
  size_t tail = 0;
  for (int i = 0; i < 100'000; ++i) {
    size_t r = zipf.Sample(rng);
    ASSERT_LT(r, 1000u);
    if (r == 0) {
      ++rank0;
    }
    if (r >= 500) {
      ++tail;
    }
  }
  EXPECT_GT(rank0, tail);  // The head outweighs the entire tail half.
}

TEST(StableHashTest, DeterministicAndSpread) {
  EXPECT_EQ(StableHash64("abc"), StableHash64("abc"));
  EXPECT_NE(StableHash64("abc"), StableHash64("abd"));
}

// ---- Stats -------------------------------------------------------------------

TEST(OnlineStatsTest, Basics) {
  OnlineStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_NEAR(stats.variance(), 5.0 / 3.0, 1e-12);
}

TEST(SampleSetTest, Percentiles) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(set.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(set.Percentile(100), 100);
  EXPECT_NEAR(set.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(set.Percentile(95), 95.05, 0.1);
}

TEST(SampleSetTest, CdfAt) {
  SampleSet set;
  for (int i = 1; i <= 10; ++i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(set.CdfAt(0), 0.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(5), 0.5);
  EXPECT_DOUBLE_EQ(set.CdfAt(10), 1.0);
  EXPECT_DOUBLE_EQ(set.CdfAt(100), 1.0);
}

TEST(SampleSetTest, EmptyIsSafe) {
  SampleSet set;
  EXPECT_EQ(set.Percentile(50), 0);
  EXPECT_EQ(set.CdfAt(5), 0);
  EXPECT_EQ(set.Mean(), 0);
}

TEST(SampleSetTest, AddAfterQueryResorts) {
  SampleSet set;
  set.Add(10);
  EXPECT_DOUBLE_EQ(set.Percentile(50), 10);
  set.Add(0);
  EXPECT_DOUBLE_EQ(set.Percentile(0), 0);
}

TEST(StatsTest, FractionInRange) {
  SampleSet set;
  for (int i = 1; i <= 10; ++i) {
    set.Add(i);
  }
  EXPECT_DOUBLE_EQ(FractionInRange(set, 1, 5), 0.5);
  EXPECT_DOUBLE_EQ(FractionInRange(set, 11, 20), 0.0);
  EXPECT_DOUBLE_EQ(FractionInRange(set, 1, 10), 1.0);
}

TEST(StatsTest, TabulateCdf) {
  SampleSet set;
  for (int i = 1; i <= 4; ++i) {
    set.Add(i);
  }
  auto cdf = TabulateCdf(set, {2.0, 4.0});
  ASSERT_EQ(cdf.size(), 2u);
  EXPECT_DOUBLE_EQ(cdf[0].cumulative, 0.5);
  EXPECT_DOUBLE_EQ(cdf[1].cumulative, 1.0);
}

// ---- Strings -----------------------------------------------------------------

TEST(StringsTest, StrSplitKeepsEmpty) {
  auto parts = StrSplit("a//b", '/');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, StrSplitEmptyString) {
  auto parts = StrSplit("", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, SplitLinesTrailingNewline) {
  auto lines = SplitLines("a\nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(StringsTest, SplitLinesNoTrailingNewline) {
  auto lines = SplitLines("a\nb");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "b");
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StrTrim) {
  EXPECT_EQ(StrTrim("  x  "), "x");
  EXPECT_EQ(StrTrim("\t\n"), "");
  EXPECT_EQ(StrTrim("abc"), "abc");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, LooksLikeTimestamp) {
  EXPECT_TRUE(LooksLikeTimestamp("2015-10-04"));
  EXPECT_TRUE(LooksLikeTimestamp("2015-10-04 12:30:00"));
  EXPECT_TRUE(LooksLikeTimestamp("1443916800"));  // Unix epoch seconds.
  EXPECT_FALSE(LooksLikeTimestamp("hello"));
  EXPECT_FALSE(LooksLikeTimestamp("123"));
  EXPECT_FALSE(LooksLikeTimestamp("12a4567890"));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(14.8 * 1024 * 1024), "14.8 MB");
}

// ---- Table -------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW(table.ToString());
}

}  // namespace
}  // namespace configerator
