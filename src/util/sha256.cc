#include "src/util/sha256.h"

#include <algorithm>
#include <cstring>

#include "src/util/sha256_kernels.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace configerator {

namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t RotR(uint32_t x, unsigned n) { return (x >> n) | (x << (32 - n)); }

inline uint32_t LoadBigEndian32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) |
         uint32_t{p[3]};
}

inline void StoreBigEndian32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

constexpr char kHexDigits[] = "0123456789abcdef";

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

std::string Sha256Digest::ToHex() const {
  std::string out(64, '\0');
  WriteHex(out.data());
  return out;
}

void Sha256Digest::WriteHex(char* out) const {
  for (size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kHexDigits[bytes[i] >> 4];
    out[2 * i + 1] = kHexDigits[bytes[i] & 0xf];
  }
}

bool Sha256Digest::FromHex(std::string_view hex, Sha256Digest* out) {
  if (hex.size() != 64) {
    return false;
  }
  for (size_t i = 0; i < 32; ++i) {
    int hi = HexNibble(hex[2 * i]);
    int lo = HexNibble(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->bytes[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return true;
}

namespace sha256_internal {

void CompressPortable(uint32_t* state, const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = LoadBigEndian32(data + 4 * i);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)

// The state lives in two registers as the SHA instructions want it: ABEF
// (A in the high lane) and CDGH. Each _mm_sha256rnds2_epu32 runs two rounds
// on the low two lanes of its message-plus-constant operand.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t* state,
                                                          const uint8_t* data,
                                                          size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // Round group i (rounds 4i..4i+3) uses message words 4i..4i+3, kept in
    // w[i % 4]. Groups 0-3 load them from the block; each later group
    // schedules them from the four groups before it.
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      } else {
        __m128i sum = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]),
            _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
        w[i % 4] = _mm_sha256msg2_epu32(sum, w[(i + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(
          w[i % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool CpuHasShaNi() {
  static const bool has = [] {
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_SSE4_1)) {
      return false;
    }
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
           (ebx & bit_SHA) != 0;
  }();
  return has;
}

#else

bool CpuHasShaNi() { return false; }

#endif  // defined(__x86_64__)

}  // namespace sha256_internal

namespace {

void Compress(uint32_t* state, const uint8_t* data, size_t blocks) {
#if defined(__x86_64__)
  if (sha256_internal::CpuHasShaNi()) {
    sha256_internal::CompressShaNi(state, data, blocks);
    return;
  }
#endif
  sha256_internal::CompressPortable(state, data, blocks);
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    size_t fill = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, fill);
    buffer_len_ += fill;
    p += fill;
    len -= fill;
    if (buffer_len_ < buffer_.size()) {
      return;
    }
    Compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }

  const size_t blocks = len / 64;
  if (blocks > 0) {
    Compress(state_.data(), p, blocks);
    p += 64 * blocks;
    len -= 64 * blocks;
  }

  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Sha256Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;

  // Append 0x80, zeros up to 56 mod 64, then the 64-bit big-endian length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    Compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(state_.data(), buffer_.data(), 1);

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    StoreBigEndian32(digest.bytes.data() + 4 * i, state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace configerator
