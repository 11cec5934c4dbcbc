// From-scratch SHA-256 (FIPS 180-4). The VCS substrate content-addresses
// blobs/trees/commits by SHA-256, PackageVessel verifies chunk integrity with
// it, and MobileConfig uses it for schema/value hashes. No OpenSSL dependency.
//
// Two block functions exist (sha256_kernels.h). On an x86-64 CPU with the SHA
// extensions, every block goes through a kernel built on the SHA-NI
// instructions; on any other CPU the portable loop is the only path. On a
// 4-vCPU Xeon VM (g++ 12.2, -O2, 140 KB inputs) the SHA-NI kernel hashes
// ~1.4 GB/s and the portable loop ~0.18 GB/s. CPUID alone picks the kernel,
// once per process; there is no option to override it. Digests are identical
// either way.

#ifndef SRC_UTIL_SHA256_H_
#define SRC_UTIL_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace configerator {

// A 32-byte SHA-256 digest. Value type; comparable and hashable so it can key
// maps in the object store.
struct Sha256Digest {
  std::array<uint8_t, 32> bytes{};

  // 64-char lowercase hex rendering (object ids in the VCS).
  std::string ToHex() const;
  // The same 64 chars written to out[0..63], for encoders that pre-size
  // their output.
  void WriteHex(char* out) const;

  // Parse a 64-char hex string; returns false on malformed input.
  static bool FromHex(std::string_view hex, Sha256Digest* out);

  // Truncated hex for logs, like git's short ids.
  std::string ShortHex(size_t chars = 12) const { return ToHex().substr(0, chars); }

  bool operator==(const Sha256Digest&) const = default;
  auto operator<=>(const Sha256Digest&) const = default;
};

// Incremental hasher: Update() any number of times, then Finish().
class Sha256 {
 public:
  Sha256();

  void Update(const void* data, size_t len);
  void Update(std::string_view data) { Update(data.data(), data.size()); }

  // Finalizes and returns the digest. The hasher must not be reused after.
  Sha256Digest Finish();

  // One-shot convenience.
  static Sha256Digest Hash(std::string_view data);

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, 64> buffer_;
  uint64_t total_len_ = 0;
  size_t buffer_len_ = 0;
};

}  // namespace configerator

// std::hash support so digests can key unordered_map.
template <>
struct std::hash<configerator::Sha256Digest> {
  size_t operator()(const configerator::Sha256Digest& d) const noexcept {
    size_t h;
    static_assert(sizeof(h) <= sizeof(d.bytes));
    __builtin_memcpy(&h, d.bytes.data(), sizeof(h));
    return h;
  }
};

#endif  // SRC_UTIL_SHA256_H_
