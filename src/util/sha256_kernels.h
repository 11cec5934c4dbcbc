// The SHA-256 block functions behind Sha256 (sha256.h), exposed so a test
// can run both kernels on the same input. Nothing but sha256.cc and that
// test includes this header.

#ifndef SRC_UTIL_SHA256_KERNELS_H_
#define SRC_UTIL_SHA256_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace configerator::sha256_internal {

// Each kernel folds `blocks` consecutive 64-byte blocks at `data` into the
// eight-word chaining `state`.
void CompressPortable(uint32_t* state, const uint8_t* data, size_t blocks);

#if defined(__x86_64__)
// The x86 SHA extensions' kernel. Call it only when CpuHasShaNi() is true.
void CompressShaNi(uint32_t* state, const uint8_t* data, size_t blocks);
#endif

// True on an x86-64 CPU with the SHA extensions and SSE4.1 (CPUID leaf 7
// EBX bit 29, leaf 1 ECX bit 19). CPUID is read once per process.
bool CpuHasShaNi();

}  // namespace configerator::sha256_internal

#endif  // SRC_UTIL_SHA256_KERNELS_H_
