// Seeded mutation of valid inputs for robustness tests: bit flips,
// truncation and edge-value numbers, cheap ways to turn a well-formed file
// into a hostile one. A test takes a seeded generator's output, mutates it, and requires
// every parser and analysis it reaches to return, under ASan/UBSan too.

#ifndef TESTS_MUTATE_H_
#define TESTS_MUTATE_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace configerator {

// Flips one to four random bits, each in the low seven of a random byte.
inline void FlipBits(std::string* text, Rng& rng) {
  if (text->empty()) {
    return;
  }
  int flips = 1 + static_cast<int>(rng.NextBounded(4));
  for (int i = 0; i < flips; ++i) {
    size_t at = rng.NextBounded(text->size());
    (*text)[at] = static_cast<char>((*text)[at] ^ (1 << rng.NextBounded(7)));
  }
}

// Cuts `text` at a random byte.
inline void Truncate(std::string* text, Rng& rng) {
  text->resize(rng.NextBounded(text->size() + 1));
}

// Replaces one random run of digits with an edge value: an int64 limit, a
// value past it, 2^53 + 1, a huge double or a negative zero. Unlike a bit
// flip, this usually keeps a JSON or CSL file well-formed, so the edge
// reaches the code behind the parser. Leaves digit-free text unchanged.
inline void ReplaceNumber(std::string* text, Rng& rng) {
  static const char* const kEdges[] = {
      "9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "9007199254740993",    "1e308",                "-0",
  };
  std::vector<size_t> starts;
  for (size_t i = 0; i < text->size(); ++i) {
    bool digit = (*text)[i] >= '0' && (*text)[i] <= '9';
    bool after_digit = i > 0 && (*text)[i - 1] >= '0' && (*text)[i - 1] <= '9';
    if (digit && !after_digit) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) {
    return;
  }
  size_t at = starts[rng.NextBounded(starts.size())];
  size_t end = at;
  while (end < text->size() && (*text)[end] >= '0' && (*text)[end] <= '9') {
    ++end;
  }
  text->replace(at, end - at, kEdges[rng.NextBounded(std::size(kEdges))]);
}

// The mutant of `text` for `seed`: a truncation or a number replaced by an
// edge value, each one time in four, and bit flips otherwise.
inline std::string Mutant(std::string text, uint64_t seed) {
  Rng rng(seed * 7919);
  switch (rng.NextBounded(4)) {
    case 0:
      Truncate(&text, rng);
      break;
    case 1:
      ReplaceNumber(&text, rng);
      break;
    default:
      FlipBits(&text, rng);
      break;
  }
  return text;
}

}  // namespace configerator

#endif  // TESTS_MUTATE_H_
