// Sitevars (paper §3.2): the easy-mode shim for frontend configs —
// configurable name/value pairs whose value is an expression, updated
// through a UI without writing Python/Thrift. Because values are weakly
// typed, the tool infers each sitevar's data type from its historical values
// (is this field a string? a JSON string? a timestamp string?) and *warns*
// when an update deviates — the paper's typo defense for legacy sitevars
// that predate schemas.
//
// Every Set evaluates its expression and runs the sitevar's checker in a
// fresh interpreter session, so no checker state carries from one update to
// the next and each update's values are freed when it returns.

#ifndef SRC_SITEVARS_SITEVARS_H_
#define SRC_SITEVARS_SITEVARS_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/lang/ast.h"
#include "src/util/status.h"

namespace configerator {

// The inferred type lattice. String subtypes mirror the paper: "it infers
// whether a sitevar's field is a string. If so, it further infers whether it
// is a JSON string, a timestamp string, or a general string."
enum class SitevarType {
  kUnknown,
  kBool,
  kInt,
  kDouble,
  kGeneralString,
  kJsonString,
  kTimestampString,
  kList,
  kObject,
};

std::string_view SitevarTypeName(SitevarType type);

// Classifies one JSON value (string subtype detection included).
SitevarType ClassifySitevarValue(const Json& value);

struct SitevarUpdateResult {
  Json value;                          // The evaluated new value.
  std::vector<std::string> warnings;   // Type-deviation warnings for the UI.
};

class SitevarStore {
 public:
  // Evaluates `expression` (a CSL expression, e.g. `{"limit": 3 * 100}`) and
  // stores the result under `name`. Returns warnings when the value's
  // inferred type deviates from history; fails if the expression is invalid
  // or the sitevar's checker rejects the value.
  Result<SitevarUpdateResult> Set(const std::string& name,
                                  const std::string& expression,
                                  const std::string& author);

  Result<Json> Get(const std::string& name) const;
  bool Exists(const std::string& name) const { return sitevars_.count(name) > 0; }

  // Installs a checker: CSL source defining `def check(value)` that asserts
  // invariants (the PHP checker of the paper). Runs on every later Set,
  // each time from a freshly evaluated module.
  Status SetChecker(const std::string& name, const std::string& csl_source);

  // Majority type over the value history (kUnknown if never set).
  SitevarType InferredType(const std::string& name) const;
  // For object sitevars: per-field inferred types.
  std::map<std::string, SitevarType> InferredFieldTypes(
      const std::string& name) const;

  std::vector<std::string> UpdateAuthors(const std::string& name) const;
  size_t size() const { return sitevars_.size(); }

 private:
  struct SitevarRecord {
    std::deque<Json> history;  // Most recent last; bounded.
    std::deque<std::string> authors;
    std::shared_ptr<const Module> checker;  // Null if no checker installed.
  };

  static constexpr size_t kMaxHistory = 64;

  std::map<std::string, SitevarRecord> sitevars_;
};

}  // namespace configerator

#endif  // SRC_SITEVARS_SITEVARS_H_
