// The per-request user context a Gatekeeper check evaluates against
// (paper §4): who the user is, where they are, what device/app they use.

#ifndef SRC_GATEKEEPER_CONTEXT_H_
#define SRC_GATEKEEPER_CONTEXT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>

#include "src/json/json.h"

namespace configerator {

struct UserContext {
  int64_t user_id = 0;
  std::string country;       // "US", "BR", ...
  std::string locale;        // "en_US", ...
  std::string app;           // "fb4a", "messenger", "www", ...
  std::string device;        // "iphone6", "galaxy_s5", ...
  std::string platform;      // "ios", "android", "www".
  bool is_employee = false;
  int32_t account_age_days = 0;
  int32_t friend_count = 0;
  int32_t app_version = 0;   // Monotone build number.

  // Open-ended attributes for product-specific restraints.
  std::map<std::string, std::string> string_attrs;
  std::map<std::string, double> numeric_attrs;
};

// The UserContext fields by name: the one vocabulary restraints declare
// (RestraintRegistry::ContextFields), the invariant checker enumerates, and
// witnesses print. A field's name is its member's name. One attribute of
// string_attrs or numeric_attrs is written "<field>.<attr>", e.g.
// "string_attrs.tier".
using ContextMember =
    std::variant<int64_t UserContext::*, std::string UserContext::*,
                 bool UserContext::*, int32_t UserContext::*,
                 std::map<std::string, std::string> UserContext::*,
                 std::map<std::string, double> UserContext::*>;

struct ContextField {
  std::string_view name;
  ContextMember member;
};

inline constexpr ContextField kContextFields[] = {
    {"user_id", &UserContext::user_id},
    {"country", &UserContext::country},
    {"locale", &UserContext::locale},
    {"app", &UserContext::app},
    {"device", &UserContext::device},
    {"platform", &UserContext::platform},
    {"is_employee", &UserContext::is_employee},
    {"account_age_days", &UserContext::account_age_days},
    {"friend_count", &UserContext::friend_count},
    {"app_version", &UserContext::app_version},
    {"string_attrs", &UserContext::string_attrs},
    {"numeric_attrs", &UserContext::numeric_attrs},
};

// The field called `name`; nullptr for a name outside the vocabulary.
const ContextField* FindContextField(std::string_view name);

// The value a default UserContext holds in `field`, as JSON: "" for a
// string, false, or an int 0. Null for an attribute map: the attribute is
// absent.
Json ContextFieldDefault(const ContextField& field);

// Sets `field` of `user` from `value` (for an attribute map, the entry
// `attr`). A string field takes a string, is_employee a bool, an integer
// field an int (narrowed like a C++ cast), string_attrs a string and
// numeric_attrs a number; a value of any other kind, null included, leaves
// `user` unchanged.
void SetContextField(const ContextField& field, const std::string& attr,
                     const Json& value, UserContext* user);

}  // namespace configerator

#endif  // SRC_GATEKEEPER_CONTEXT_H_
