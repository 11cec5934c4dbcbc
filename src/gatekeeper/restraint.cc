#include "src/gatekeeper/restraint.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <variant>

#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

// ---- Param-parsing helpers -------------------------------------------------

Result<std::vector<std::string>> GetStringList(const Json& params,
                                               const std::string& key) {
  const Json* field = params.Get(key);
  if (field == nullptr || !field->is_array()) {
    return InvalidConfigError("restraint param '" + key + "' must be a list");
  }
  std::vector<std::string> out;
  out.reserve(field->as_array().size());
  for (const Json& item : field->as_array()) {
    if (!item.is_string()) {
      return InvalidConfigError("restraint param '" + key + "' must hold strings");
    }
    out.push_back(item.as_string());
  }
  return out;
}

Result<int64_t> GetInt(const Json& params, const std::string& key) {
  const Json* field = params.Get(key);
  if (field == nullptr || !field->is_int()) {
    return InvalidConfigError("restraint param '" + key + "' must be an integer");
  }
  return field->as_int();
}

Result<double> GetDouble(const Json& params, const std::string& key) {
  const Json* field = params.Get(key);
  if (field == nullptr || !field->is_number()) {
    return InvalidConfigError("restraint param '" + key + "' must be a number");
  }
  return field->as_double();
}

Result<std::string> GetString(const Json& params, const std::string& key) {
  const Json* field = params.Get(key);
  if (field == nullptr || !field->is_string()) {
    return InvalidConfigError("restraint param '" + key + "' must be a string");
  }
  return field->as_string();
}

// The int64 `v + delta`, wrapping at the edges instead of overflowing.
Json Shifted(int64_t v, int64_t delta) {
  return Json(static_cast<int64_t>(static_cast<uint64_t>(v) +
                                   static_cast<uint64_t>(delta)));
}

// ---- Builtin restraints ----------------------------------------------------

class AlwaysRestraint : public Restraint {
 public:
  explicit AlwaysRestraint(bool value) : value_(value) {}
  bool Evaluate(const UserContext&, const LaserStore*) const override {
    return value_;
  }
  bool IgnoresContext() const override { return true; }
  double cost() const override { return 0.1; }
  std::string_view type_name() const override { return "always"; }

 private:
  bool value_;
};

class EmployeeRestraint : public Restraint {
 public:
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    return user.is_employee;
  }
  std::vector<ContextProbe> Probes() const override {
    return {{"is_employee", "", Json(true)}};
  }
  std::string_view type_name() const override { return "employee"; }
};

// Generic membership restraint over a string field; the type is named after
// the field. The set serves Evaluate, the declared list the probes.
class StringSetRestraint : public Restraint {
 public:
  StringSetRestraint(const ContextField& field, std::vector<std::string> values)
      : type_(field.name), values_(values.begin(), values.end()),
        field_(std::get<std::string UserContext::*>(field.member)),
        declared_(std::move(values)) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    return values_.count(user.*field_) > 0;
  }
  std::vector<ContextProbe> Probes() const override {
    std::vector<ContextProbe> probes;
    for (const std::string& value : declared_) {
      probes.push_back({type_, "", Json(value)});
    }
    return probes;
  }
  double cost() const override { return 1.5; }
  std::string_view type_name() const override { return type_; }

 private:
  std::string type_;
  std::set<std::string> values_;
  std::string UserContext::* field_;
  std::vector<std::string> declared_;
};

// Generic threshold over an int32 field.
class IntThresholdRestraint : public Restraint {
 public:
  IntThresholdRestraint(std::string type, int64_t threshold, bool at_least,
                        const ContextField& field)
      : type_(std::move(type)), threshold_(threshold), at_least_(at_least),
        field_(std::get<int32_t UserContext::*>(field.member)),
        field_name_(field.name) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    int64_t v = user.*field_;
    return at_least_ ? v >= threshold_ : v <= threshold_;
  }
  std::vector<ContextProbe> Probes() const override {
    std::string field(field_name_);
    return {{field, "", Shifted(threshold_, -1)},
            {field, "", Shifted(threshold_, 0)},
            {field, "", Shifted(threshold_, 1)}};
  }
  std::string_view type_name() const override { return type_; }

 private:
  std::string type_;
  int64_t threshold_;
  bool at_least_;
  int32_t UserContext::* field_;
  std::string_view field_name_;
};

// The verdict flips at the first four declared ids, in declared order, and
// one past the largest (at least 1).
class IdInRestraint : public Restraint {
 public:
  IdInRestraint(std::unordered_set<int64_t> ids, std::vector<int64_t> first,
                int64_t max_id)
      : ids_(std::move(ids)), first_(std::move(first)), max_id_(max_id) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    return ids_.count(user.user_id) > 0;
  }
  std::vector<ContextProbe> Probes() const override {
    std::vector<ContextProbe> probes;
    for (int64_t id : first_) {
      probes.push_back({"user_id", "", Json(id)});
    }
    probes.push_back({"user_id", "", Shifted(max_id_, 1)});
    return probes;
  }
  std::string_view type_name() const override { return "id_in"; }

 private:
  std::unordered_set<int64_t> ids_;
  std::vector<int64_t> first_;
  int64_t max_id_;
};

class IdModRestraint : public Restraint {
 public:
  IdModRestraint(int64_t mod, int64_t lo, int64_t hi)
      : mod_(mod), lo_(lo), hi_(hi) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    int64_t bucket = user.user_id % mod_;
    if (bucket < 0) {
      bucket += mod_;  // Floors into [0, mod_); cannot overflow.
    }
    return bucket >= lo_ && bucket < hi_;
  }
  std::vector<ContextProbe> Probes() const override {
    return {{"user_id", "", Json(lo_)},
            {"user_id", "", Json(hi_)},
            {"user_id", "", Json(mod_)}};
  }
  bool IgnoresContext() const override { return lo_ == 0 && hi_ == mod_; }
  std::string_view type_name() const override { return "id_mod"; }

 private:
  int64_t mod_;
  int64_t lo_;
  int64_t hi_;
};

// Deterministic pseudo-random slice of users: hash(salt, user) in [lo, hi).
// Used for sticky experiment segments independent of user-id structure.
class HashRangeRestraint : public Restraint {
 public:
  HashRangeRestraint(std::string salt, double lo, double hi)
      : salt_(std::move(salt)), lo_(lo), hi_(hi) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    uint64_t h = StableHash64(salt_ + "/" + std::to_string(user.user_id));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u >= lo_ && u < hi_;
  }
  // The hash hides every edge, so the probes are the first few users.
  std::vector<ContextProbe> Probes() const override {
    std::vector<ContextProbe> probes;
    for (int64_t id = 1; id <= 8; ++id) {
      probes.push_back({"user_id", "", Json(id)});
    }
    return probes;
  }
  bool IgnoresContext() const override { return lo_ <= 0 && hi_ >= 1; }
  double cost() const override { return 2.0; }
  std::string_view type_name() const override { return "hash_range"; }

 private:
  std::string salt_;
  double lo_;
  double hi_;
};

class StringAttrEqualsRestraint : public Restraint {
 public:
  StringAttrEqualsRestraint(std::string attr, std::string value)
      : attr_(std::move(attr)), value_(std::move(value)) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    auto it = user.string_attrs.find(attr_);
    return it != user.string_attrs.end() && it->second == value_;
  }
  std::vector<ContextProbe> Probes() const override {
    return {{"string_attrs", attr_, Json(value_)}};
  }
  double cost() const override { return 2.0; }
  std::string_view type_name() const override { return "string_attr_equals"; }

 private:
  std::string attr_;
  std::string value_;
};

class NumericAttrRestraint : public Restraint {
 public:
  NumericAttrRestraint(std::string type, std::string attr, double threshold,
                       bool greater)
      : type_(std::move(type)), attr_(std::move(attr)), threshold_(threshold),
        greater_(greater) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    auto it = user.numeric_attrs.find(attr_);
    if (it == user.numeric_attrs.end()) {
      return false;
    }
    return greater_ ? it->second > threshold_ : it->second < threshold_;
  }
  std::vector<ContextProbe> Probes() const override {
    return {{"numeric_attrs", attr_, Json(threshold_ - 1)},
            {"numeric_attrs", attr_, Json(threshold_ + 1)}};
  }
  double cost() const override { return 2.0; }
  std::string_view type_name() const override { return type_; }

 private:
  std::string type_;
  std::string attr_;
  double threshold_;
  bool greater_;
};

class HasAttrRestraint : public Restraint {
 public:
  explicit HasAttrRestraint(std::string attr) : attr_(std::move(attr)) {}
  bool Evaluate(const UserContext& user, const LaserStore*) const override {
    return user.string_attrs.count(attr_) > 0 || user.numeric_attrs.count(attr_) > 0;
  }
  std::vector<ContextProbe> Probes() const override {
    return {{"string_attrs", attr_, Json("present")}};
  }
  double cost() const override { return 2.0; }
  std::string_view type_name() const override { return "has_attr"; }

 private:
  std::string attr_;
};

// laser(): passes if get("$project-$user_id") > threshold. Expensive — it is
// a store lookup — so it carries a high cost for the optimizer.
class LaserRestraint : public Restraint {
 public:
  LaserRestraint(std::string project, double threshold)
      : project_(std::move(project)), threshold_(threshold) {}
  bool Evaluate(const UserContext& user, const LaserStore* laser) const override {
    if (laser == nullptr) {
      return false;
    }
    auto value = laser->Get(project_ + "-" + std::to_string(user.user_id));
    return value.has_value() && *value > threshold_;
  }
  double cost() const override { return 25.0; }
  std::string_view type_name() const override { return "laser"; }

 private:
  std::string project_;
  double threshold_;
};

}  // namespace

// ---- Registry ---------------------------------------------------------------

RestraintRegistry::RestraintRegistry() {
  Register("always", {}, [](const Json& params) -> Result<RestraintPtr> {
    const Json* v = params.Get("value");
    bool value = v != nullptr && v->is_bool() ? v->as_bool() : true;
    return RestraintPtr(std::make_unique<AlwaysRestraint>(value));
  });

  Register("employee", {"is_employee"}, [](const Json&) -> Result<RestraintPtr> {
    return RestraintPtr(std::make_unique<EmployeeRestraint>());
  });

  // Each string-set type is named after the field it reads.
  struct StringSetSpec {
    const char* type;
    const char* param;
  };
  static constexpr StringSetSpec kStringSets[] = {
      {"country", "countries"}, {"locale", "locales"}, {"app", "apps"},
      {"device", "devices"},    {"platform", "platforms"},
  };
  for (const StringSetSpec& spec : kStringSets) {
    const ContextField* field = FindContextField(spec.type);
    Register(spec.type, {spec.type},
             [spec, field](const Json& params) -> Result<RestraintPtr> {
               ASSIGN_OR_RETURN(std::vector<std::string> values,
                                GetStringList(params, spec.param));
               return RestraintPtr(std::make_unique<StringSetRestraint>(
                   *field, std::move(values)));
             });
  }

  struct ThresholdSpec {
    const char* type;
    const char* param;
    bool at_least;
    const char* field;
  };
  static constexpr ThresholdSpec kThresholds[] = {
      {"min_friend_count", "count", true, "friend_count"},
      {"max_friend_count", "count", false, "friend_count"},
      {"min_account_age", "days", true, "account_age_days"},
      {"new_user", "max_days", false, "account_age_days"},
      {"min_app_version", "version", true, "app_version"},
  };
  for (const ThresholdSpec& spec : kThresholds) {
    const ContextField* field = FindContextField(spec.field);
    Register(spec.type, {spec.field},
             [spec, field](const Json& params) -> Result<RestraintPtr> {
               ASSIGN_OR_RETURN(int64_t threshold, GetInt(params, spec.param));
               return RestraintPtr(std::make_unique<IntThresholdRestraint>(
                   spec.type, threshold, spec.at_least, *field));
             });
  }

  Register("id_in", {"user_id"}, [](const Json& params) -> Result<RestraintPtr> {
    const Json* ids = params.Get("ids");
    if (ids == nullptr || !ids->is_array()) {
      return InvalidConfigError("id_in needs an 'ids' list");
    }
    std::unordered_set<int64_t> set;
    std::vector<int64_t> first;
    int64_t max_id = 0;
    for (const Json& id : ids->as_array()) {
      if (!id.is_int()) {
        return InvalidConfigError("id_in ids must be integers");
      }
      set.insert(id.as_int());
      if (first.size() < 4) {
        first.push_back(id.as_int());
      }
      max_id = std::max(max_id, id.as_int());
    }
    return RestraintPtr(std::make_unique<IdInRestraint>(
        std::move(set), std::move(first), max_id));
  });

  Register("id_mod", {"user_id"}, [](const Json& params) -> Result<RestraintPtr> {
    ASSIGN_OR_RETURN(int64_t mod, GetInt(params, "mod"));
    ASSIGN_OR_RETURN(int64_t lo, GetInt(params, "lo"));
    ASSIGN_OR_RETURN(int64_t hi, GetInt(params, "hi"));
    if (mod <= 0 || lo < 0 || hi > mod || lo >= hi) {
      return InvalidConfigError("id_mod needs 0 <= lo < hi <= mod, mod > 0");
    }
    return RestraintPtr(std::make_unique<IdModRestraint>(mod, lo, hi));
  });

  Register("hash_range", {"user_id"}, [](const Json& params) -> Result<RestraintPtr> {
    ASSIGN_OR_RETURN(std::string salt, GetString(params, "salt"));
    ASSIGN_OR_RETURN(double lo, GetDouble(params, "lo"));
    ASSIGN_OR_RETURN(double hi, GetDouble(params, "hi"));
    if (lo < 0 || hi > 1 || lo >= hi) {
      return InvalidConfigError("hash_range needs 0 <= lo < hi <= 1");
    }
    return RestraintPtr(
        std::make_unique<HashRangeRestraint>(std::move(salt), lo, hi));
  });

  Register("string_attr_equals", {"string_attrs"},
           [](const Json& params) -> Result<RestraintPtr> {
    ASSIGN_OR_RETURN(std::string attr, GetString(params, "attr"));
    ASSIGN_OR_RETURN(std::string value, GetString(params, "value"));
    return RestraintPtr(std::make_unique<StringAttrEqualsRestraint>(
        std::move(attr), std::move(value)));
  });

  for (bool greater : {true, false}) {
    const char* type = greater ? "numeric_attr_gt" : "numeric_attr_lt";
    Register(type, {"numeric_attrs"},
             [type, greater](const Json& params) -> Result<RestraintPtr> {
      ASSIGN_OR_RETURN(std::string attr, GetString(params, "attr"));
      ASSIGN_OR_RETURN(double threshold, GetDouble(params, "threshold"));
      return RestraintPtr(std::make_unique<NumericAttrRestraint>(
          type, std::move(attr), threshold, greater));
    });
  }

  Register("has_attr", {"string_attrs", "numeric_attrs"},
           [](const Json& params) -> Result<RestraintPtr> {
    ASSIGN_OR_RETURN(std::string attr, GetString(params, "attr"));
    return RestraintPtr(std::make_unique<HasAttrRestraint>(std::move(attr)));
  });

  // The store key is built from the user id.
  Register("laser", {"user_id"}, [](const Json& params) -> Result<RestraintPtr> {
    ASSIGN_OR_RETURN(std::string project, GetString(params, "project"));
    ASSIGN_OR_RETURN(double threshold, GetDouble(params, "threshold"));
    return RestraintPtr(
        std::make_unique<LaserRestraint>(std::move(project), threshold));
  });
}

const RestraintRegistry& RestraintRegistry::Builtin() {
  static const RestraintRegistry* registry = new RestraintRegistry();
  return *registry;
}

void RestraintRegistry::Register(const std::string& type,
                                 std::vector<std::string> context_fields,
                                 Factory factory) {
  types_[type] = Entry{std::move(context_fields), std::move(factory)};
}

Result<RestraintPtr> RestraintRegistry::Create(const Json& spec) const {
  if (!spec.is_object()) {
    return InvalidConfigError("restraint spec must be an object");
  }
  const Json* type = spec.Get("type");
  if (type == nullptr || !type->is_string()) {
    return InvalidConfigError("restraint spec needs a string 'type'");
  }
  auto it = types_.find(type->as_string());
  if (it == types_.end()) {
    return InvalidConfigError("unknown restraint type '" + type->as_string() + "'");
  }
  static const Json kEmptyParams = Json::MakeObject();
  const Json* params = spec.Get("params");
  ASSIGN_OR_RETURN(RestraintPtr restraint,
                   it->second.factory(params != nullptr ? *params
                                                         : kEmptyParams));
  const Json* negate = spec.Get("negate");
  if (negate != nullptr && negate->is_bool()) {
    restraint->set_negate(negate->as_bool());
  }
  return restraint;
}

std::vector<std::string> RestraintRegistry::TypeNames() const {
  std::vector<std::string> names;
  names.reserve(types_.size());
  for (const auto& [name, entry] : types_) {
    names.push_back(name);
  }
  return names;
}

const std::vector<std::string>& RestraintRegistry::ContextFields(
    const std::string& type) const {
  static const std::vector<std::string> kNone;
  auto it = types_.find(type);
  return it == types_.end() ? kNone : it->second.context_fields;
}

}  // namespace configerator
