#include "src/lang/ops.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "src/util/strings.h"

namespace configerator {

std::optional<BinOp> ParseBinOp(std::string_view op) {
  if (op == "+") return BinOp::kAdd;
  if (op == "-") return BinOp::kSub;
  if (op == "*") return BinOp::kMul;
  if (op == "/") return BinOp::kDiv;
  if (op == "//") return BinOp::kFloorDiv;
  if (op == "%") return BinOp::kMod;
  if (op == "==") return BinOp::kEq;
  if (op == "!=") return BinOp::kNe;
  if (op == "<") return BinOp::kLt;
  if (op == "<=") return BinOp::kLe;
  if (op == ">") return BinOp::kGt;
  if (op == ">=") return BinOp::kGe;
  if (op == "in") return BinOp::kIn;
  if (op == "not in") return BinOp::kNotIn;
  return std::nullopt;
}

std::string_view BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kFloorDiv:
      return "//";
    case BinOp::kMod:
      return "%";
    case BinOp::kEq:
      return "==";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kIn:
      return "in";
    case BinOp::kNotIn:
      return "not in";
  }
  return "?";
}

namespace {

// One shared string per byte value, so indexing and iterating a string
// build no strings.
const Value& CharString(char c) {
  static const std::array<Value, 256> kTable = [] {
    std::array<Value, 256> table;
    for (size_t i = 0; i < table.size(); ++i) {
      table[i] = Value::Str(std::string(1, static_cast<char>(i)));
    }
    return table;
  }();
  return kTable[static_cast<unsigned char>(c)];
}

}  // namespace

Result<Value> IntArithmetic(BinOp op, int64_t a, int64_t b) {
  int64_t out = 0;
  bool overflow = false;
  if (op == BinOp::kAdd) {
    overflow = __builtin_add_overflow(a, b, &out);
  } else if (op == BinOp::kSub) {
    overflow = __builtin_sub_overflow(a, b, &out);
  } else if (op == BinOp::kMul) {
    overflow = __builtin_mul_overflow(a, b, &out);
  } else if (b == 0) {
    return InvalidConfigError("division by zero");
  } else if (op == BinOp::kDiv) {
    // "/" on ints yields double, Python 3 semantics.
    return Value::Double(static_cast<double>(a) / static_cast<double>(b));
  } else if (b == -1) {
    // The one quotient that can overflow; its remainder is always 0.
    overflow = op == BinOp::kFloorDiv && __builtin_sub_overflow(0, a, &out);
  } else if (op == BinOp::kFloorDiv) {
    // Floor division, Python semantics.
    out = a / b - ((a % b != 0) && ((a < 0) != (b < 0)) ? 1 : 0);
  } else {
    out = a % b;
    if (out != 0 && ((out < 0) != (b < 0))) {
      out += b;
    }
  }
  if (overflow) {
    return InvalidConfigError("integer overflow");
  }
  return Value::Int(out);
}

Result<Value> EvalBinaryValues(BinOp op, const Value& lhs, const Value& rhs,
                               ValueArena& arena) {
  if (op == BinOp::kEq || op == BinOp::kNe) {
    ASSIGN_OR_RETURN(bool equal, lhs.Equals(rhs));
    return Value::Bool(op == BinOp::kEq ? equal : !equal);
  }
  if (op == BinOp::kIn || op == BinOp::kNotIn) {
    bool contains = false;
    if (rhs.is_list()) {
      ValueWalk walk;  // One bound for the whole scan.
      for (const Value& item : rhs.as_list()) {
        ASSIGN_OR_RETURN(contains, item.Equals(lhs, &walk));
        if (contains) {
          break;
        }
      }
    } else if (rhs.is_dict()) {
      if (!lhs.is_string()) {
        return InvalidConfigError("'in <dict>' needs a string key");
      }
      contains = rhs.as_dict().count(lhs.as_string()) > 0;
    } else if (rhs.is_string()) {
      if (!lhs.is_string()) {
        return InvalidConfigError("'in <string>' needs a string");
      }
      contains = rhs.as_string().find(lhs.as_string()) != std::string::npos;
    } else {
      return InvalidConfigError(
          "'in' right operand must be list, dict or string");
    }
    return Value::Bool(op == BinOp::kIn ? contains : !contains);
  }

  // Ordering comparisons.
  if (op == BinOp::kLt || op == BinOp::kLe || op == BinOp::kGt ||
      op == BinOp::kGe) {
    int cmp = 0;
    if (lhs.is_number() && rhs.is_number()) {
      double a = lhs.as_double();
      double b = rhs.as_double();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else if (lhs.is_string() && rhs.is_string()) {
      cmp = lhs.as_string().compare(rhs.as_string());
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    } else {
      return InvalidConfigError(
          StrFormat("cannot compare %s and %s",
                    std::string(lhs.KindName()).c_str(),
                    std::string(rhs.KindName()).c_str()));
    }
    if (op == BinOp::kLt) {
      return Value::Bool(cmp < 0);
    }
    if (op == BinOp::kLe) {
      return Value::Bool(cmp <= 0);
    }
    if (op == BinOp::kGt) {
      return Value::Bool(cmp > 0);
    }
    return Value::Bool(cmp >= 0);
  }

  // Arithmetic and concatenation.
  if (op == BinOp::kAdd) {
    if (lhs.is_string() && rhs.is_string()) {
      RETURN_IF_ERROR(CheckStringLength(uint64_t{lhs.as_string().size()} +
                                        rhs.as_string().size()));
      return arena.Str(lhs.as_string() + rhs.as_string());
    }
    if (lhs.is_list() && rhs.is_list()) {
      size_t size = lhs.as_list().size() + rhs.as_list().size();
      RETURN_IF_ERROR(arena.CheckFits(size * sizeof(Value)));
      Value::List combined;
      combined.reserve(size);
      combined.insert(combined.end(), lhs.as_list().begin(),
                      lhs.as_list().end());
      combined.insert(combined.end(), rhs.as_list().begin(),
                      rhs.as_list().end());
      return arena.MakeList(std::move(combined));
    }
    if (!lhs.is_number() || !rhs.is_number()) {
      return InvalidConfigError(StrFormat(
          "cannot add %s and %s", std::string(lhs.KindName()).c_str(),
          std::string(rhs.KindName()).c_str()));
    }
  }

  if (op == BinOp::kMul && lhs.is_string() && rhs.is_int()) {
    const std::string& unit = lhs.as_string();
    uint64_t count = unit.empty() ? 0 : std::max<int64_t>(rhs.as_int(), 0);
    uint64_t length = 0;
    bool overflow = __builtin_mul_overflow(uint64_t{unit.size()}, count, &length);
    RETURN_IF_ERROR(CheckStringLength(overflow ? UINT64_MAX : length));
    std::string out;
    out.reserve(length);
    for (uint64_t i = 0; i < count; ++i) {
      out += unit;
    }
    return arena.Str(std::move(out));
  }
  if (!lhs.is_number() || !rhs.is_number()) {
    return InvalidConfigError(StrFormat("operator '%s' needs numbers",
                                        std::string(BinOpName(op)).c_str()));
  }
  if (lhs.is_int() && rhs.is_int()) {
    return IntArithmetic(op, lhs.as_int(), rhs.as_int());
  }
  double a = lhs.as_double();
  double b = rhs.as_double();
  if (op == BinOp::kAdd) {
    return Value::Double(a + b);
  }
  if (op == BinOp::kSub) {
    return Value::Double(a - b);
  }
  if (op == BinOp::kMul) {
    return Value::Double(a * b);
  }
  if (b == 0) {
    return InvalidConfigError("division by zero");
  }
  if (op == BinOp::kFloorDiv) {
    return Value::Double(std::floor(a / b));
  }
  if (op == BinOp::kMod) {
    return Value::Double(std::fmod(a, b));
  }
  return Value::Double(a / b);
}

Result<Value> EvalUnaryValues(std::string_view op, const Value& operand) {
  if (op == "not") {
    return Value::Bool(!operand.Truthy());
  }
  if (op == "-") {
    if (operand.is_int()) {
      return IntArithmetic(BinOp::kSub, 0, operand.as_int());
    }
    if (operand.is_double()) {
      return Value::Double(-operand.as_double());
    }
    return InvalidConfigError("unary '-' needs a number");
  }
  return InvalidConfigError("unknown unary operator");
}

Result<Value> EvalIndexGet(const Value& base, const Value& key) {
  if (base.is_dict()) {
    if (!key.is_string()) {
      return InvalidConfigError("dict keys must be strings");
    }
    auto it = base.as_dict().find(key.as_string());
    if (it == base.as_dict().end()) {
      return InvalidConfigError("key '" + key.as_string() + "' not found");
    }
    return it->second;
  }
  if (base.is_list()) {
    if (!key.is_int()) {
      return InvalidConfigError("list index must be an integer");
    }
    int64_t idx = key.as_int();
    const auto& list = base.as_list();
    if (idx < 0) {
      idx += static_cast<int64_t>(list.size());
    }
    if (idx < 0 || idx >= static_cast<int64_t>(list.size())) {
      return InvalidConfigError("list index out of range");
    }
    return list[static_cast<size_t>(idx)];
  }
  if (base.is_string()) {
    if (!key.is_int()) {
      return InvalidConfigError("string index must be an integer");
    }
    int64_t idx = key.as_int();
    const std::string& s = base.as_string();
    if (idx < 0) {
      idx += static_cast<int64_t>(s.size());
    }
    if (idx < 0 || idx >= static_cast<int64_t>(s.size())) {
      return InvalidConfigError("string index out of range");
    }
    return CharString(s[static_cast<size_t>(idx)]);
  }
  return InvalidConfigError("cannot index " + std::string(base.KindName()));
}

namespace {

// `dict[key] = value`, charging a new key to `arena`.
Status DictStore(Value::Dict& dict, const std::string& key, Value value,
                 ValueArena& arena) {
  auto it = dict.lower_bound(key);
  if (it == dict.end() || it->first != key) {
    RETURN_IF_ERROR(arena.Charge(ValueArena::DictEntryBytes(key)));
    it = dict.emplace_hint(it, key, Value());
  }
  it->second = std::move(value);
  return OkStatus();
}

}  // namespace

Status EvalIndexSet(const Value& base, const Value& key, Value value,
                    ValueArena& arena) {
  if (base.is_dict()) {
    if (!key.is_string()) {
      return InvalidConfigError("dict keys must be strings");
    }
    return DictStore(base.as_dict(), key.as_string(), std::move(value), arena);
  }
  if (base.is_list()) {
    if (!key.is_int()) {
      return InvalidConfigError("list index must be an integer");
    }
    int64_t idx = key.as_int();
    auto& list = base.as_list();
    if (idx < 0) {
      idx += static_cast<int64_t>(list.size());
    }
    if (idx < 0 || idx >= static_cast<int64_t>(list.size())) {
      return InvalidConfigError("list index out of range");
    }
    list[static_cast<size_t>(idx)] = std::move(value);
    return OkStatus();
  }
  return InvalidConfigError("cannot index " + std::string(base.KindName()));
}

Result<Value> EvalAttrGet(const Value& base, const std::string& name) {
  if (base.is_dict()) {
    auto it = base.as_dict().find(name);
    if (it == base.as_dict().end()) {
      return InvalidConfigError(
          StrFormat("%s has no attribute '%s'",
                    std::string(base.KindName()).c_str(), name.c_str()));
    }
    return it->second;
  }
  return InvalidConfigError(
      StrFormat("cannot access attribute '%s' on %s", name.c_str(),
                std::string(base.KindName()).c_str()));
}

Status EvalAttrSet(const Value& base, const std::string& name, Value value,
                   ValueArena& arena) {
  if (!base.is_dict()) {
    return InvalidConfigError("cannot set attribute on " +
                              std::string(base.KindName()));
  }
  return DictStore(base.as_dict(), name, std::move(value), arena);
}

Result<Value::List> IterableItems(const Value& iterable, ValueArena& arena) {
  std::vector<Value> items;
  if (iterable.is_list()) {
    items = iterable.as_list();
  } else if (iterable.is_dict()) {
    // Iterating a dict yields its keys, like Python.
    for (const auto& [k, v] : iterable.as_dict()) {
      ASSIGN_OR_RETURN(Value key, arena.Str(k));
      items.push_back(std::move(key));
    }
  } else if (iterable.is_string()) {
    const std::string& s = iterable.as_string();
    RETURN_IF_ERROR(arena.CheckFits(s.size() * sizeof(Value)));
    items.reserve(s.size());
    for (char c : s) {
      items.push_back(CharString(c));
    }
  } else {
    return InvalidConfigError("for-loop target is not iterable");
  }
  return items;
}

Status BindCallArgs(
    const std::string& fn_name, const std::vector<std::string>& params,
    const std::vector<bool>& has_default, std::vector<Value> args,
    std::map<std::string, Value> kwargs,
    const std::function<void(size_t, Value)>& define,
    const std::function<Result<Value>(size_t)>& eval_default) {
  size_t n_params = params.size();
  if (args.size() > n_params) {
    return InvalidArgumentError(
        StrFormat("%s() takes at most %zu arguments (%zu given)",
                  fn_name.c_str(), n_params, args.size()));
  }
  std::vector<bool> bound(n_params, false);
  for (size_t i = 0; i < args.size(); ++i) {
    define(i, std::move(args[i]));
    bound[i] = true;
  }
  for (auto& [kw, value] : kwargs) {
    auto it = std::find(params.begin(), params.end(), kw);
    if (it == params.end()) {
      return InvalidArgumentError(
          StrFormat("%s() got unexpected keyword argument '%s'",
                    fn_name.c_str(), kw.c_str()));
    }
    size_t idx = static_cast<size_t>(it - params.begin());
    if (bound[idx]) {
      return InvalidArgumentError(StrFormat("%s() got multiple values for '%s'",
                                            fn_name.c_str(), kw.c_str()));
    }
    define(idx, std::move(value));
    bound[idx] = true;
  }
  for (size_t i = 0; i < n_params; ++i) {
    if (bound[i]) {
      continue;
    }
    if (has_default[i]) {
      auto dflt = eval_default(i);
      if (!dflt.ok()) {
        return dflt.status();
      }
      define(i, std::move(dflt).value());
    } else {
      return InvalidArgumentError(
          StrFormat("%s() missing required argument '%s'", fn_name.c_str(),
                    params[i].c_str()));
    }
  }
  return OkStatus();
}

}  // namespace configerator
