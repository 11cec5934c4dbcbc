#include "src/lang/builtins.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>

#include "src/lang/ops.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

using Args = std::vector<Value>;
using Kwargs = std::map<std::string, Value>;

Status ArityError(const std::string& fn, const std::string& expected) {
  return InvalidArgumentError(fn + "() expects " + expected);
}

std::string Stringify(const Value& v) {
  if (v.is_string()) {
    return v.as_string();
  }
  if (v.is_bool()) {
    return v.as_bool() ? "True" : "False";
  }
  if (v.is_int()) {
    return std::to_string(v.as_int());
  }
  if (v.is_double()) {
    return StrFormat("%g", v.as_double());
  }
  if (v.is_null()) {
    return "None";
  }
  return v.ToDebugString();
}

// Appends `piece` to `out` unless the result would pass kMaxStringBytes.
Status AppendBounded(std::string* out, std::string_view piece) {
  RETURN_IF_ERROR(CheckStringLength(uint64_t{out->size()} + piece.size()));
  out->append(piece);
  return OkStatus();
}

void Def(Environment* env, const std::string& name, NativeFn fn) {
  env->Define(name, Value::MakeNative(name, std::move(fn)));
}

}  // namespace

const std::shared_ptr<Environment>& SharedBuiltinsEnvironment() {
  static const std::shared_ptr<Environment> env = [] {
    auto e = std::make_shared<Environment>();
    RegisterCslBuiltins(e.get());
    return e;
  }();
  return env;
}

void RegisterCslBuiltins(Environment* env) {
  Def(env, "len", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("len", "one argument");
    }
    const Value& v = args[0];
    if (v.is_string()) {
      return Value::Int(static_cast<int64_t>(v.as_string().size()));
    }
    if (v.is_list()) {
      return Value::Int(static_cast<int64_t>(v.as_list().size()));
    }
    if (v.is_dict()) {
      return Value::Int(static_cast<int64_t>(v.as_dict().size()));
    }
    return InvalidArgumentError("len() needs a string, list or dict");
  });

  Def(env, "str", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("str", "one argument");
    }
    return arena.Str(Stringify(args[0]));
  });

  Def(env, "int", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("int", "one argument");
    }
    const Value& v = args[0];
    if (v.is_int()) {
      return v;
    }
    if (v.is_double()) {
      // int64 holds exactly the doubles in [-2^63, 2^63); NaN is in none.
      double d = v.as_double();
      if (!(d >= -0x1p63 && d < 0x1p63)) {
        return InvalidConfigError("integer overflow");
      }
      return Value::Int(static_cast<int64_t>(d));
    }
    if (v.is_bool()) {
      return Value::Int(v.as_bool() ? 1 : 0);
    }
    if (v.is_string()) {
      char* end = nullptr;
      errno = 0;
      long long parsed = std::strtoll(v.as_string().c_str(), &end, 10);
      if (end == v.as_string().c_str() || *end != '\0') {
        return InvalidArgumentError("int(): cannot parse '" + v.as_string() + "'");
      }
      if (errno == ERANGE) {
        return InvalidConfigError("integer overflow");
      }
      return Value::Int(parsed);
    }
    return InvalidArgumentError("int() needs a number or numeric string");
  });

  Def(env, "float", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("float", "one argument");
    }
    const Value& v = args[0];
    if (v.is_number()) {
      return Value::Double(v.as_double());
    }
    if (v.is_string()) {
      char* end = nullptr;
      double parsed = std::strtod(v.as_string().c_str(), &end);
      if (end == v.as_string().c_str() || *end != '\0') {
        return InvalidArgumentError("float(): cannot parse '" + v.as_string() + "'");
      }
      return Value::Double(parsed);
    }
    return InvalidArgumentError("float() needs a number or numeric string");
  });

  Def(env, "abs", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_number()) {
      return ArityError("abs", "one number");
    }
    if (args[0].is_int()) {
      int64_t i = args[0].as_int();
      return i < 0 ? IntArithmetic(BinOp::kSub, 0, i) : args[0];
    }
    return Value::Double(std::fabs(args[0].as_double()));
  });

  Def(env, "range", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    int64_t start = 0;
    int64_t stop = 0;
    int64_t step = 1;
    if (args.size() == 1 && args[0].is_int()) {
      stop = args[0].as_int();
    } else if (args.size() >= 2 && args[0].is_int() && args[1].is_int()) {
      start = args[0].as_int();
      stop = args[1].as_int();
      if (args.size() == 3) {
        if (!args[2].is_int() || args[2].as_int() == 0) {
          return InvalidArgumentError("range() step must be a nonzero integer");
        }
        step = args[2].as_int();
      }
    } else {
      return ArityError("range", "1-3 integer arguments");
    }
    // The item count, computed where nothing overflows.
    __int128 span = static_cast<__int128>(stop) - start;
    uint64_t length = span != 0 && (span > 0) == (step > 0)
                          ? (span - (step > 0 ? 1 : -1)) / step + 1
                          : 0;
    RETURN_IF_ERROR(arena.CheckFits(
        std::min<uint64_t>(length, kArenaBudgetBytes) * sizeof(Value)));
    Value::List items;
    items.reserve(length);
    for (uint64_t k = 0; k < length; ++k) {
      // Modular, so nothing overflows; every item is in range.
      items.push_back(Value::Int(static_cast<int64_t>(
          static_cast<uint64_t>(start) + k * static_cast<uint64_t>(step))));
    }
    return arena.MakeList(std::move(items));
  });

  Def(env, "sorted", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_list()) {
      return ArityError("sorted", "one list");
    }
    Value::List items = args[0].as_list();
    bool numeric = std::all_of(items.begin(), items.end(),
                               [](const Value& v) { return v.is_number(); });
    bool stringy = std::all_of(items.begin(), items.end(),
                               [](const Value& v) { return v.is_string(); });
    if (!numeric && !stringy) {
      return InvalidArgumentError("sorted() needs all-numbers or all-strings");
    }
    std::stable_sort(items.begin(), items.end(),
                     [numeric](const Value& a, const Value& b) {
                       if (numeric) {
                         return a.as_double() < b.as_double();
                       }
                       return a.as_string() < b.as_string();
                     });
    return arena.MakeList(std::move(items));
  });

  auto min_max = [](bool is_min) {
    return [is_min](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
      const Value::List& items =
          args.size() == 1 && args[0].is_list() ? args[0].as_list() : args;
      if (items.empty()) {
        return InvalidArgumentError("min()/max() of empty sequence");
      }
      Value best = items[0];
      for (const Value& v : items) {
        if (!v.is_number() || !best.is_number()) {
          if (!v.is_string() || !best.is_string()) {
            return InvalidArgumentError("min()/max() needs numbers or strings");
          }
          bool less = v.as_string() < best.as_string();
          if (less == is_min && v.as_string() != best.as_string()) {
            best = v;
          }
          continue;
        }
        bool less = v.as_double() < best.as_double();
        if (less == is_min && v.as_double() != best.as_double()) {
          best = v;
        }
      }
      return best;
    };
  };
  Def(env, "min", min_max(true));
  Def(env, "max", min_max(false));

  Def(env, "items", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("items", "one dict");
    }
    Value::List pairs;
    for (const auto& [k, v] : args[0].as_dict()) {
      ASSIGN_OR_RETURN(Value key, arena.Str(k));
      ASSIGN_OR_RETURN(Value pair, arena.MakeList({std::move(key), v}));
      pairs.push_back(std::move(pair));
    }
    return arena.MakeList(std::move(pairs));
  });

  Def(env, "keys", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("keys", "one dict");
    }
    Value::List out;
    for (const auto& [k, v] : args[0].as_dict()) {
      (void)v;
      ASSIGN_OR_RETURN(Value key, arena.Str(k));
      out.push_back(std::move(key));
    }
    return arena.MakeList(std::move(out));
  });

  Def(env, "values", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("values", "one dict");
    }
    Value::List out;
    for (const auto& [k, v] : args[0].as_dict()) {
      (void)k;
      out.push_back(v);
    }
    return arena.MakeList(std::move(out));
  });

  Def(env, "append", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_list()) {
      return ArityError("append", "a list and a value");
    }
    RETURN_IF_ERROR(arena.Charge(sizeof(Value)));
    args[0].as_list().push_back(args[1]);
    return Value::Null();
  });

  Def(env, "extend", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_list() || !args[1].is_list()) {
      return ArityError("extend", "two lists");
    }
    RETURN_IF_ERROR(arena.Charge(args[1].as_list().size() * sizeof(Value)));
    Value::List tail = args[1].as_list();  // A copy: extend(l, l) is allowed.
    args[0].as_list().insert(args[0].as_list().end(), tail.begin(), tail.end());
    return Value::Null();
  });

  Def(env, "has_key", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_dict() || !args[1].is_string()) {
      return ArityError("has_key", "a dict and a string key");
    }
    return Value::Bool(args[0].as_dict().count(args[1].as_string()) > 0);
  });

  Def(env, "get", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() < 2 || !args[0].is_dict() || !args[1].is_string()) {
      return ArityError("get", "a dict, a string key, and an optional default");
    }
    auto it = args[0].as_dict().find(args[1].as_string());
    if (it != args[0].as_dict().end()) {
      return it->second;
    }
    if (args.size() >= 3) {
      return args[2];
    }
    return Value::Null();
  });

  Def(env, "join", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_string() || !args[1].is_list()) {
      return ArityError("join", "a separator string and a list");
    }
    std::string out;
    bool first = true;
    for (const Value& v : args[1].as_list()) {
      if (!first) {
        RETURN_IF_ERROR(AppendBounded(&out, args[0].as_string()));
      }
      first = false;
      RETURN_IF_ERROR(AppendBounded(&out, Stringify(v)));
    }
    return arena.Str(std::move(out));
  });

  Def(env, "split", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_string() || !args[1].is_string() ||
        args[1].as_string().empty()) {
      return ArityError("split", "a string and a nonempty separator");
    }
    const std::string& s = args[0].as_string();
    const std::string& sep = args[1].as_string();
    size_t pieces = 1;
    for (size_t at = s.find(sep); at != std::string::npos;
         at = s.find(sep, at + sep.size())) {
      ++pieces;
    }
    RETURN_IF_ERROR(arena.CheckFits(pieces * sizeof(Value)));
    Value::List out;
    out.reserve(pieces);
    size_t start = 0;
    while (true) {
      size_t next = s.find(sep, start);
      ASSIGN_OR_RETURN(Value piece, arena.Str(s.substr(start, next - start)));
      out.push_back(std::move(piece));
      if (next == std::string::npos) {
        break;
      }
      start = next + sep.size();
    }
    return arena.MakeList(std::move(out));
  });

  // format("{} has {} cores", name, n) — sequential "{}" substitution.
  Def(env, "format", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.empty() || !args[0].is_string()) {
      return ArityError("format", "a format string first");
    }
    const std::string& fmt = args[0].as_string();
    std::string out;
    size_t next_arg = 1;
    for (size_t i = 0; i < fmt.size(); ++i) {
      if (fmt[i] == '{' && i + 1 < fmt.size() && fmt[i + 1] == '}') {
        if (next_arg >= args.size()) {
          return InvalidArgumentError("format(): not enough arguments");
        }
        RETURN_IF_ERROR(AppendBounded(&out, Stringify(args[next_arg++])));
        ++i;
      } else {
        out.push_back(fmt[i]);  // At most fmt.size() in all.
      }
    }
    return arena.Str(std::move(out));
  });

  // String predicates and transforms (function-style, like the collection
  // helpers — the language has no methods).
  auto string_pair = [](const char* fn_name,
                        std::function<Value(const std::string&, const std::string&)>
                            op) {
    return [fn_name, op = std::move(op)](ValueArena&, Args& args,
                                         Kwargs&) -> Result<Value> {
      if (args.size() != 2 || !args[0].is_string() || !args[1].is_string()) {
        return ArityError(fn_name, "two strings");
      }
      return op(args[0].as_string(), args[1].as_string());
    };
  };
  Def(env, "startswith",
      string_pair("startswith", [](const std::string& s, const std::string& p) {
        return Value::Bool(s.starts_with(p));
      }));
  Def(env, "endswith",
      string_pair("endswith", [](const std::string& s, const std::string& p) {
        return Value::Bool(s.ends_with(p));
      }));

  auto string_unary = [](const char* fn_name,
                         std::function<std::string(const std::string&)> op) {
    return [fn_name, op = std::move(op)](ValueArena& arena, Args& args,
                                         Kwargs&) -> Result<Value> {
      if (args.size() != 1 || !args[0].is_string()) {
        return ArityError(fn_name, "one string");
      }
      return arena.Str(op(args[0].as_string()));
    };
  };
  Def(env, "upper", string_unary("upper", [](const std::string& s) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [](unsigned char c) { return std::toupper(c); });
        return out;
      }));
  Def(env, "lower", string_unary("lower", [](const std::string& s) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return out;
      }));
  Def(env, "strip", string_unary("strip", [](const std::string& s) {
        return std::string(StrTrim(s));
      }));

  Def(env, "replace", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 3 || !args[0].is_string() || !args[1].is_string() ||
        !args[2].is_string() || args[1].as_string().empty()) {
      return ArityError("replace", "a string, a nonempty needle, a replacement");
    }
    const std::string& s = args[0].as_string();
    const std::string& needle = args[1].as_string();
    const std::string& replacement = args[2].as_string();
    std::string out;
    size_t start = 0;
    while (true) {
      size_t pos = s.find(needle, start);
      if (pos == std::string::npos) {
        RETURN_IF_ERROR(AppendBounded(&out, std::string_view(s).substr(start)));
        break;
      }
      RETURN_IF_ERROR(
          AppendBounded(&out, std::string_view(s).substr(start, pos - start)));
      RETURN_IF_ERROR(AppendBounded(&out, replacement));
      start = pos + needle.size();
    }
    return arena.Str(std::move(out));
  });

  Def(env, "fail", [](ValueArena&, Args& args, Kwargs&) -> Result<Value> {
    std::string msg = "fail() called";
    if (!args.empty()) {
      msg = Stringify(args[0]);
    }
    return InvalidConfigError(msg);
  });

  // merge(base, override): deep merge for config inheritance (the paper's §8
  // "introducing config inheritance" future work). Returns a NEW value:
  // nested dicts merge recursively, anything else is replaced by the
  // override. The base's schema type tag is preserved, so a merged typed
  // config still type-checks at export. The walk over the override is
  // bounded like any other value walk.
  Def(env, "merge", [](ValueArena& arena, Args& args, Kwargs&) -> Result<Value> {
    if (args.size() != 2 || !args[0].is_dict() || !args[1].is_dict()) {
      return ArityError("merge", "two dicts (base, override)");
    }
    ValueWalk walk;
    std::function<Result<Value>(const Value&, const Value&, int)> deep_merge =
        [&](const Value& base, const Value& override_v,
            int depth) -> Result<Value> {
      Value::Dict merged = base.as_dict();
      for (const auto& [key, value] : override_v.as_dict()) {
        RETURN_IF_ERROR(walk.Visit(value, depth + 1, key.size()));
        auto it = merged.find(key);
        if (it != merged.end() && it->second.is_dict() && value.is_dict()) {
          ASSIGN_OR_RETURN(it->second, deep_merge(it->second, value, depth + 1));
        } else {
          merged[key] = value;
        }
      }
      return arena.MakeDict(std::move(merged), base.type_name());
    };
    RETURN_IF_ERROR(walk.Visit(args[1], 0));
    return deep_merge(args[0], args[1], 0);
  });
}

Status RegisterSchemaConstructors(const SchemaRegistry& registry,
                                  Environment* env, ValueArena& arena) {
  for (const std::string& struct_name : registry.StructNames()) {
    const StructDef* def = registry.FindStruct(struct_name);
    // Copy the field names; the registry outlives the interpreter session.
    std::vector<std::string> field_names;
    field_names.reserve(def->fields.size());
    for (const FieldDef& f : def->fields) {
      field_names.push_back(f.name);
    }
    std::string name = struct_name;
    env->Define(
        name,
        Value::MakeNative(
            name, [name, field_names](ValueArena& arena, Args& args,
                                      Kwargs& kwargs) -> Result<Value> {
              if (!args.empty()) {
                return InvalidArgumentError(
                    name + "(...) takes keyword arguments only");
              }
              Value::Dict fields;
              for (auto& [kw, value] : kwargs) {
                if (std::find(field_names.begin(), field_names.end(), kw) ==
                    field_names.end()) {
                  return InvalidConfigError(StrFormat(
                      "%s has no field named '%s'", name.c_str(), kw.c_str()));
                }
                fields[kw] = std::move(value);
              }
              return arena.MakeDict(std::move(fields), name);
            }));
  }

  // Enum namespaces: JobPriority.HIGH evaluates to its integer value.
  for (const std::string& enum_name : registry.EnumNames()) {
    const EnumDef* e = registry.FindEnum(enum_name);
    Value::Dict ns;
    for (const auto& [value_name, value] : e->values) {
      ns[value_name] = Value::Int(value);
    }
    ASSIGN_OR_RETURN(Value dict, arena.MakeDict(std::move(ns), "enum " + e->name));
    env->Define(e->name, std::move(dict));
  }
  return OkStatus();
}

}  // namespace configerator
