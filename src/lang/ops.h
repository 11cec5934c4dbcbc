// Runtime semantics of the config source language's operators, attribute
// and index access, iteration and call binding, kept apart from the
// interpreter's tree walk. Errors carry the bare message (no "origin:line:"
// prefix); the interpreter prefixes the position.

#ifndef SRC_LANG_OPS_H_
#define SRC_LANG_OPS_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/lang/value.h"
#include "src/util/status.h"

namespace configerator {

// Non-short-circuit binary operators ("and"/"or" stay in the interpreter
// because their operand evaluation is conditional).
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kFloorDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIn,
  kNotIn,
};

// Maps the parser's operator spelling to a BinOp; nullopt for "and"/"or"
// and anything unknown.
std::optional<BinOp> ParseBinOp(std::string_view op);

// The source spelling, for "operator '%s' needs numbers"-style messages.
std::string_view BinOpName(BinOp op);

// `lhs OP rhs` with Python-flavored semantics (floor division, `/` on ints
// yielding double, string repetition, list concatenation, ...). Integer
// arithmetic fails on int64 overflow. Lists and strings the operator builds
// come from `arena`.
Result<Value> EvalBinaryValues(BinOp op, const Value& lhs, const Value& rhs,
                               ValueArena& arena);

// The arithmetic operators on two ints (`/` yields a double). Fails on
// int64 overflow and division by zero.
Result<Value> IntArithmetic(BinOp op, int64_t a, int64_t b);

// Unary "-" / "not".
Result<Value> EvalUnaryValues(std::string_view op, const Value& operand);

// `base[key]` read.
Result<Value> EvalIndexGet(const Value& base, const Value& key);

// `base[key] = value`. Mutates the cell `base` points to; a new dict key is
// charged to `arena`.
Status EvalIndexSet(const Value& base, const Value& key, Value value,
                    ValueArena& arena);

// `base.name` read.
Result<Value> EvalAttrGet(const Value& base, const std::string& name);

// `base.name = value`.
Status EvalAttrSet(const Value& base, const std::string& name, Value value,
                   ValueArena& arena);

// Materializes a for-loop's item sequence: a copy of a list's items, a
// dict's keys in sorted order (strings built in `arena`), a string's
// characters. The copy is part of the language semantics — mutating the
// iterable inside the loop must not change the iteration.
Result<Value::List> IterableItems(const Value& iterable, ValueArena& arena);

// Binds call arguments to parameters with the interpreter's exact rules and
// messages: positionals first, then keywords in sorted order, then defaults
// in parameter order. `has_default[i]` says whether parameter i has one;
// `define(i, v)` installs a binding; `eval_default(i)` evaluates default i
// in the callee's scope (so earlier parameters are visible).
Status BindCallArgs(
    const std::string& fn_name, const std::vector<std::string>& params,
    const std::vector<bool>& has_default, std::vector<Value> args,
    std::map<std::string, Value> kwargs,
    const std::function<void(size_t, Value)>& define,
    const std::function<Result<Value>(size_t)>& eval_default);

}  // namespace configerator

#endif  // SRC_LANG_OPS_H_
