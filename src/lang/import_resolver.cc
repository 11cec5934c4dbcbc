#include "src/lang/import_resolver.h"

namespace configerator {

bool IsImportCall(const Expr& expr) {
  return expr.kind == Expr::Kind::kCall &&
         expr.lhs->kind == Expr::Kind::kName &&
         (expr.lhs->name == "import_python" ||
          expr.lhs->name == "import_thrift");
}

bool IsSchemaImportPath(const std::string& callee_name,
                        const std::string& path) {
  return callee_name == "import_thrift" || path.ends_with(".thrift");
}

ImportTarget ClassifyImport(const Expr& call) {
  ImportTarget target;
  target.line = call.line;
  if (call.items.empty() || call.items[0]->kind != Expr::Kind::kLiteral ||
      !call.items[0]->literal.is_string()) {
    return target;  // kDynamic: path computed at evaluation time.
  }
  target.path = call.items[0]->literal.as_string();
  if (IsSchemaImportPath(call.lhs->name, target.path)) {
    target.kind = ImportTarget::Kind::kSchema;
    return target;
  }
  if (call.items.size() >= 2) {
    if (call.items[1]->kind != Expr::Kind::kLiteral ||
        !call.items[1]->literal.is_string()) {
      target.path.clear();
      return target;  // kDynamic: filter computed at evaluation time.
    }
    target.filter = call.items[1]->literal.as_string();
  }
  target.kind = ImportTarget::Kind::kModule;
  return target;
}

}  // namespace configerator
