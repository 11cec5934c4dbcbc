#include "src/gatekeeper/context.h"

#include <type_traits>

namespace configerator {

const ContextField* FindContextField(std::string_view name) {
  for (const ContextField& field : kContextFields) {
    if (field.name == name) {
      return &field;
    }
  }
  return nullptr;
}

Json ContextFieldDefault(const ContextField& field) {
  static const UserContext kDefault;
  return std::visit(
      [](auto member) -> Json {
        using T = std::remove_cvref_t<decltype(kDefault.*member)>;
        if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, bool>) {
          return Json(kDefault.*member);
        } else if constexpr (std::is_integral_v<T>) {
          return Json(static_cast<int64_t>(kDefault.*member));
        } else {
          return Json();  // An attribute map: the attribute is absent.
        }
      },
      field.member);
}

void SetContextField(const ContextField& field, const std::string& attr,
                     const Json& value, UserContext* user) {
  std::visit(
      [&](auto member) {
        using T = std::remove_cvref_t<decltype(user->*member)>;
        if constexpr (std::is_same_v<T, std::string>) {
          if (value.is_string()) {
            user->*member = value.as_string();
          }
        } else if constexpr (std::is_same_v<T, bool>) {
          if (value.is_bool()) {
            user->*member = value.as_bool();
          }
        } else if constexpr (std::is_integral_v<T>) {
          if (value.is_int()) {
            user->*member = static_cast<T>(value.as_int());
          }
        } else if constexpr (std::is_same_v<typename T::mapped_type,
                                            std::string>) {
          if (value.is_string()) {
            (user->*member)[attr] = value.as_string();
          }
        } else if (value.is_number()) {
          (user->*member)[attr] = value.as_double();
        }
      },
      field.member);
}

}  // namespace configerator
