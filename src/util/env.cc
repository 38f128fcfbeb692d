#include "util/env.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace tpr {

template <typename T>
T EnvNumber(const char* name, T fallback, T min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* end = raw + std::strlen(raw);
  T v{};
  if constexpr (std::is_integral_v<T>) {
    // from_chars takes no sign for unsigned types, no leading '+' or
    // whitespace, and reports overflow instead of wrapping.
    const auto [ptr, ec] = std::from_chars(raw, end, v);
    if (ec != std::errc() || ptr != end) return fallback;
  } else {
    char* parsed = nullptr;
    v = std::strtod(raw, &parsed);
    if (parsed != end || !std::isfinite(v)) return fallback;
  }
  return v < min_value ? fallback : v;
}

template int EnvNumber<int>(const char*, int, int);
template uint64_t EnvNumber<uint64_t>(const char*, uint64_t, uint64_t);
template double EnvNumber<double>(const char*, double, double);

}  // namespace tpr
