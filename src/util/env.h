#ifndef TPR_UTIL_ENV_H_
#define TPR_UTIL_ENV_H_

#include <cstdint>
#include <limits>

namespace tpr {

/// The number in environment variable `name`, or `fallback` when the
/// variable is unset or empty, when its whole value does not parse as a
/// T (a plain base-10 integer for the integer types, a finite number for
/// double), or when that number is below `min_value` or too large for T.
/// A knob set out of range keeps its default, like a malformed one, so
/// no value the configured code would reject ever reaches it.
template <typename T>
T EnvNumber(const char* name, T fallback, T min_value);

/// `min_value` for a double that must be strictly positive.
inline constexpr double kSmallestPositive =
    std::numeric_limits<double>::denorm_min();

}  // namespace tpr

#endif  // TPR_UTIL_ENV_H_
