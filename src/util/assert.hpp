#pragma once

/// \file assert.hpp
/// Always-on and debug-only assertion macros used across the library.
///
/// The project error-handling contract:
///  * `SSP_REQUIRE`  — precondition checks on public API boundaries; throws
///    `std::invalid_argument` with location info. Always enabled.
///  * `SSP_ASSERT`   — internal invariants on cold paths; throws
///    `ssp::InternalError`. Always enabled.
///  * `SSP_DASSERT`  — internal invariants on hot paths; compiled out unless
///    `SSP_ENABLE_DEBUG_ASSERTS` is defined.

#include <sstream>
#include <stdexcept>
#include <string>

namespace ssp {

/// Thrown when an internal invariant is violated; indicates a library bug,
/// not user error.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] inline void throw_requirement_failure(const char* expr,
                                                   const char* file, int line,
                                                   const std::string& msg) {
  std::ostringstream os;
  os << "precondition violated: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_assertion_failure(const char* expr,
                                                 const char* file, int line,
                                                 const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant violated: (" << expr << ") at " << file << ':'
     << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace ssp

#define SSP_REQUIRE(cond, msg)                                         \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::ssp::detail::throw_requirement_failure(#cond, __FILE__,        \
                                               __LINE__, (msg));       \
    }                                                                  \
  } while (false)

#define SSP_ASSERT(cond, msg)                                          \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::ssp::detail::throw_assertion_failure(#cond, __FILE__,          \
                                             __LINE__, (msg));         \
    }                                                                  \
  } while (false)

#ifdef SSP_ENABLE_DEBUG_ASSERTS
#define SSP_DASSERT(cond, msg) SSP_ASSERT(cond, msg)
#else
#define SSP_DASSERT(cond, msg) \
  do {                         \
  } while (false)
#endif
