#pragma once
/// \file assert.hpp
/// Lightweight contract-checking macros used across voprof.
///
/// VOPROF_REQUIRE is always on (it guards API misuse and throws
/// std::invalid_argument / std::logic_error style errors); VOPROF_ASSERT
/// is an internal invariant check that NDEBUG builds compile away.

#include <stdexcept>
#include <string>

namespace voprof::util {

/// Exception thrown when a VOPROF_REQUIRE precondition fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line,
                                          const std::string& msg) {
  throw ContractViolation(std::string(kind) + " failed: (" + expr + ") at " +
                          file + ":" + std::to_string(line) +
                          (msg.empty() ? "" : (": " + msg)));
}

}  // namespace voprof::util

/// Precondition check that is always active. Throws ContractViolation.
#define VOPROF_REQUIRE(expr)                                                \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::voprof::util::contract_failure("precondition", #expr, __FILE__,     \
                                       __LINE__, "");                       \
    }                                                                       \
  } while (false)

/// Precondition check with an explanatory message.
#define VOPROF_REQUIRE_MSG(expr, msg)                                       \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::voprof::util::contract_failure("precondition", #expr, __FILE__,     \
                                       __LINE__, (msg));                    \
    }                                                                       \
  } while (false)

/// Internal invariant; active unless NDEBUG.
#ifdef NDEBUG
#define VOPROF_ASSERT(expr) ((void)0)
#else
#define VOPROF_ASSERT(expr)                                                 \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::voprof::util::contract_failure("invariant", #expr, __FILE__,        \
                                       __LINE__, "");                       \
    }                                                                       \
  } while (false)
#endif
