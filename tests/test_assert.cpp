// Contract-macro behavior: VOPROF_REQUIRE / VOPROF_REQUIRE_MSG always
// throw ContractViolation with file:line context; VOPROF_ASSERT is an
// internal invariant compiled away under NDEBUG (so Release builds pay
// nothing for it — the tier-1 RelWithDebInfo build exercises exactly
// that compiled-out path, Debug/sanitizer builds the active one).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "voprof/util/assert.hpp"

namespace {

using voprof::util::ContractViolation;

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(VOPROF_REQUIRE(1 + 1 == 2));
}

TEST(Require, ThrowsContractViolationOnFalse) {
  EXPECT_THROW(VOPROF_REQUIRE(false), ContractViolation);
}

TEST(Require, IsALogicError) {
  // Existing call sites catch std::logic_error; the hierarchy is API.
  EXPECT_THROW(VOPROF_REQUIRE(false), std::logic_error);
}

TEST(Require, MessageCarriesExpressionFileAndLine) {
  try {
    VOPROF_REQUIRE(2 < 1);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("test_assert.cpp"), std::string::npos) << what;
    // A line number follows the file name as ":<digits>".
    const std::size_t colon = what.rfind(':');
    ASSERT_NE(colon, std::string::npos);
  }
}

TEST(RequireMsg, AppendsExplanatoryMessage) {
  try {
    VOPROF_REQUIRE_MSG(false, "tick period must be positive");
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tick period must be positive"), std::string::npos)
        << what;
  }
}

TEST(RequireMsg, AcceptsStdStringMessage) {
  const std::string msg = "built at runtime";
  try {
    VOPROF_REQUIRE_MSG(false, msg);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find(msg), std::string::npos);
  }
}

TEST(RequireMsg, SideEffectsInConditionRunExactlyOnce) {
  int calls = 0;
  const auto bump = [&calls]() {
    ++calls;
    return true;
  };
  VOPROF_REQUIRE_MSG(bump(), "must not double-evaluate");
  EXPECT_EQ(calls, 1);
}

TEST(Assert, PassesOnTrue) { EXPECT_NO_THROW(VOPROF_ASSERT(true)); }

TEST(Assert, CompiledOutUnderNdebugActiveOtherwise) {
#ifdef NDEBUG
  // Release: the macro expands to ((void)0); the condition is not
  // evaluated at all, let alone enforced.
  EXPECT_NO_THROW(VOPROF_ASSERT(false));
#else
  EXPECT_THROW(VOPROF_ASSERT(false), ContractViolation);
#endif
}

TEST(Assert, ConditionNotEvaluatedUnderNdebug) {
  int calls = 0;
  const auto bump = [&calls]() {
    ++calls;
    return true;
  };
  (void)bump;  // referenced only when VOPROF_ASSERT is active
  VOPROF_ASSERT(bump());
#ifdef NDEBUG
  EXPECT_EQ(calls, 0);
#else
  EXPECT_EQ(calls, 1);
#endif
}

TEST(ContractFailure, FormatsKindExpressionAndLocation) {
  try {
    voprof::util::contract_failure("invariant", "x >= 0", "engine.cpp", 42,
                                   "negative utilization");
    FAIL() << "contract_failure must not return";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant failed"), std::string::npos) << what;
    EXPECT_NE(what.find("(x >= 0)"), std::string::npos) << what;
    EXPECT_NE(what.find("engine.cpp:42"), std::string::npos) << what;
    EXPECT_NE(what.find("negative utilization"), std::string::npos) << what;
  }
}

TEST(ContractFailure, OmitsColonWhenMessageEmpty) {
  try {
    voprof::util::contract_failure("precondition", "ok", "f.cpp", 7, "");
    FAIL() << "contract_failure must not return";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("f.cpp:7"), std::string::npos) << what;
    EXPECT_EQ(what.find("f.cpp:7:"), std::string::npos) << what;
  }
}

}  // namespace
