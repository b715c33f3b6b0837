#pragma once
/// \file protocol.hpp
/// What goes over the socket and how the answers are checked. Requests
/// are generated from the seed (predict inputs from the Table II ranges,
/// the bundled scenarios, fresh training keys). Answers are compared
/// with references computed in-process through the library's public
/// entry points for the same inputs: a predict or simulate response must
/// be byte-equal to ok_response(id, predict_result_json(...)) or
/// ok_response(id, simulate_result_json(run_scenario_replicated(...))),
/// and a train response must carry model::models_to_string of its key.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "voprof/core/utilvec.hpp"
#include "voprof/util/json.hpp"

namespace perfbench {

/// Stands in for the request id while a line is split around it.
inline constexpr std::string_view kIdMarker = "@perfbench-id@";
/// Deadline of every generated request (ms): generous enough that a
/// correct daemon below saturation never times out.
inline constexpr int kRequestDeadlineMs = 30000;

/// A JSON line split around its id, so the line for any id is two
/// appends (requests) or two compares (expected responses).
struct LineTemplate {
  std::string head;
  std::string tail;
  /// Split `line` at its kIdMarker.
  [[nodiscard]] static LineTemplate around_id(const std::string& line);
  [[nodiscard]] std::string with_id(std::string_view id) const;
  /// True when `line` is byte-equal to with_id(id).
  [[nodiscard]] bool matches(std::string_view line,
                             std::string_view id) const noexcept;
};

/// The success line ok_response(id, result), for any id.
[[nodiscard]] LineTemplate expected_response(voprof::util::Json result);

/// The request id of a response line; empty when it has none.
[[nodiscard]] std::string_view response_id(std::string_view response) noexcept;
/// True when the envelope says "ok": true.
[[nodiscard]] bool response_ok(std::string_view response) noexcept;
/// The error code of a failed response ("overloaded", ...); else empty.
[[nodiscard]] std::string response_error(std::string_view response);
/// The `models` text of a successful train response; else empty.
[[nodiscard]] std::string train_models_text(std::string_view response);

/// A ModelCache key as the daemon sees it.
struct ModelKey {
  bool lms = true;
  double duration_s = 30.0;
  int seed = 1;
};

struct PredictInput {
  ModelKey key;
  voprof::model::UtilVec sum;
  int vms = 1;
};

/// n predict inputs: vms uniform in 1..8; per VM, CPU, MEM, IO and BW
/// each uniform over its Table II range (level 1 to level 5), summed;
/// LMS and OLS alternate on the key (duration_s, key_seed).
[[nodiscard]] std::vector<PredictInput> predict_inputs(std::uint64_t seed,
                                                       std::size_t n,
                                                       double duration_s,
                                                       int key_seed);

[[nodiscard]] LineTemplate predict_request(const PredictInput& in);
[[nodiscard]] LineTemplate simulate_request(const std::string& scenario_text,
                                            int replications);
[[nodiscard]] LineTemplate train_request(const ModelKey& key);

/// scenarios/*.conf under `root`, sorted by file name: (stem, INI text).
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
bundled_scenarios(const std::string& root);

/// A bundled scenario ready for the socket: [cluster] scheduler forced
/// to `scheduler`, and every relative `trace =` path made absolute
/// against `root`. voprofd resolves a trace path against its own
/// working directory, so a relative one fails ("cannot open CSV")
/// anywhere but the repository root.
[[nodiscard]] std::string prepare_scenario(const std::string& text,
                                           const std::string& scheduler,
                                           const std::string& root);

}  // namespace perfbench
