#include "protocol.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "voprof/serve/api.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/workloads/levels.hpp"

namespace perfbench {

namespace {

using voprof::util::Json;

constexpr std::string_view kIdKey = "\"id\":\"";

std::string trim(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string_view::npos) return {};
  const std::size_t e = s.find_last_not_of(" \t\r");
  return std::string(s.substr(b, e - b + 1));
}

/// A voprof-api-1 request line for `op`, its id left open.
LineTemplate request(const char* op, Json params) {
  Json req = Json::object();
  req.set("api", voprof::serve::kApiVersion);
  req.set("id", std::string(kIdMarker));
  req.set("op", op);
  req.set("deadline_ms", kRequestDeadlineMs);
  req.set("params", std::move(params));
  return LineTemplate::around_id(req.dump(0));
}

std::optional<Json> parse_json(std::string_view text) {
  try {
    return Json::parse(text);
  } catch (const voprof::util::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

LineTemplate LineTemplate::around_id(const std::string& line) {
  const std::size_t at = line.find(kIdMarker);
  if (at == std::string::npos) {
    throw std::logic_error("line has no id marker: " + line);
  }
  return LineTemplate{line.substr(0, at), line.substr(at + kIdMarker.size())};
}

std::string LineTemplate::with_id(std::string_view id) const {
  std::string line;
  line.reserve(head.size() + id.size() + tail.size());
  line += head;
  line += id;
  line += tail;
  return line;
}

bool LineTemplate::matches(std::string_view line,
                           std::string_view id) const noexcept {
  return line.size() == head.size() + id.size() + tail.size() &&
         line.substr(0, head.size()) == head &&
         line.substr(head.size(), id.size()) == id &&
         line.substr(head.size() + id.size()) == tail;
}

LineTemplate expected_response(Json result) {
  return LineTemplate::around_id(
      voprof::serve::ok_response(std::string(kIdMarker), std::move(result)));
}

std::string_view response_id(std::string_view response) noexcept {
  const std::size_t at = response.find(kIdKey);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + kIdKey.size();
  const std::size_t end = response.find('"', begin);
  if (end == std::string_view::npos) return {};
  return response.substr(begin, end - begin);
}

bool response_ok(std::string_view response) noexcept {
  const std::string_view id = response_id(response);
  if (id.data() == nullptr) return false;
  const auto after =
      static_cast<std::size_t>(id.data() - response.data()) + id.size() + 1;
  return response.substr(after).starts_with(",\"ok\":true");
}

std::string response_error(std::string_view response) {
  const std::optional<Json> doc = parse_json(response);
  if (!doc || !doc->is_object()) return {};
  const Json* error = doc->find("error");
  const Json* code = error != nullptr ? error->find("code") : nullptr;
  return code != nullptr && code->is_string() ? code->as_string()
                                              : std::string();
}

std::string train_models_text(std::string_view response) {
  const std::optional<Json> doc = parse_json(response);
  if (!doc || !doc->is_object()) return {};
  const Json* ok = doc->find("ok");
  const Json* result = doc->find("result");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || result == nullptr) {
    return {};
  }
  const Json* models = result->find("models");
  return models != nullptr && models->is_string() ? models->as_string()
                                                  : std::string();
}

std::vector<PredictInput> predict_inputs(std::uint64_t seed, std::size_t n,
                                         double duration_s, int key_seed) {
  namespace wl = voprof::wl;
  voprof::util::Rng rng(seed);
  std::vector<PredictInput> inputs(n);
  for (std::size_t i = 0; i < n; ++i) {
    PredictInput& in = inputs[i];
    in.key = ModelKey{i % 2 == 0, duration_s, key_seed};
    in.vms = 1 + static_cast<int>(rng.uniform_int(8));
    for (int v = 0; v < in.vms; ++v) {
      in.sum.cpu +=
          rng.uniform(wl::kCpuLevelsPct.front(), wl::kCpuLevelsPct.back());
      in.sum.mem +=
          rng.uniform(wl::kMemLevelsMib.front(), wl::kMemLevelsMib.back());
      in.sum.io +=
          rng.uniform(wl::kIoLevelsBlocks.front(), wl::kIoLevelsBlocks.back());
      in.sum.bw +=
          rng.uniform(wl::kBwLevelsKbps.front(), wl::kBwLevelsKbps.back());
    }
  }
  return inputs;
}

LineTemplate predict_request(const PredictInput& in) {
  Json params = Json::object();
  params.set("method", in.key.lms ? "lms" : "ols");
  params.set("cpu", in.sum.cpu);
  params.set("mem", in.sum.mem);
  params.set("io", in.sum.io);
  params.set("bw", in.sum.bw);
  params.set("vms", in.vms);
  params.set("train_duration_s", in.key.duration_s);
  params.set("seed", in.key.seed);
  return request("predict", std::move(params));
}

LineTemplate simulate_request(const std::string& scenario_text,
                              int replications) {
  Json params = Json::object();
  params.set("scenario", scenario_text);
  params.set("replications", replications);
  return request("simulate", std::move(params));
}

LineTemplate train_request(const ModelKey& key) {
  Json params = Json::object();
  params.set("method", key.lms ? "lms" : "ols");
  params.set("duration_s", key.duration_s);
  params.set("seed", key.seed);
  return request("train", std::move(params));
}

std::vector<std::pair<std::string, std::string>> bundled_scenarios(
    const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(root) / "scenarios")) {
    if (entry.is_regular_file() && entry.path().extension() == ".conf") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    throw std::runtime_error("no scenarios/*.conf under " + root);
  }
  std::vector<std::pair<std::string, std::string>> scenarios;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    scenarios.emplace_back(file.stem().string(), text.str());
  }
  return scenarios;
}

std::string prepare_scenario(const std::string& text,
                             const std::string& scheduler,
                             const std::string& root) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  std::string section;
  bool has_cluster = false;
  while (std::getline(in, line)) {
    const std::string t = trim(line);
    if (!t.empty() && t.front() == '[') {
      section = t;
      out << line << '\n';
      if (t == "[cluster]") {
        out << "scheduler = " << scheduler << '\n';
        has_cluster = true;
      }
      continue;
    }
    const std::size_t eq = t.find('=');
    const std::string key = eq == std::string::npos || t.front() == '#'
                                ? std::string()
                                : trim(std::string_view(t).substr(0, eq));
    if (section == "[cluster]" && key == "scheduler") continue;
    if (key == "trace") {
      const std::string value_and_comment =
          trim(std::string_view(t).substr(eq + 1));
      std::string value = trim(std::string_view(value_and_comment)
                                   .substr(0, value_and_comment.find('#')));
      if (!value.empty() && value.front() != '/') value = root + "/" + value;
      out << "trace = " << value << '\n';
      continue;
    }
    out << line << '\n';
  }
  if (!has_cluster) {
    throw std::runtime_error("scenario has no [cluster] section");
  }
  return out.str();
}

}  // namespace perfbench
