#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/json.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_dropped_spans{0};

/// One past the '}' closing the JSON object that starts at `pos`.
std::size_t object_end(std::string_view text, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  throw std::runtime_error("truncated trace event");
}

}  // namespace

LayerSpan::LayerSpan(const char* layer, const char* name,
                     double calls) noexcept
    : layer_(layer), name_(name), calls_(calls), start_ns_(now_ns()) {
  const auto& collector = voprof::obs::TraceCollector::global();
  if (collector.enabled()) {
    start_us_ = collector.wall_now_us();
    traced_ = true;
  }
}

LayerSpan::~LayerSpan() {
  if (!traced_) return;
  auto& collector = voprof::obs::TraceCollector::global();
  if (!collector.enabled()) return;
  try {
    const std::int64_t end_us = collector.wall_now_us();
    collector.complete_wall(layer_, name_, start_us_, end_us - start_us_,
                            {{"calls", calls_}});
  } catch (...) {
    g_dropped_spans.fetch_add(1, std::memory_order_relaxed);
  }
}

std::int64_t LayerSpan::elapsed_ns() const noexcept {
  return now_ns() - start_ns_;
}

std::uint64_t dropped_spans() noexcept {
  return g_dropped_spans.load(std::memory_order_relaxed);
}

std::string layer_of_category(std::string_view category) {
  if (category == "trainer") return "core";
  if (category == "taskpool") return "util";
  return std::string(category);
}

std::vector<SpanRecord> spans_from_trace(std::string_view text,
                                         std::uint64_t tid_offset) {
  std::vector<SpanRecord> spans;
  constexpr std::string_view kList = "\"traceEvents\":[";
  std::size_t pos = text.find(kList);
  if (pos == std::string_view::npos) return spans;
  pos += kList.size();
  while (pos < text.size()) {
    while (pos < text.size() &&
           (text[pos] == ',' || text[pos] == ' ' || text[pos] == '\n')) {
      ++pos;
    }
    if (pos >= text.size() || text[pos] != '{') break;
    const std::size_t end = object_end(text, pos);
    const std::string_view event = text.substr(pos, end - pos);
    pos = end;
    if (event.find("\"ph\":\"X\"") == std::string_view::npos ||
        event.find("\"pid\":1,") == std::string_view::npos) {
      continue;
    }
    const voprof::util::Json e = voprof::util::Json::parse(event);
    SpanRecord s;
    s.layer = layer_of_category(e.at("cat").as_string());
    s.name = e.at("name").as_string();
    s.start_us = static_cast<std::int64_t>(e.at("ts").as_number());
    s.dur_us = static_cast<std::int64_t>(e.at("dur").as_number());
    s.tid = static_cast<std::uint64_t>(e.at("tid").as_number()) + tid_offset;
    if (const voprof::util::Json* args = e.find("args")) {
      const voprof::util::Json* calls = args->find("calls");
      if (calls != nullptr && calls->is_number()) s.calls = calls->as_number();
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

std::map<std::string, double> self_time_ms(std::vector<SpanRecord> spans) {
  // Per thread, by start; a parent sorts before a child starting with it.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.dur_us > b.dur_us;
            });
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    while (!open.empty()) {
      const SpanRecord& top = spans[open.back()];
      if (top.tid == s.tid && top.start_us + top.dur_us > s.start_us) break;
      open.pop_back();
    }
    if (!open.empty()) {
      const SpanRecord& parent = spans[open.back()];
      const std::int64_t end =
          std::min(s.start_us + s.dur_us, parent.start_us + parent.dur_us);
      covered[open.back()] += std::max<std::int64_t>(0, end - s.start_us);
    }
    open.push_back(i);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].layer] +=
        static_cast<double>(std::max<std::int64_t>(
            0, spans[i].dur_us - covered[i])) /
        1e3;
  }
  return self;
}

SpanTotal span_total(const std::vector<SpanRecord>& spans,
                     std::string_view layer, std::string_view name) {
  SpanTotal total;
  for (const SpanRecord& s : spans) {
    if (s.layer == layer && s.name == name) {
      total.ms += static_cast<double>(s.dur_us) / 1e3;
      total.calls += s.calls;
      ++total.spans;
    }
  }
  return total;
}

}  // namespace perfbench
