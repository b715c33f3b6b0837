#include "trace_cmd.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"
#include "voprof/util/table.hpp"

namespace voprof::tools {

namespace {

/// Key for the per-span aggregation map; ordered so iteration (and
/// therefore tie-breaking between equally busy spans) is stable.
using SpanKey = std::pair<std::string, std::string>;  // (category, name)

double number_or(const util::Json& event, const char* key, double fallback) {
  const util::Json* v = event.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::string string_or(const util::Json& event, const char* key,
                      const std::string& fallback) {
  const util::Json* v = event.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

}  // namespace

TraceSummary summarize_trace(const util::Json& doc) {
  VOPROF_REQUIRE_MSG(doc.is_object(), "trace: document is not a JSON object");
  const util::Json* schema = doc.find("schema");
  VOPROF_REQUIRE_MSG(schema != nullptr && schema->is_string() &&
                         schema->as_string() == obs::kTraceSchema,
                     std::string("trace: expected schema \"") +
                         obs::kTraceSchema + "\" (is this a voprof trace?)");
  const util::Json* events = doc.find("traceEvents");
  VOPROF_REQUIRE_MSG(events != nullptr && events->is_array(),
                     "trace: missing traceEvents array");

  TraceSummary out;
  out.schema = schema->as_string();
  std::map<std::string, TraceCategoryStats> cats;
  std::map<SpanKey, TraceSpanStats> spans;
  for (const util::Json& e : events->as_array()) {
    ++out.total_events;
    const std::string ph = string_or(e, "ph", "");
    if (ph == "M") continue;  // process metadata carries no category
    const std::string cat = string_or(e, "cat", "(none)");
    const auto pid = static_cast<int>(number_or(e, "pid", obs::kWallPid));
    const double dur_ms = number_or(e, "dur", 0.0) / 1000.0;

    TraceCategoryStats& c = cats[cat];
    c.category = cat;
    if (ph == "X") {
      ++c.spans;
      if (pid == obs::kSimPid) {
        c.sim_ms += dur_ms;
      } else {
        c.wall_ms += dur_ms;
      }
      const SpanKey key{cat, string_or(e, "name", "(unnamed)")};
      TraceSpanStats& s = spans[key];
      s.category = key.first;
      s.name = key.second;
      ++s.count;
      if (pid == obs::kSimPid) {
        s.sim_ms += dur_ms;
      } else {
        s.wall_ms += dur_ms;
      }
    } else if (ph == "i" || ph == "I") {
      ++c.instants;
    } else if (ph == "C") {
      ++c.counters;
    }
  }

  const util::Json* metrics = doc.find("voprofMetrics");
  if (metrics != nullptr && metrics->is_object()) {
    out.metric_count = static_cast<int>(metrics->as_object().size());
    if (const util::Json* dropped = metrics->find("obs.trace_dropped")) {
      out.dropped = number_or(*dropped, "value", 0.0);
    }
  }

  out.categories.reserve(cats.size());
  for (auto& kv : cats) out.categories.push_back(std::move(kv.second));
  out.spans.reserve(spans.size());
  for (auto& kv : spans) out.spans.push_back(std::move(kv.second));
  std::stable_sort(out.spans.begin(), out.spans.end(),
                   [](const TraceSpanStats& a, const TraceSpanStats& b) {
                     return a.wall_ms + a.sim_ms > b.wall_ms + b.sim_ms;
                   });
  return out;
}

TraceSummary summarize_trace_file(const std::string& path) {
  std::ifstream f(path);
  VOPROF_REQUIRE_MSG(f.good(), "trace: cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return summarize_trace(util::Json::parse(os.str()));
}

std::string format_trace_summary(const TraceSummary& s) {
  util::AsciiTable t("trace summary (" + std::to_string(s.total_events) +
                     " events, " + std::to_string(s.metric_count) +
                     " metrics, " + util::fmt(s.dropped, 0) +
                     " dropped)");
  t.set_header({"category", "spans", "instants", "counters", "wall(ms)",
                "sim(ms)"});
  for (const TraceCategoryStats& c : s.categories) {
    t.add_row({c.category, std::to_string(c.spans),
               std::to_string(c.instants), std::to_string(c.counters),
               util::fmt(c.wall_ms, 3), util::fmt(c.sim_ms, 3)});
  }
  return t.str();
}

std::string format_trace_top(const TraceSummary& s, int limit) {
  const std::size_t n =
      limit <= 0 ? s.spans.size()
                 : std::min(s.spans.size(), static_cast<std::size_t>(limit));
  util::AsciiTable t("top " + std::to_string(n) + " spans by total time");
  t.set_header({"category", "name", "count", "wall(ms)", "sim(ms)"});
  for (std::size_t i = 0; i < n; ++i) {
    const TraceSpanStats& sp = s.spans[i];
    t.add_row({sp.category, sp.name, std::to_string(sp.count),
               util::fmt(sp.wall_ms, 3), util::fmt(sp.sim_ms, 3)});
  }
  return t.str();
}

std::string trace_spans_csv(const TraceSummary& s) {
  std::string out = "category,name,count,wall_ms,sim_ms\n";
  for (const TraceSpanStats& sp : s.spans) {
    out += sp.category;
    out += ',';
    out += sp.name;
    out += ',';
    out += std::to_string(sp.count);
    out += ',';
    out += util::format_double(sp.wall_ms);
    out += ',';
    out += util::format_double(sp.sim_ms);
    out += '\n';
  }
  return out;
}

}  // namespace voprof::tools
