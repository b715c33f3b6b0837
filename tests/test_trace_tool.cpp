// `voprofctl trace` digestion (tools/trace_cmd): aggregation of a
// collector-produced document, schema rejection of foreign JSON, and
// the rendered summary/top/export forms.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "trace_cmd.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/json.hpp"

namespace {

using namespace voprof;

/// A small but representative document straight from the collector:
/// wall + sim spans, an instant, and the metrics snapshot.
util::Json sample_doc() {
  auto& col = obs::TraceCollector::global();
  col.disable();
  col.enable("unused_trace_tool.json");
  col.complete_wall("runner", "SweepRunner.map", 0, 4000);
  col.complete_wall("runner", "SweepRunner.map", 5000, 2000);
  col.complete_wall("taskpool", "task", 100, 1500);
  col.complete_sim("scheduler", "contention", 0, 250000, /*tid=*/0);
  col.instant_sim("vm", "vm-created", 10, /*tid=*/0, {{"subject", "vm1"}});
  util::Json doc = col.to_json();
  col.disable();
  return doc;
}

TEST(TraceTool, SummarizesPerCategory) {
  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  EXPECT_EQ(s.schema, obs::kTraceSchema);
  EXPECT_GE(s.total_events, 5);

  bool saw_runner = false;
  bool saw_scheduler = false;
  bool saw_vm = false;
  for (const tools::TraceCategoryStats& c : s.categories) {
    if (c.category == "runner") {
      saw_runner = true;
      EXPECT_EQ(c.spans, 2);
      EXPECT_DOUBLE_EQ(c.wall_ms, 6.0);
      EXPECT_DOUBLE_EQ(c.sim_ms, 0.0);
    }
    if (c.category == "scheduler") {
      saw_scheduler = true;
      EXPECT_EQ(c.spans, 1);
      EXPECT_DOUBLE_EQ(c.sim_ms, 250.0);
    }
    if (c.category == "vm") {
      saw_vm = true;
      EXPECT_EQ(c.instants, 1);
    }
  }
  EXPECT_TRUE(saw_runner);
  EXPECT_TRUE(saw_scheduler);
  EXPECT_TRUE(saw_vm);
}

TEST(TraceTool, SpansSortedBusiestFirst) {
  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  ASSERT_GE(s.spans.size(), 3u);
  for (std::size_t i = 1; i < s.spans.size(); ++i) {
    EXPECT_GE(s.spans[i - 1].wall_ms + s.spans[i - 1].sim_ms,
              s.spans[i].wall_ms + s.spans[i].sim_ms);
  }
  // The merged SweepRunner.map aggregate: two occurrences, 6 ms total.
  EXPECT_EQ(s.spans[1].name, "SweepRunner.map");
  EXPECT_EQ(s.spans[1].count, 2);
  EXPECT_DOUBLE_EQ(s.spans[1].wall_ms, 6.0);
}

TEST(TraceTool, RejectsForeignDocuments) {
  EXPECT_THROW((void)tools::summarize_trace(util::Json::parse("[1,2]")),
               util::ContractViolation);
  EXPECT_THROW((void)tools::summarize_trace(util::Json::parse("{}")),
               util::ContractViolation);
  EXPECT_THROW((void)tools::summarize_trace(
                   util::Json::parse(R"({"schema":"other-schema-9"})")),
               util::ContractViolation);
}

TEST(TraceTool, SummaryAndTopRender) {
  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  const std::string table = tools::format_trace_summary(s);
  EXPECT_NE(table.find("runner"), std::string::npos);
  EXPECT_NE(table.find("scheduler"), std::string::npos);
  EXPECT_NE(table.find("wall(ms)"), std::string::npos);

  const std::string top1 = tools::format_trace_top(s, 1);
  EXPECT_NE(top1.find("top 1 spans"), std::string::npos);
  // Only the busiest span appears.
  EXPECT_EQ(top1.find("vm-created"), std::string::npos);
  const std::string all = tools::format_trace_top(s, 0);
  EXPECT_NE(all.find("SweepRunner.map"), std::string::npos);
}

TEST(TraceTool, SummaryReportsDroppedEvents) {
  const tools::TraceSummary s = tools::summarize_trace(util::Json::parse(
      R"({"schema":"voprof-trace-1","traceEvents":[],"voprofMetrics":)"
      R"({"obs.trace_dropped":{"kind":"counter","value":7}}})"));
  EXPECT_EQ(s.dropped, 7.0);
  EXPECT_NE(tools::format_trace_summary(s).find("7 dropped"),
            std::string::npos);
}

TEST(TraceTool, ExportCsvHasHeaderAndAllSpanRows) {
  const tools::TraceSummary s = tools::summarize_trace(sample_doc());
  const std::string csv = tools::trace_spans_csv(s);
  EXPECT_EQ(csv.rfind("category,name,count,wall_ms,sim_ms\n", 0), 0u);
  EXPECT_NE(csv.find("runner,SweepRunner.map,2,"), std::string::npos);
  EXPECT_NE(csv.find("scheduler,contention,1,"), std::string::npos);
}

TEST(TraceTool, LoadsFromFile) {
  const std::string path = ::testing::TempDir() + "test_trace_tool.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << sample_doc().dump(0) << '\n';
  }
  const tools::TraceSummary s = tools::summarize_trace_file(path);
  EXPECT_EQ(s.schema, obs::kTraceSchema);
  EXPECT_FALSE(s.categories.empty());
  std::remove(path.c_str());
  EXPECT_THROW((void)tools::summarize_trace_file(path),
               util::ContractViolation);
}

}  // namespace
