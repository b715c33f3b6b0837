// Observability layer: metric registry semantics, lock-free writer
// correctness under a real TaskPool fan-out (the TSan job runs this
// binary via `ctest -L concurrency`), the Chrome-trace exporter —
// whose output must round-trip through util::Json and carry the
// voprof-trace-1 schema the trace tooling validates — the collector's
// event cap, and the simulator events it receives on the sim clock.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/workloads/hogs.hpp"
#include "voprof/xensim/cluster.hpp"

namespace {

using namespace voprof;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// The events of a collector export named `name`, in buffer order.
std::vector<util::Json> events_named(const util::Json& doc,
                                     const std::string& name) {
  std::vector<util::Json> out;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() == name) out.push_back(e);
  }
  return out;
}

double trace_dropped(const util::Json& doc) {
  return doc.at("voprofMetrics").at("obs.trace_dropped").at("value")
      .as_number();
}

double span_end(const util::Json& e) {
  return e.at("ts").as_number() + e.at("dur").as_number();
}

TEST(Metrics, CounterCountsAndResets) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndHighWater) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(2.0);  // below the mark: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.set_max(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive upper bound)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  h.observe(std::nan(""));  // NaN is filed under overflow, not bucket 0
  const obs::Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 2u);
  EXPECT_EQ(s.count, 5u);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), util::ContractViolation);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), util::ContractViolation);
}

TEST(Metrics, RegistryDeduplicatesByName) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("test_obs.dedup");
  obs::Counter& b = reg.counter("test_obs.dedup");
  EXPECT_EQ(&a, &b);
  obs::Histogram& h1 = reg.histogram("test_obs.dedup_hist", {1.0, 2.0});
  obs::Histogram& h2 = reg.histogram("test_obs.dedup_hist", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);  // first registration wins
}

TEST(Metrics, SnapshotIsSortedAndTyped) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& reg = obs::Registry::global();
  reg.counter("test_obs.zz_counter").add(3);
  reg.gauge("test_obs.aa_gauge").set(1.5);
  const obs::Registry::Snapshot snap = reg.snapshot();
  ASSERT_GE(snap.entries.size(), 2u);
  for (std::size_t i = 1; i < snap.entries.size(); ++i) {
    EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);
  }
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const auto& e : snap.entries) {
    if (e.name == "test_obs.zz_counter") {
      saw_counter = true;
      EXPECT_EQ(e.kind, "counter");
      EXPECT_DOUBLE_EQ(e.value, 3.0);
    }
    if (e.name == "test_obs.aa_gauge") {
      saw_gauge = true;
      EXPECT_EQ(e.kind, "gauge");
      EXPECT_DOUBLE_EQ(e.value, 1.5);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(Metrics, CategoryIsDottedPrefix) {
  EXPECT_EQ(obs::metric_category("engine.events_fired"), "engine");
  EXPECT_EQ(obs::metric_category("nodot"), "nodot");
  EXPECT_EQ(obs::metric_category("a.b.c"), "a");
}

// The lock-free contract: concurrent writers through a TaskPool lose
// no increments and no observations once the pool has joined.
TEST(MetricsConcurrency, CountersExactUnderParallelWriters) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& counter = obs::Registry::global().counter("test_obs.par_counter");
  auto& gauge = obs::Registry::global().gauge("test_obs.par_gauge");
  auto& hist = obs::Registry::global().histogram("test_obs.par_hist",
                                                 {10.0, 100.0, 1000.0});
  counter.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  util::TaskPool pool(4);
  (void)pool.parallel_map(kTasks, [&](std::size_t task) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) {
      counter.add();
      gauge.set_max(static_cast<double>(task));
      hist.observe(static_cast<double>(i));
    }
    return 0;
  });
  EXPECT_EQ(counter.value(), kTasks * kPerTask);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTasks - 1));
  const obs::Histogram::Snapshot s = hist.snapshot();
  EXPECT_EQ(s.count, kTasks * kPerTask);
  // Sum of 0..999 per task, accumulated via the CAS loop.
  const double expected_sum =
      static_cast<double>(kTasks) * (kPerTask - 1) * kPerTask / 2.0;
  EXPECT_DOUBLE_EQ(s.sum, expected_sum);
}

// More writer threads than cells: some threads share a cell, and the
// total is still exact.
TEST(MetricsConcurrency, CounterExactWithMoreThreadsThanCells) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter counter;
  constexpr std::size_t kThreads = 3 * obs::detail::kCounterCells;
  constexpr std::uint64_t kPerTask = 500;
  util::TaskPool pool(kThreads);
  pool.parallel_for_each(kThreads, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) counter.add();
  });
  EXPECT_EQ(counter.value(), kThreads * kPerTask);
}

// The cells belong to the counter, not to the threads: counts made by
// workers that have since exited are kept.
TEST(MetricsConcurrency, CounterKeepsCountsOfExitedThreads) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter counter;
  {
    util::TaskPool pool(4);
    pool.parallel_for_each(16, [&](std::size_t task) { counter.add(task); });
  }
  EXPECT_EQ(counter.value(), 15u * 16u / 2u);
  counter.add(7);  // the main thread still adds on top
  EXPECT_EQ(counter.value(), 15u * 16u / 2u + 7u);
}

// reset() zeroes every cell, not just the calling thread's.
TEST(MetricsConcurrency, CounterResetZeroesEveryCell) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter counter;
  constexpr std::size_t kThreads = 2 * obs::detail::kCounterCells;
  util::TaskPool pool(kThreads);
  pool.parallel_for_each(kThreads, [&](std::size_t) { counter.add(3); });
  ASSERT_EQ(counter.value(), 3u * kThreads);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
  pool.parallel_for_each(kThreads, [&](std::size_t) { counter.add(); });
  EXPECT_EQ(counter.value(), kThreads);
}

TEST(Trace, DisabledCollectorRecordsNothing) {
  auto& col = obs::TraceCollector::global();
  col.disable();
  EXPECT_FALSE(col.enabled());
  col.complete_wall("cat", "name", 0, 10);
  { VOPROF_WALL_SPAN("cat", "span"); }
  EXPECT_EQ(col.size(), 0u);
}

TEST(Trace, ExportedJsonIsValidAndTagged) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_trace.json");
  col.enable(path);
  ASSERT_TRUE(col.enabled());
  col.complete_wall("testcat", "wall_span", 5, 10, {{"n", 1.0}});
  col.complete_sim("simcat", "sim_span", 100, 50, /*tid=*/3);
  col.instant_sim("simcat", "blip", 120, /*tid=*/3, {{"subject", "vm1"}});
  { VOPROF_WALL_SPAN("testcat", "scoped"); }
  EXPECT_EQ(col.size(), 4u);

  const std::string expected = col.to_json().dump(0) + "\n";
  ASSERT_TRUE(col.write_file());
  EXPECT_FALSE(col.enabled());  // flushing disables

  // The streamed file is byte for byte the in-memory document.
  const std::string text = slurp(path);
  EXPECT_EQ(text, expected);
  const util::Json doc = util::Json::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), obs::kTraceSchema);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // 2 process-name metadata + 4 recorded (+ a counter sample per
  // registry metric, 0 when this test runs with an empty registry).
  EXPECT_GE(events.size(), 6u);
  bool saw_wall = false;
  bool saw_sim = false;
  bool saw_instant = false;
  for (const util::Json& e : events) {
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") continue;
    const int pid = static_cast<int>(e.at("pid").as_number());
    EXPECT_TRUE(pid == obs::kWallPid || pid == obs::kSimPid);
    const std::string name = e.at("name").as_string();
    if (name == "wall_span") {
      saw_wall = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(pid, obs::kWallPid);
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 10.0);
      EXPECT_DOUBLE_EQ(e.at("args").at("n").as_number(), 1.0);
    }
    if (name == "sim_span") {
      saw_sim = true;
      EXPECT_EQ(pid, obs::kSimPid);
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 100.0);
    }
    if (name == "blip") {
      saw_instant = true;
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(e.at("args").at("subject").as_string(), "vm1");
    }
  }
  EXPECT_TRUE(saw_wall);
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_instant);
  // The full metrics snapshot rides along for `voprofctl trace`.
  EXPECT_TRUE(doc.at("voprofMetrics").is_object());
  std::remove(path.c_str());
}

TEST(TraceConcurrency, ParallelSpansAllArrive) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_trace_par.json");
  col.enable(path);
  constexpr std::size_t kTasks = 200;
  util::TaskPool pool(4);
  (void)pool.parallel_map(kTasks, [&](std::size_t) {
    VOPROF_WALL_SPAN("testcat", "par_span");
    return 0;
  });
  // TaskPool itself traces its jobs, so expect at least the explicit
  // spans; every recorded event must carry a valid thread id.
  EXPECT_GE(col.size(), kTasks);
  const util::Json doc = col.to_json();
  std::size_t spans = 0;
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    if (e.at("name").as_string() != "par_span") continue;
    ++spans;
    EXPECT_GE(e.at("tid").as_number(), 1.0);
  }
  EXPECT_EQ(spans, kTasks);
  col.disable();  // drop the buffer; nothing written to disk
  std::remove(path.c_str());
}

TEST(Trace, WallClockIsMonotonic) {
  const std::int64_t a = obs::wall_clock_us();
  const std::int64_t b = obs::wall_clock_us();
  if constexpr (obs::kObsCompiled) {
    EXPECT_GE(b, a);
  } else {
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 0);
  }
}

TEST(TraceConcurrency, CapDropsAndCountsOverflow) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  const std::string path = temp_path("test_obs_trace_cap.json");
  col.enable(path);
  constexpr std::size_t kTasks = 4;
  constexpr std::size_t kOver = 100;
  // Each task also leaves one taskpool span, so the pool records
  // exactly kTraceEventCap + kOver events.
  constexpr std::size_t kPerTask = (obs::kTraceEventCap + kOver) / kTasks - 1;
  static_assert(kTasks * (kPerTask + 1) == obs::kTraceEventCap + kOver);
  {
    // Leaving the scope joins the workers: a worker records its task
    // span after the task's future is ready.
    util::TaskPool pool(kTasks);
    pool.parallel_for_each(kTasks, [&](std::size_t) {
      for (std::size_t i = 0; i < kPerTask; ++i) {
        col.complete_wall("t", "s", 0, 1);
      }
    });
  }
  EXPECT_EQ(col.size(), obs::kTraceEventCap);
  EXPECT_EQ(obs::Registry::global().counter("obs.trace_dropped").value(),
            kOver);

  ASSERT_TRUE(col.write_file());
  // Read the count back from the file's voprofMetrics without parsing
  // a quarter-million events.
  const std::string text = slurp(path);
  const std::size_t at = text.rfind("\"obs.trace_dropped\":{");
  ASSERT_NE(at, std::string::npos);
  const std::size_t open = text.find('{', at);
  const util::Json dropped =
      util::Json::parse(text.substr(open, text.find('}', open) - open + 1));
  EXPECT_EQ(dropped.at("value").as_number(), static_cast<double>(kOver));
  std::remove(path.c_str());

  // Enabling again starts a fresh, empty trace.
  col.enable(path);
  EXPECT_EQ(obs::Registry::global().counter("obs.trace_dropped").value(), 0u);
  col.disable();
}

TEST(SimTracing, LifecycleInstantsAndContentionEpisode) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  col.enable(temp_path("test_obs_sim_lifecycle.json"));
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 3);
    sim::PhysicalMachine& pm = cluster.add_machine(sim::MachineSpec{});
    for (int i = 0; i < 3; ++i) {
      sim::VmSpec spec;
      spec.name = "vm" + std::to_string(i);
      pm.add_vm(spec).attach(std::make_unique<wl::CpuHog>(
          100.0, 5 + static_cast<std::uint64_t>(i)));
    }
    // 3 x 100 % on the 190 % pool: contention on every tick.
    engine.run_for(util::seconds(1));
    pm.remove_vm("vm0");
  }  // teardown closes the still-open contention episode
  const util::Json doc = col.to_json();
  col.disable();

  const auto created = events_named(doc, "vm-created");
  ASSERT_EQ(created.size(), 3u);
  for (std::size_t i = 0; i < created.size(); ++i) {
    EXPECT_EQ(created[i].at("cat").as_string(), "vm");
    EXPECT_EQ(created[i].at("ph").as_string(), "i");
    EXPECT_EQ(created[i].at("pid").as_number(), obs::kSimPid);
    EXPECT_EQ(created[i].at("tid").as_number(), 0.0);
    EXPECT_EQ(created[i].at("args").at("subject").as_string(),
              "vm" + std::to_string(i));
  }
  const auto removed = events_named(doc, "vm-removed");
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].at("args").at("subject").as_string(), "vm0");
  EXPECT_EQ(removed[0].at("ts").as_number(), 1e6);

  const auto contention = events_named(doc, "contention");
  ASSERT_EQ(contention.size(), 1u);
  EXPECT_EQ(contention[0].at("cat").as_string(), "scheduler");
  EXPECT_EQ(contention[0].at("ph").as_string(), "X");
  EXPECT_EQ(contention[0].at("pid").as_number(), obs::kSimPid);
  EXPECT_EQ(span_end(contention[0]), 1e6);
  // About 300 - 190 = 110 % unmet for one second.
  EXPECT_NEAR(contention[0].at("args").at("unmet_cpu_pct_s").as_number(),
              110.0, 11.0);
  EXPECT_TRUE(events_named(doc, "sched-contention").empty());
}

TEST(SimTracing, MigrationInstantsCarrySubject) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  auto& col = obs::TraceCollector::global();
  col.enable(temp_path("test_obs_sim_migration.json"));
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 7);
    sim::PhysicalMachine& pm0 = cluster.add_machine(sim::MachineSpec{});
    cluster.add_machine(sim::MachineSpec{});
    sim::VmSpec spec;
    spec.name = "vm1";
    pm0.add_vm(spec);
    (void)cluster.migration().start("vm1", 0, 1);
    engine.run_for(util::seconds(30));
  }
  const util::Json doc = col.to_json();
  col.disable();

  const auto started = events_named(doc, "migration-started");
  const auto finished = events_named(doc, "migration-finished");
  ASSERT_EQ(started.size(), 1u);
  ASSERT_EQ(finished.size(), 1u);
  EXPECT_EQ(started[0].at("cat").as_string(), "migration");
  EXPECT_EQ(finished[0].at("cat").as_string(), "migration");
  EXPECT_EQ(started[0].at("args").at("subject").as_string(), "vm1");
  EXPECT_EQ(finished[0].at("args").at("subject").as_string(), "vm1");
  EXPECT_EQ(started[0].at("tid").as_number(), 0.0);   // source PM
  EXPECT_EQ(finished[0].at("tid").as_number(), 1.0);  // destination PM
  EXPECT_GT(started[0].at("args").at("value").as_number(), 0.0);
  EXPECT_EQ(finished[0].at("args").at("value").as_number(),
            started[0].at("args").at("value").as_number());
  EXPECT_LT(started[0].at("ts").as_number(), finished[0].at("ts").as_number());
}

TEST(SimTracing, DiskThrottleEpisode) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  obs::Counter& throttle_ticks =
      obs::Registry::global().counter("machine.disk_throttle_ticks");
  const std::uint64_t ticks_before = throttle_ticks.value();
  auto& col = obs::TraceCollector::global();
  col.enable(temp_path("test_obs_sim_throttle.json"));
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 11);
    sim::MachineSpec tiny;
    tiny.disk_blocks_per_s = 100.0;
    sim::PhysicalMachine& pm = cluster.add_machine(tiny);
    sim::VmSpec spec;
    spec.name = "vm1";
    pm.add_vm(spec).attach(std::make_unique<wl::IoHog>(80.0, 13));
    engine.run_for(util::seconds(5));
  }
  const util::Json doc = col.to_json();
  col.disable();

  const std::uint64_t ticks = throttle_ticks.value() - ticks_before;
  EXPECT_GE(ticks, 10u);
  const auto spans = events_named(doc, "disk-throttled");
  ASSERT_GE(spans.size(), 1u);
  EXPECT_LE(spans.size(), ticks);  // an episode spans at least one tick
  for (const util::Json& e : spans) {
    EXPECT_EQ(e.at("cat").as_string(), "device");
    EXPECT_EQ(e.at("ph").as_string(), "X");
    EXPECT_EQ(e.at("pid").as_number(), obs::kSimPid);
    EXPECT_GT(e.at("args").at("throttled_blocks").as_number(), 0.0);
  }
}

TEST(SimTracing, DisabledCollectorUntouched) {
  auto& col = obs::TraceCollector::global();
  col.disable();
  sim::Engine engine;
  auto cluster = std::make_unique<sim::Cluster>(engine, sim::CostModel{}, 13);
  sim::PhysicalMachine& pm = cluster->add_machine(sim::MachineSpec{});
  cluster->add_machine(sim::MachineSpec{});
  for (int i = 0; i < 3; ++i) {
    sim::VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    pm.add_vm(spec).attach(std::make_unique<wl::CpuHog>(100.0));
  }
  (void)cluster->migration().start("vm0", 0, 1);
  engine.run_for(util::seconds(1));
  // The contention episode opened while tracing was off: it stays
  // untraced even though the collector is on when it closes.
  col.enable(temp_path("test_obs_sim_disabled.json"));
  cluster.reset();
  EXPECT_EQ(col.size(), 0u);
  col.disable();
}

TEST(SimTracing, ContendedScenarioTraceIsCompleteAndBounded) {
  if constexpr (!obs::kObsCompiled) {
    GTEST_SKIP() << "observability compiled out (VOPROF_OBS=OFF)";
  }

  // Three VMs at 99 % CPU on one PM: contended on every one of the
  // 6,500 ticks, more than any per-tick event ring would keep.
  scenario::ScenarioSpec spec;
  spec.warmup_s = 5.0;
  spec.duration_s = 60.0;
  for (int i = 1; i <= 3; ++i) {
    scenario::ScenarioSpec::VmEntry vm;
    vm.name = "vm" + std::to_string(i);
    vm.cpu_pct = 99.0;
    spec.vms.push_back(vm);
  }
  spec.monitored_machines.push_back(0);
  auto& col = obs::TraceCollector::global();
  col.enable(temp_path("test_obs_sim_contended.json"));
  (void)scenario::run_scenario(spec);
  const util::Json doc = col.to_json();
  col.disable();

  EXPECT_EQ(events_named(doc, "vm-created").size(), 3u);
  std::vector<util::Json> episodes;
  for (const util::Json& e : events_named(doc, "contention")) {
    if (e.at("cat").as_string() == "scheduler" &&
        e.at("ph").as_string() == "X" &&
        e.at("pid").as_number() == obs::kSimPid) {
      episodes.push_back(e);
    }
  }
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_LE(episodes[0].at("ts").as_number(), 1e6);
  EXPECT_EQ(span_end(episodes[0]), 65e6);
  EXPECT_TRUE(events_named(doc, "sched-contention").empty());
  EXPECT_EQ(trace_dropped(doc), 0.0);
}

}  // namespace
