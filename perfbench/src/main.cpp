/// \file main.cpp
/// vopbench: runs one benchmark workload and prints its report; the last
/// line of stdout is the JSON result. perfbench/run.py builds this
/// binary and runs it from the checkout's root:
///
///   vopbench --workload NAME --seed N --seconds S --trace 0|1
///            --root CHECKOUT --voprofd PATH --work-dir DIR

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "voprof/util/cli.hpp"

namespace {

using perfbench::Report;

bool listed(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

void print_report(const Report& report, bool traced) {
  const auto& e2e = perfbench::end_to_end_names();
  const auto& layers = perfbench::per_layer_names();
  std::cout << "end-to-end (BENCHMARK.json):\n";
  for (const std::string& name : e2e) {
    if (const perfbench::Metric* m = report.find(name)) {
      perfbench::print_metric(std::cout, *m);
    }
  }
  std::cout << "workload figures:\n";
  for (const perfbench::Metric& m : report.metrics()) {
    if (!listed(e2e, m.name) && !listed(layers, m.name)) {
      perfbench::print_metric(std::cout, m);
    }
  }
  if (!traced) return;
  std::cout << "per-layer (traced run):\n";
  std::string layer;
  for (const std::string& name : layers) {
    const std::string prefix = name.substr(0, name.find('.'));
    if (prefix != layer) {
      layer = prefix;
      std::cout << " [" << layer << "]\n";
    }
    if (const perfbench::Metric* m = report.find(name)) {
      perfbench::print_metric(std::cout, *m);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace perfbench;
  try {
    const voprof::util::CliArgs args = voprof::util::CliArgs::parse(argc, argv);
    for (const std::string& flag : args.flag_names()) {
      if (flag != "workload" && flag != "seed" && flag != "seconds" &&
          flag != "trace" && flag != "root" && flag != "voprofd" &&
          flag != "work-dir" && flag != "setup-probe") {
        throw std::invalid_argument("unknown flag --" + flag);
      }
    }
    if (!args.command().empty()) {
      throw std::invalid_argument("unexpected argument " + args.command());
    }
    BenchOptions opt;
    opt.workload = args.get("workload");
    opt.seed = std::stoull(args.get("seed"));
    opt.seconds = args.get_double("seconds", 15.0);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.root = fs::absolute(args.get("root")).lexically_normal().string();
    if (opt.root.size() > 1 && opt.root.back() == '/') opt.root.pop_back();
    opt.self = fs::read_symlink("/proc/self/exe").string();
    opt.nproc = available_cpus();
    if (args.get_int("setup-probe", 0) != 0) {
      return offline_setup_probe(opt);
    }
    opt.voprofd = fs::absolute(args.get("voprofd")).string();
    if (!(opt.seconds >= 1.0)) {
      throw std::invalid_argument("--seconds must be at least 1");
    }
    // The daemon's socket and files live in the work directory; running
    // there also keeps the socket path short.
    const fs::path work = fs::absolute(args.get("work-dir"));
    fs::create_directories(work);
    fs::current_path(work);

    RunResult result;
    if (opt.workload == "predict_open") {
      result = run_predict_open(opt);
    } else if (opt.workload == "mixed_serve") {
      result = run_mixed_serve(opt);
    } else if (opt.workload == "offline_pipeline") {
      result = run_offline_pipeline(opt);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }

    const std::vector<std::string>& names =
        opt.trace ? per_layer_names() : end_to_end_names();
    for (const std::string& name : missing_metrics(result.report, names)) {
      result.notes.push_back("MISSING metric " + name);
    }
    if (dropped_spans() > 0) {
      result.notes.push_back(std::to_string(dropped_spans()) +
                             " spans could not be recorded");
    }
    std::cout << "== " << opt.workload << "  seed=" << opt.seed
              << "  seconds=" << opt.seconds << "  trace=" << opt.trace
              << "  nproc=" << opt.nproc << '\n';
    print_report(result.report, opt.trace);
    for (const std::string& note : result.notes) {
      std::cout << "note: " << note << '\n';
    }
    const bool correct =
        result.correct && missing_metrics(result.report, names).empty();
    std::cout << result_line(result.report, names, correct, result.attempted,
                             result.failed)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "vopbench: " << e.what() << '\n';
    return 1;
  }
}
