// lpa_perfbench: runs one benchmark workload and prints its report as one
// JSON line on standard output (see perfbench/README.md).
//
//   lpa_perfbench --workload offline-tpcch|online-tpcch|serve-tpcch
//                 --seed N --seconds S --trace 0|1 [--out-dir DIR]

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench/common.h"
#include "telemetry/registry.h"

namespace perfbench {
namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload offline-tpcch|online-tpcch|serve-tpcch"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

bool Parse(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!Parse(argc, argv, &options)) return Usage(argv[0]);
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "offline-tpcch") run = RunOffline;
  if (options.workload == "online-tpcch") run = RunOnline;
  if (options.workload == "serve-tpcch") run = RunServe;
  if (run == nullptr) return Usage(argv[0]);

  Report report;
  auto manifest = lpa::telemetry::RunManifest::Make("lpa_perfbench");
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("seconds", std::to_string(options.seconds));
  report.Note("trace", options.trace ? "1" : "0");
  report.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Note("build_type", LPA_PERFBENCH_BUILD_TYPE);
  // Figures from a build without optimization must not be compared.
  report.Note("comparable", kOptimized ? "1" : "0");
  report.Note("compiler", std::string("g++ ") + __VERSION__);
  report.Note("git_describe", manifest.git_describe);
  report.Note("schema", "tpcch");
  report.Note("engine_profile", "disk-based (Postgres-XL-like)");
  report.Note("eval_context_threads", std::to_string(kPoolThreads));
  report.Note("server_workers", std::to_string(kServerWorkers));
  report.Note("tmax", std::to_string(kTmax));
  report.Note("setups", std::to_string(kSetups));
  run(options, &report);
  std::cout << report.ToJson() << std::endl;
  return 0;
}
