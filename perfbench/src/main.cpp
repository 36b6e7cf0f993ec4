// wtr_perfbench: one measured iteration of one benchmark workload.
//
//   wtr_perfbench --workload NAME --seed N --work-dir DIR
//                 [--traced] [--spans FILE] [--smoke]
//
// Prints one JSON object (see workloads.hpp: IterationResult) on stdout and
// exits 0 when every in-run check passed, 1 when one failed, 2 on bad usage
// or an error. run.py drives it, one fresh process per iteration.

#include <cerrno>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& problem) {
  std::cerr << "wtr_perfbench: " << problem
            << "\nusage: wtr_perfbench --workload NAME --seed N --work-dir DIR"
               " [--traced] [--spans FILE] [--smoke]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::IterationOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      const unsigned long long seed = std::strtoull(text, &end, 10);
      if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
        return usage(std::string("invalid --seed ") + text);
      }
      options.seed = seed;
      have_seed = true;
    } else {
      return usage("unexpected argument " + arg);
    }
  }
  if (options.workload.empty()) return usage("--workload is required");
  if (!have_seed) return usage("--seed is required");
  if (options.work_dir.empty()) return usage("--work-dir is required");

  try {
    const auto result = perfbench::run_iteration(options);
    std::cout << perfbench::to_json(result) << std::endl;
    for (const auto& failure : result.failures) {
      std::cerr << "wtr_perfbench: check failed: " << failure << "\n";
    }
    return result.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "wtr_perfbench: " << e.what() << "\n";
    return 2;
  }
}
