/// fedwcm_perfbench — one benchmark measurement per process.
///
///   fedwcm_perfbench run --workload NAME --seed N [--threads T]
///                        [--telemetry 0|1] [--trace FILE]
///       Runs the workload once and prints its result as one JSON line.
///       --trace records spans and writes them to FILE as a Chrome trace.
///   fedwcm_perfbench kernels --workload NAME --seconds S
///       Times the workload's GEMM shapes and pv:: kernels.
///
/// Exit codes: 0 ok (the JSON lists any failed output check), 1 runtime
/// error, 2 usage error. perfbench/run.py is the user-facing entry point.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workload.hpp"

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "fedwcm_perfbench: " << error << "\n"
            << "usage: fedwcm_perfbench run --workload NAME --seed N [--threads T]"
               " [--telemetry 0|1] [--trace FILE]\n"
            << "       fedwcm_perfbench kernels --workload NAME --seconds S\n"
            << "workloads: " << perfbench::workload_names() << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-')
    usage("invalid value '" + text + "' for " + flag);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  if (command != "run" && command != "kernels") usage("unknown command " + command);
  perfbench::RunOptions options;
  double seconds = 0.0;
  bool have_seed = false;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_uint(flag, value);
      have_seed = true;
    } else if (flag == "--threads") {
      options.threads = parse_uint(flag, value);
    } else if (flag == "--telemetry") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage("--telemetry must be 0 or 1");
      options.telemetry = int(t);
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--seconds") {
      seconds = double(parse_uint(flag, value));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  try {
    if (command == "run") {
      if (!have_seed) usage("--seed is required");
      std::cout << perfbench::run_workload(options) << std::endl;
    } else {
      if (seconds <= 0.0) usage("--seconds must be positive");
      std::cout << perfbench::run_kernels(options.workload, seconds) << std::endl;
    }
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "fedwcm_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
