#pragma once
/// \file workload.hpp
/// The benchmark's named workloads and the single-run entry point.
///
/// One process runs one workload once: setup (data, partition, Simulation,
/// Algorithm::initialize) then every round of FedWCM (Algorithm 1), and
/// prints one JSON object with the run's end-to-end figures, the output
/// checks it failed (none on a correct run) and — traced — the per-module
/// figures derived from the span trace. perfbench/run.py repeats runs and
/// takes medians.

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< 0 = min(4, nproc).
  int telemetry = -1;       ///< -1 = the workload's own setting, else 0/1.
  /// Non-empty: traced run. Spans are recorded and written here as a Chrome
  /// trace, which must pass obs::validate_chrome_trace before any
  /// per-module figure is derived from it.
  std::string trace_path;
};

/// Runs one workload; returns the result as one line of JSON.
std::string run_workload(const RunOptions& options);

/// Times the workload's GEMM shapes and pv:: kernels for about `budget_s`;
/// returns one line of JSON.
std::string run_kernels(const std::string& workload, double budget_s);

/// Names of every workload, space-separated (for --help and errors).
std::string workload_names();

}  // namespace perfbench
