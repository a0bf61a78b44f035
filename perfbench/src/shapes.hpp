#pragma once
/// \file shapes.hpp
/// Shape-tagged GEMM descriptors derived from a model's layer list, and the
/// kernel micro-benchmarks that time `core::` GEMM and `pv::` ops at the
/// shapes and sizes a workload actually issues.

#include <cstddef>
#include <string>
#include <vector>

#include "fedwcm/nn/sequential.hpp"

namespace perfbench {

/// One GEMM a layer issues per training step: everything needed to name,
/// count and replay it. `op` is the core:: entry point — "nn" = matmul
/// (A[m,k]·B[k,n]), "tn" = matmul_tn (A[k,m]ᵀ·B[k,n]), "nt" = matmul_nt
/// (A[m,k]·B[n,k]ᵀ); every operand is row-major fp32.
struct GemmOp {
  std::string op;
  std::size_t m = 0, n = 0, k = 0;
  bool accumulate = false;     ///< Weight gradients accumulate into out.
  bool forward = false;        ///< Issued by forward (also at evaluation).
  std::size_t calls_per_step = 1;  ///< Conv layers issue one per sample.
  std::string layer;           ///< "<index>.<Layer>" of the issuing layer.
  const char* layout = "row-major";
  const char* precision = "fp32";

  double flop() const { return 2.0 * double(m) * double(n) * double(k); }
  /// "core.gemm.<op>.<m>x<n>x<k>.gflops".
  std::string metric() const;
};

/// The GEMMs one training step of `model` issues at batch size `batch`,
/// in layer order (forward, weight gradient, input gradient per layer).
/// Throws for a parameterized layer whose GEMMs it cannot derive.
std::vector<GemmOp> gemm_ops(const fedwcm::nn::Sequential& model,
                             std::size_t batch);

/// Forward and forward+backward GEMM FLOP per sample for `ops`.
struct FlopPerSample {
  double forward = 0.0;
  double train = 0.0;
};
FlopPerSample flop_per_sample(const std::vector<GemmOp>& ops, std::size_t batch);

/// GFLOP/s of `op` replayed on random operands for about `budget_s`
/// (median over five timed blocks).
double time_gemm(const GemmOp& op, double budget_s);

/// ns per element of the four fused ParamVector kernels at `params`
/// elements; weighted_sum folds `cohort` inputs and is per input element.
struct PvTimes {
  double scale_add = 0.0;
  double blend_into = 0.0;
  double weighted_sum = 0.0;
  double dot_norms = 0.0;
};
PvTimes time_pv(std::size_t params, std::size_t cohort, double budget_s);

}  // namespace perfbench
