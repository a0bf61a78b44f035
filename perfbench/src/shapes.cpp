#include "shapes.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "fedwcm/core/param_vector.hpp"
#include "fedwcm/core/rng.hpp"
#include "fedwcm/nn/conv.hpp"
#include "fedwcm/nn/linear.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = fedwcm::core;
namespace nn = fedwcm::nn;

std::string GemmOp::metric() const {
  return "core.gemm." + op + "." + std::to_string(m) + "x" + std::to_string(n) +
         "x" + std::to_string(k) + ".gflops";
}

namespace {

/// Conv2d lowers to per-sample GEMMs over its im2col matrix (nn/conv.cpp).
void conv_ops(std::size_t out_c, std::size_t patch, std::size_t opix,
              std::size_t batch, const std::string& layer,
              std::vector<GemmOp>& ops) {
  ops.push_back({"nn", out_c, opix, patch, false, true, batch, layer});
  ops.push_back({"nt", out_c, patch, opix, true, false, batch, layer});
  ops.push_back({"tn", patch, opix, out_c, false, false, batch, layer});
}

}  // namespace

std::vector<GemmOp> gemm_ops(const nn::Sequential& model, std::size_t batch) {
  std::vector<GemmOp> ops;
  const nn::Conv2d* last_conv = nullptr;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const nn::Layer& layer = model.layer(i);
    const std::string tag = std::to_string(i) + "." + layer.name();
    if (const auto* lin = dynamic_cast<const nn::Linear*>(&layer)) {
      const std::size_t in = lin->in_features(), out = lin->out_features();
      ops.push_back({"nn", batch, out, in, false, true, 1, tag});
      ops.push_back({"tn", in, out, batch, true, false, 1, tag});
      ops.push_back({"nt", batch, in, out, false, false, 1, tag});
    } else if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer)) {
      const std::size_t oc = conv->out_channels();
      conv_ops(oc, (conv->param_count() - oc) / oc,
               conv->out_height() * conv->out_width(), batch, tag, ops);
      last_conv = conv;
    } else if (layer.name() == "Residual" && last_conv != nullptr) {
      // nn::make_mini_convnet's residual body is Conv(k3,p1) -> ReLU ->
      // Conv(k3,p1) at the preceding conv's width; the body is private, so
      // rebuild it and confirm by parameter count.
      const std::size_t c = last_conv->out_channels();
      const nn::Conv2d body(c, last_conv->out_height(), last_conv->out_width(), c,
                            3, 1);
      if (layer.param_count() != 2 * body.param_count())
        throw std::runtime_error("gemm_ops: unrecognised residual body at " + tag);
      for (int j = 0; j < 2; ++j)
        conv_ops(c, (body.param_count() - c) / c,
                 body.out_height() * body.out_width(), batch, tag, ops);
    } else if (layer.param_count() != 0) {
      throw std::runtime_error("gemm_ops: no GEMM model for layer " + tag);
    }
  }
  return ops;
}

FlopPerSample flop_per_sample(const std::vector<GemmOp>& ops, std::size_t batch) {
  FlopPerSample f;
  for (const GemmOp& op : ops) {
    const double per_sample = op.flop() * double(op.calls_per_step) / double(batch);
    f.train += per_sample;
    if (op.forward) f.forward += per_sample;
  }
  return f;
}

namespace {

void fill(core::Matrix& m, core::Rng& rng) {
  for (float& v : m.span()) v = float(rng.uniform()) - 0.5f;
}

/// Median rate (units per second) of `fn`, which does `units` work per
/// call, over five blocks of about budget_s / 5 each.
double median_rate(const std::function<void()>& fn, double units, double budget_s) {
  const std::int64_t block_ns = std::int64_t(budget_s / 5.0 * 1e9);
  std::vector<double> rates;
  fn();  // Warm caches and lazily-sized buffers.
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      fn();
      ++calls;
      t1 = now_ns();
    } while (t1 - t0 < block_ns);
    rates.push_back(double(calls) * units / (double(t1 - t0) * 1e-9));
  }
  std::sort(rates.begin(), rates.end());
  return rates[2];
}

}  // namespace

double time_gemm(const GemmOp& op, double budget_s) {
  core::Rng rng(0x6E33 + op.m * 131 + op.n * 17 + op.k);
  core::Matrix a, b, out(op.m, op.n);
  if (op.op == "nn") {
    a = core::Matrix(op.m, op.k);
    b = core::Matrix(op.k, op.n);
  } else if (op.op == "tn") {
    a = core::Matrix(op.k, op.m);
    b = core::Matrix(op.k, op.n);
  } else {
    a = core::Matrix(op.m, op.k);
    b = core::Matrix(op.n, op.k);
  }
  fill(a, rng);
  fill(b, rng);
  const auto call = [&] {
    if (op.op == "nn")
      core::matmul(a, b, out, op.accumulate);
    else if (op.op == "tn")
      core::matmul_tn(a, b, out, op.accumulate);
    else
      core::matmul_nt(a, b, out, op.accumulate);
  };
  const double rate = median_rate(call, op.flop(), budget_s) * 1e-9;
  for (const float v : out.span())
    if (!std::isfinite(v))
      throw std::runtime_error("time_gemm: non-finite output for " + op.metric());
  return rate;
}

PvTimes time_pv(std::size_t params, std::size_t cohort, double budget_s) {
  core::Rng rng(0x9F11 + params);
  const auto random_vec = [&] {
    core::ParamVector v(params);
    for (float& x : v) x = float(rng.uniform()) - 0.5f;
    return v;
  };
  core::ParamVector x = random_vec(), y = random_vec(), out(params);
  std::vector<core::ParamVector> inputs;
  for (std::size_t i = 0; i < cohort; ++i) inputs.push_back(random_vec());
  std::vector<const core::ParamVector*> ptrs;
  for (const auto& v : inputs) ptrs.push_back(&v);
  const std::vector<float> weights(cohort, 1.0f / float(cohort));
  double sink = 0.0;

  const double share = budget_s / 4.0;
  const double n = double(params);
  PvTimes t;
  // y = 0.5 x + 0.5 y keeps y bounded however many times it runs.
  t.scale_add = 1e9 / median_rate([&] { core::pv::scale_add(0.5f, x, 0.5f, y); },
                                  n, share);
  t.blend_into = 1e9 / median_rate(
                           [&] { core::pv::blend_into(0.9f, x, 0.1f, y, out); },
                           n, share);
  t.weighted_sum = 1e9 / median_rate(
                             [&] { core::pv::weighted_sum(weights, ptrs, out); },
                             n * double(cohort), share);
  t.dot_norms = 1e9 / median_rate(
                          [&] { sink += core::pv::dot_norms(x, y).dot; }, n, share);
  if (!std::isfinite(sink) || !core::pv::all_finite(out) || !core::pv::all_finite(y))
    throw std::runtime_error("time_pv: non-finite kernel output");
  return t;
}

}  // namespace perfbench
