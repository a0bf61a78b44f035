#pragma once
/// \file timed.hpp
/// Read-only timing wrappers around the program's extension points.
///
/// Each wrapper forwards every virtual of the interface it implements to the
/// wrapped object unchanged, so a run with wrappers is bitwise identical to
/// one without (the benchmark checks this). With a null SpanRecorder only the
/// round and setup boundaries are stamped — the end-to-end pass; with one,
/// every forwarded call becomes a span — the traced pass.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fedwcm/fl/algorithm.hpp"
#include "fedwcm/fl/observer.hpp"
#include "fedwcm/nn/layer.hpp"
#include "fedwcm/obs/resource.hpp"
#include "spans.hpp"

namespace perfbench {

/// One round as the wrappers saw it.
struct RoundMarks {
  std::int64_t start_ns = 0;  ///< Algorithm::begin_round.
  std::int64_t end_ns = 0;    ///< RoundObserver::on_round_end.
  std::size_t cohort = 0;     ///< Clients sampled.
  /// Drops and straggles fl::decide_fault predicts for the cohort.
  std::size_t expect_dropped = 0, expect_straggled = 0;
  /// The RoundRecord's accounting, copied at on_round_end.
  std::uint64_t bytes_up = 0, bytes_down = 0;
  std::size_t dropped = 0, rejected = 0, straggled = 0;
  bool evaluated = false;
};

/// Boundary timestamps and per-round accounting of one workload run.
/// Written on the engine thread (the one running Simulation::run), except
/// `local_steps`. Nothing here
/// allocates once `rounds` is reserved, so the wrappers do not disturb the
/// allocation counts of an untraced run.
struct RunMarks {
  std::int64_t start_ns = 0;      ///< Before data::generate.
  std::int64_t setup_end_ns = 0;  ///< RoundObserver::on_run_begin.
  std::int64_t end_ns = 0;        ///< RoundObserver::on_run_end.
  double setup_peak_rss_kb = 0.0;  ///< VmHWM at on_run_begin.
  std::vector<RoundMarks> rounds;
  /// obs::alloc_counters() at the first begin_round and the last
  /// on_round_end (zeros unless the counting allocator is linked).
  fedwcm::obs::AllocCounters allocs_start, allocs_end;
  std::uint64_t accepted = 0;  ///< Uploads handed to aggregate / stream_fold.
  std::atomic<std::uint64_t> local_steps{0};  ///< Σ LocalResult::num_steps.
};

/// Wraps one top-level layer; spans are "nn.<index>.<Layer>.fwd" / ".bwd".
class TimedLayer final : public fedwcm::nn::Layer {
 public:
  TimedLayer(std::unique_ptr<fedwcm::nn::Layer> inner, std::size_t index,
             SpanRecorder* rec);

  void forward(const fedwcm::nn::Matrix& in, fedwcm::nn::Matrix& out) override;
  void backward(const fedwcm::nn::Matrix& grad_out,
                fedwcm::nn::Matrix& grad_in) override;
  void set_workspace(fedwcm::nn::Workspace* ws) override;
  std::size_t param_count() const override { return inner_->param_count(); }
  void copy_params_to(std::span<float> dst) const override {
    inner_->copy_params_to(dst);
  }
  void set_params(std::span<const float> src) override { inner_->set_params(src); }
  void copy_grads_to(std::span<float> dst) const override {
    inner_->copy_grads_to(dst);
  }
  void zero_grads() override { inner_->zero_grads(); }
  void init_params(fedwcm::core::Rng& rng) override { inner_->init_params(rng); }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<fedwcm::nn::Layer> clone() const override;
  std::size_t output_features(std::size_t input_features) const override {
    return inner_->output_features(input_features);
  }

 private:
  std::unique_ptr<fedwcm::nn::Layer> inner_;
  std::size_t index_;
  SpanRecorder* rec_;
  const char* fwd_name_;
  const char* bwd_name_;
};

/// Model factory whose models have every top-level layer wrapped in a
/// TimedLayer (same layer order, so the flat parameter layout is unchanged).
fedwcm::nn::ModelFactory timed_factory(fedwcm::nn::ModelFactory base,
                                       SpanRecorder* rec);

class TimedAlgorithm final : public fedwcm::fl::Algorithm {
 public:
  /// `eval_every`/`rounds` mirror the config so the evaluation span can be
  /// opened when aggregation ends on a round that will evaluate.
  TimedAlgorithm(std::unique_ptr<fedwcm::fl::Algorithm> inner, RunMarks& marks,
                 SpanRecorder* rec, std::size_t eval_every, std::size_t rounds);

  std::string name() const override { return inner_->name(); }
  void initialize(const fedwcm::fl::FlContext& ctx) override;
  void begin_round(std::size_t round, std::span<const std::size_t> sampled) override;
  fedwcm::fl::LocalResult local_update(std::size_t client,
                                       const fedwcm::fl::ParamVector& global,
                                       std::size_t round,
                                       fedwcm::fl::Worker& worker) override;
  void aggregate(std::span<const fedwcm::fl::LocalResult> results,
                 std::size_t round, fedwcm::fl::ParamVector& global) override;
  bool supports_streaming() const override { return inner_->supports_streaming(); }
  void stream_begin(std::size_t round, std::span<const std::size_t> sampled) override;
  void stream_fold(const fedwcm::fl::LocalResult& r) override;
  void stream_end(std::size_t round, fedwcm::fl::ParamVector& global) override;
  float current_alpha() const override { return inner_->current_alpha(); }
  float momentum_norm() const override { return inner_->momentum_norm(); }
  const fedwcm::fl::ParamVector* momentum_vector() const override {
    return inner_->momentum_vector();
  }
  std::size_t broadcast_floats() const override { return inner_->broadcast_floats(); }
  void save_state(fedwcm::core::BinaryWriter& writer) const override {
    inner_->save_state(writer);
  }
  void load_state(fedwcm::core::BinaryReader& reader) override {
    inner_->load_state(reader);
  }

 private:
  void after_aggregate(std::size_t round);

  std::unique_ptr<fedwcm::fl::Algorithm> inner_;
  RunMarks& marks_;
  SpanRecorder* rec_;
  std::size_t eval_every_;
  std::size_t rounds_;
};

/// Forwarding RoundObserver around an optional inner observer (the
/// DiagnosticsObserver when telemetry is on). Its own marks delimit setup,
/// rounds and — traced — the train phase and evaluation; each forwarded
/// call is an "obs.diag" span.
class TimedObserver final : public fedwcm::fl::RoundObserver {
 public:
  TimedObserver(std::shared_ptr<fedwcm::fl::RoundObserver> inner, RunMarks& marks,
                SpanRecorder* rec);

  void on_run_begin(const fedwcm::fl::FlContext& ctx,
                    const std::string& algorithm) override;
  void on_round_begin(std::size_t round,
                      std::span<const std::size_t> sampled) override;
  void on_aggregate(std::size_t round, const fedwcm::fl::Algorithm& algorithm,
                    std::span<const fedwcm::fl::LocalResult> accepted,
                    const fedwcm::fl::ParamVector& global,
                    fedwcm::fl::RoundRecord& rec) override;
  void on_evaluate(fedwcm::nn::Sequential& model, const fedwcm::fl::FlContext& ctx,
                   fedwcm::fl::RoundRecord& rec) override;
  void on_round_end(const fedwcm::fl::RoundRecord& rec) override;
  void on_run_end(const fedwcm::fl::SimulationResult& result) override;

 private:
  std::shared_ptr<fedwcm::fl::RoundObserver> inner_;
  RunMarks& marks_;
  SpanRecorder* rec_;
};

/// Span names shared by the wrappers and the per-module report.
namespace names {
inline constexpr const char* kWorkload = "bench.workload";
inline constexpr const char* kSetup = "bench.setup";
inline constexpr const char* kGenerate = "data.generate";
inline constexpr const char* kLongtail = "data.longtail";
inline constexpr const char* kPartition = "data.partition";
inline constexpr const char* kSimCtor = "fl.sim_ctor";
inline constexpr const char* kAlgInit = "fl.alg_initialize";
inline constexpr const char* kRound = "fl.round";
inline constexpr const char* kBeginRound = "fl.begin_round";
inline constexpr const char* kTrainPhase = "fl.train_phase";
inline constexpr const char* kLocalUpdate = "fl.local_update";
inline constexpr const char* kAggregate = "fl.aggregate";
inline constexpr const char* kStreamBegin = "fl.stream_begin";
inline constexpr const char* kStreamFold = "fl.stream_fold";
inline constexpr const char* kStreamEnd = "fl.stream_end";
inline constexpr const char* kEvaluate = "fl.evaluate";
inline constexpr const char* kDiag = "obs.diag";
}  // namespace names

}  // namespace perfbench
