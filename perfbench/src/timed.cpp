#include "timed.hpp"

namespace perfbench {

namespace fl = fedwcm::fl;
namespace nn = fedwcm::nn;

// ---------------------------------------------------------------------------
// TimedLayer

TimedLayer::TimedLayer(std::unique_ptr<nn::Layer> inner, std::size_t index,
                       SpanRecorder* rec)
    : inner_(std::move(inner)), index_(index), rec_(rec) {
  const std::string base =
      "nn." + std::to_string(index_) + "." + inner_->name() + ".";
  fwd_name_ = intern(base + "fwd");
  bwd_name_ = intern(base + "bwd");
}

void TimedLayer::forward(const nn::Matrix& in, nn::Matrix& out) {
  ScopedSpan span(rec_, fwd_name_, std::int64_t(in.rows()));
  inner_->forward(in, out);
}

void TimedLayer::backward(const nn::Matrix& grad_out, nn::Matrix& grad_in) {
  ScopedSpan span(rec_, bwd_name_, std::int64_t(grad_out.rows()));
  inner_->backward(grad_out, grad_in);
}

void TimedLayer::set_workspace(nn::Workspace* ws) {
  Layer::set_workspace(ws);
  inner_->set_workspace(ws);
}

std::unique_ptr<nn::Layer> TimedLayer::clone() const {
  return std::make_unique<TimedLayer>(inner_->clone(), index_, rec_);
}

nn::ModelFactory timed_factory(nn::ModelFactory base, SpanRecorder* rec) {
  return [base = std::move(base), rec] {
    const nn::Sequential plain = base();
    nn::Sequential timed;
    for (std::size_t i = 0; i < plain.layer_count(); ++i)
      timed.add(std::make_unique<TimedLayer>(plain.layer(i).clone(), i, rec));
    return timed;
  };
}

// ---------------------------------------------------------------------------
// TimedAlgorithm

TimedAlgorithm::TimedAlgorithm(std::unique_ptr<fl::Algorithm> inner,
                               RunMarks& marks, SpanRecorder* rec,
                               std::size_t eval_every, std::size_t rounds)
    : inner_(std::move(inner)),
      marks_(marks),
      rec_(rec),
      eval_every_(eval_every),
      rounds_(rounds) {}

void TimedAlgorithm::initialize(const fl::FlContext& ctx) {
  Algorithm::initialize(ctx);
  ScopedSpan span(rec_, names::kAlgInit);
  inner_->initialize(ctx);
}

void TimedAlgorithm::begin_round(std::size_t round,
                                 std::span<const std::size_t> sampled) {
  // The fault prediction is a check, not program work: it runs before the
  // round's clock starts.
  RoundMarks m;
  m.cohort = sampled.size();
  const fl::FlConfig& cfg = *ctx_->config;
  if (cfg.faults.any())
    for (const std::size_t client : sampled) {
      const fl::FaultKind kind = fl::decide_fault(cfg.faults, cfg.seed, round, client);
      m.expect_dropped += kind == fl::FaultKind::kDrop;
      m.expect_straggled += kind == fl::FaultKind::kStraggle;
    }
  if (marks_.rounds.empty()) marks_.allocs_start = fedwcm::obs::alloc_counters();
  const std::int64_t start = now_ns();
  m.start_ns = start;
  marks_.rounds.push_back(m);
  if (rec_) rec_->open_at(names::kRound, start, std::int64_t(round));
  ScopedSpan span(rec_, names::kBeginRound);
  inner_->begin_round(round, sampled);
}

fl::LocalResult TimedAlgorithm::local_update(std::size_t client,
                                             const fl::ParamVector& global,
                                             std::size_t round,
                                             fl::Worker& worker) {
  if (rec_) rec_->open(names::kLocalUpdate);
  fl::LocalResult r = inner_->local_update(client, global, round, worker);
  if (rec_) rec_->close(names::kLocalUpdate, std::int64_t(r.num_steps));
  marks_.local_steps.fetch_add(r.num_steps, std::memory_order_relaxed);
  return r;
}

void TimedAlgorithm::aggregate(std::span<const fl::LocalResult> results,
                               std::size_t round, fl::ParamVector& global) {
  marks_.accepted += results.size();
  {
    ScopedSpan span(rec_, names::kAggregate);
    inner_->aggregate(results, round, global);
  }
  after_aggregate(round);
}

void TimedAlgorithm::stream_begin(std::size_t round,
                                  std::span<const std::size_t> sampled) {
  ScopedSpan span(rec_, names::kStreamBegin);
  inner_->stream_begin(round, sampled);
}

void TimedAlgorithm::stream_fold(const fl::LocalResult& r) {
  ++marks_.accepted;
  ScopedSpan span(rec_, names::kStreamFold);
  inner_->stream_fold(r);
}

void TimedAlgorithm::stream_end(std::size_t round, fl::ParamVector& global) {
  {
    ScopedSpan span(rec_, names::kStreamEnd);
    inner_->stream_end(round, global);
  }
  after_aggregate(round);
}

void TimedAlgorithm::after_aggregate(std::size_t round) {
  // Evaluation runs between the end of aggregation and on_evaluate; the
  // cadence is the engine's (round % eval_every == 0, plus the last round).
  if (rec_ && (round % eval_every_ == 0 || round + 1 == rounds_))
    rec_->open(names::kEvaluate);
}

// ---------------------------------------------------------------------------
// TimedObserver

TimedObserver::TimedObserver(std::shared_ptr<fl::RoundObserver> inner,
                             RunMarks& marks, SpanRecorder* rec)
    : inner_(std::move(inner)), marks_(marks), rec_(rec) {}

void TimedObserver::on_run_begin(const fl::FlContext& ctx,
                                 const std::string& algorithm) {
  marks_.setup_end_ns = now_ns();
  marks_.setup_peak_rss_kb = fedwcm::obs::peak_rss_kb();
  if (rec_) rec_->close(names::kSetup);
  if (!inner_) return;
  ScopedSpan span(rec_, names::kDiag);
  inner_->on_run_begin(ctx, algorithm);
}

void TimedObserver::on_round_begin(std::size_t round,
                                   std::span<const std::size_t> sampled) {
  if (inner_) {
    ScopedSpan span(rec_, names::kDiag);
    inner_->on_round_begin(round, sampled);
  }
  if (rec_) rec_->open(names::kTrainPhase);
}

void TimedObserver::on_aggregate(std::size_t round, const fl::Algorithm& algorithm,
                                 std::span<const fl::LocalResult> accepted,
                                 const fl::ParamVector& global,
                                 fl::RoundRecord& rec) {
  if (rec_) rec_->close(names::kTrainPhase);
  if (!inner_) return;
  ScopedSpan span(rec_, names::kDiag);
  inner_->on_aggregate(round, algorithm, accepted, global, rec);
}

void TimedObserver::on_evaluate(nn::Sequential& model, const fl::FlContext& ctx,
                                fl::RoundRecord& rec) {
  // The span is absent only when no upload survived to be aggregated.
  if (rec_ && rec_->is_open(names::kEvaluate)) rec_->close(names::kEvaluate);
  if (!inner_) return;
  ScopedSpan span(rec_, names::kDiag);
  inner_->on_evaluate(model, ctx, rec);
}

void TimedObserver::on_round_end(const fl::RoundRecord& rec) {
  if (inner_) {
    ScopedSpan span(rec_, names::kDiag);
    inner_->on_round_end(rec);
  }
  RoundMarks& m = marks_.rounds.back();
  m.end_ns = now_ns();
  marks_.allocs_end = fedwcm::obs::alloc_counters();
  m.bytes_up = rec.bytes_up;
  m.bytes_down = rec.bytes_down;
  m.dropped = rec.dropped;
  m.rejected = rec.rejected;
  m.straggled = rec.straggled;
  m.evaluated = rec.evaluated;
  if (rec_) {
    // An evaluation span left open means the engine skipped an evaluation
    // the cadence predicted; the run check reports the cadence mismatch.
    if (rec_->is_open(names::kEvaluate)) rec_->close(names::kEvaluate);
    rec_->close(names::kRound);
  }
}

void TimedObserver::on_run_end(const fl::SimulationResult& result) {
  if (inner_) {
    ScopedSpan span(rec_, names::kDiag);
    inner_->on_run_end(result);
  }
  marks_.end_ns = now_ns();
  if (rec_) rec_->close(names::kWorkload);
}

}  // namespace perfbench
