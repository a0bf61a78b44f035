#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fedwcm/data/lazy.hpp"
#include "fedwcm/data/longtail.hpp"
#include "fedwcm/data/partition.hpp"
#include "fedwcm/data/synthetic.hpp"
#include "fedwcm/fl/diagnostics.hpp"
#include "fedwcm/fl/registry.hpp"
#include "fedwcm/fl/simulation.hpp"
#include "fedwcm/fl/uplink.hpp"
#include "fedwcm/obs/metrics.hpp"
#include "fedwcm/obs/resource.hpp"
#include "fedwcm/obs/sketch.hpp"
#include "fedwcm/obs/trace_check.hpp"
#include "shapes.hpp"
#include "spans.hpp"
#include "timed.hpp"

namespace perfbench {

namespace core = fedwcm::core;
namespace data = fedwcm::data;
namespace fl = fedwcm::fl;
namespace nn = fedwcm::nn;
namespace obs = fedwcm::obs;

namespace {

// ---------------------------------------------------------------------------
// Workloads. BENCHMARK.json records why each exists and what it bypasses.

// Every workload is the paper's long-tailed, non-IID setting.
constexpr double kImbalance = 0.1;  ///< Long-tail imbalance factor (IF).
constexpr double kBeta = 0.1;       ///< Dirichlet concentration of the partition.

struct Workload {
  std::string name;
  data::SyntheticSpec spec;
  bool lazy = false;       ///< data::LazyPartition clients (else eager).
  std::size_t samples_per_client = 0;  ///< Lazy quota.
  bool convnet = false;    ///< nn::mini_convnet_factory, width 6 (else the MLP).
  bool telemetry = false;  ///< DiagnosticsObserver + population + registry.
  fl::FlConfig config;     ///< Seed and threads are set per run.
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;
  {
    Workload w;
    w.name = "mlp_c100_buffered";
    w.spec = data::synthetic_cifar100();
    w.telemetry = true;
    w.config.num_clients = 100;
    w.config.participation = 0.1;
    w.config.local_epochs = 5;
    w.config.batch_size = 10;
    // 100 rounds: round_ms_tail is p90. Evaluating every 5th round (21
    // evaluated rounds) keeps p90 inside the evaluated rounds, 10 ranks
    // from the boundary with the cheaper ones.
    w.config.rounds = 100;
    w.config.eval_every = 5;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "convnet_tiny_images";
    w.spec = data::synthetic_tiny_images();
    w.convnet = true;
    w.config.num_clients = 16;
    w.config.participation = 0.25;
    w.config.local_epochs = 4;
    w.config.batch_size = 16;
    // 60 rounds: round_ms_tail is p83. Four evaluated rounds (0, 20, 40,
    // 59) keep it 7 ranks inside the unevaluated rounds.
    w.config.rounds = 60;
    w.config.eval_every = 20;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "lazy_1m_stream";
    w.spec = data::synthetic_fmnist();
    w.lazy = true;
    w.samples_per_client = 64;
    w.config.num_clients = 1000000;
    w.config.participation = 0.0002;
    w.config.local_epochs = 1;
    w.config.batch_size = 16;
    w.config.stream_aggregation = true;
    w.config.faults.drop_prob = 0.1;
    w.config.faults.straggler_prob = 0.1;
    // 40 rounds: round_ms_tail is p75. Five evaluated rounds (0, 10, 20,
    // 30, 39) keep it 6 ranks inside the unevaluated rounds.
    w.config.rounds = 40;
    w.config.eval_every = 10;
    ws.push_back(w);
  }
  return ws;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "' (one of: " +
                              workload_names() + ")");
}

nn::ModelFactory base_factory(const Workload& w) {
  if (w.convnet)
    return nn::mini_convnet_factory(w.spec.channels, w.spec.height, w.spec.width,
                                    w.spec.num_classes, /*conv_width=*/6);
  // fedwcm_run's MLP: two hidden layers, the first at least twice the class
  // count.
  return nn::mlp_factory(w.spec.input_dim,
                         {std::max<std::size_t>(32, w.spec.num_classes * 2), 32},
                         w.spec.num_classes);
}

std::size_t default_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

// ---------------------------------------------------------------------------
// JSON output: one flat object per section, numbers with every digit.

class Json {
 public:
  Json& num(const std::string& key, double v) {
    key_(key);
    if (std::isfinite(v)) {
      std::ostringstream n;
      n << std::setprecision(17) << v;
      os_ << n.str();
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    key_(key);
    os_ << quote(v);
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    key_(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& raw(const std::string& key, const std::string& text) {
    key_(key);
    os_ << text;
    return *this;
  }
  std::string done() const { return "{" + os_.str() + "}"; }

  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c == '\n' ? ' ' : c;
    }
    return q + '"';
  }

 private:
  void key_(const std::string& key) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << key << "\":";
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string json_strings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Json::quote(v[i]);
  return out + "]";
}

// ---------------------------------------------------------------------------
// Statistics over per-round and per-call samples.

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples above it: the value at
/// ascending rank n-11. Returns {value, percentile}.
std::pair<double, double> tail(std::vector<double> v) {
  if (v.size() < 11) return {0.0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return {v[n - 11], 100.0 * double(n - 10) / double(n)};
}

double ms(std::int64_t ns) { return double(ns) * 1e-6; }

std::uint64_t fnv1a(const void* bytes, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Accuracy {
  float overall = 0.0f;
  std::vector<float> per_class;
};

/// Accuracy of `params` on `test`, recomputed by the benchmark (same
/// batching and rounding as fl::evaluate) to check the engine's figures.
Accuracy recompute_accuracy(const nn::ModelFactory& factory,
                            const core::ParamVector& params,
                            const data::Dataset& test, std::size_t batch) {
  nn::Sequential model = factory();
  model.set_params(params);
  std::size_t correct_all = 0;
  std::vector<std::size_t> correct(test.num_classes, 0), total(test.num_classes, 0);
  core::Matrix x;
  std::vector<std::size_t> y, idx;
  for (std::size_t done = 0; done < test.size();) {
    const std::size_t take = std::min(batch, test.size() - done);
    idx.resize(take);
    for (std::size_t i = 0; i < take; ++i) idx[i] = done + i;
    data::gather_batch(test, idx, x, y);
    const auto preds = core::argmax_rows(model.forward(x));
    for (std::size_t i = 0; i < take; ++i) {
      ++total[y[i]];
      correct[y[i]] += preds[i] == y[i];
      correct_all += preds[i] == y[i];
    }
    done += take;
  }
  Accuracy acc;
  acc.overall = float(double(correct_all) / double(test.size()));
  acc.per_class.assign(test.num_classes, 0.0f);
  for (std::size_t c = 0; c < test.num_classes; ++c)
    if (total[c] > 0) acc.per_class[c] = float(double(correct[c]) / double(total[c]));
  return acc;
}

// ---------------------------------------------------------------------------
// Per-module figures from the span trace (traced runs only).

struct ModuleInputs {
  const SpanRecorder* rec;
  const RunMarks* marks;
  std::size_t rounds;
  std::size_t threads;
  std::size_t evaluated_rounds;
  double total_s;
  double setup_s;
  double train_samples;
  std::size_t test_size;
  FlopPerSample flop;
};

std::map<std::string, double> module_metrics(const ModuleInputs& in) {
  std::map<std::string, double> m;
  const double R = double(std::max<std::size_t>(1, in.rounds));
  std::map<std::string, std::int64_t> engine_total;  // span name -> Σ dur
  std::int64_t attributed = 0, round_self = 0;
  std::vector<std::int64_t> begin_round_end;
  std::int64_t busy = 0, train_phase = 0, layer_train = 0;
  std::int64_t wait_sum = 0;
  std::vector<double> call_ms;
  double steps = 0.0;
  std::map<std::string, std::int64_t> layer_ns;  // "nn.<i>.<L>.fwd" -> Σ (training)
  std::int64_t eval_fwd = 0;

  const auto& threads = in.rec->threads();
  // Engine thread (the one running Simulation::run) first: begin_round ends
  // are needed for the queue waits.
  const ThreadSpans& engine = *threads.front();
  const std::vector<std::int64_t> engine_self = self_times(engine);
  for (std::size_t i = 0; i < engine.spans.size(); ++i) {
    const Span& s = engine.spans[i];
    engine_total[s.name] += s.dur();
    const bool container = s.name == names::kWorkload || s.name == names::kSetup ||
                           s.name == names::kRound;
    if (!container) attributed += engine_self[i];
    if (s.name == names::kRound) round_self += engine_self[i];
    if (s.name == names::kBeginRound) begin_round_end.push_back(s.end_ns);
    if (s.name == names::kTrainPhase) train_phase += s.dur();
  }
  for (const auto& t : threads) {
    std::vector<bool> in_local(t->spans.size(), false);
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      if (s.parent >= 0) {
        const Span& p = t->spans[std::size_t(s.parent)];
        in_local[i] = in_local[std::size_t(s.parent)] || p.name == names::kLocalUpdate;
      }
      if (s.name == names::kLocalUpdate) {
        busy += s.dur();
        call_ms.push_back(ms(s.dur()));
        steps += double(s.arg);
        const auto it = std::upper_bound(begin_round_end.begin(),
                                         begin_round_end.end(), s.start_ns);
        if (it != begin_round_end.begin()) wait_sum += s.start_ns - *(it - 1);
      } else if (std::strncmp(s.name, "nn.", 3) == 0) {
        if (in_local[i]) {
          layer_ns[s.name] += s.dur();
          layer_train += s.dur();
        } else {
          eval_fwd += s.dur();
        }
      }
    }
  }

  const auto total = [&](const char* name) {
    const auto it = engine_total.find(name);
    return it == engine_total.end() ? 0 : it->second;
  };
  m["data.generate_ms"] = ms(total(names::kGenerate));
  m["data.longtail_ms"] = ms(total(names::kLongtail));
  m["data.partition_ms"] = ms(total(names::kPartition));
  m["fl.sim_ctor_ms"] = ms(total(names::kSimCtor));
  m["fl.alg_initialize_ms"] = ms(total(names::kAlgInit));
  m["fl.sim_ctor_share"] = ms(total(names::kSimCtor)) * 1e-3 / in.setup_s;
  m["fl.alg_initialize_share"] = ms(total(names::kAlgInit)) * 1e-3 / in.setup_s;
  m["fl.setup_rss_mb"] = in.marks->setup_peak_rss_kb / 1024.0;

  m["fl.local_update_busy_ms"] = ms(busy) / R;
  m["fl.local_update_ms.p50"] = median(call_ms);
  m["fl.local_update_ms.tail"] = tail(call_ms).first;
  m["fl.local_update_calls"] = double(call_ms.size());
  m["fl.local_steps"] = steps;
  m["fl.local_sgd_other_ms"] = ms(busy - layer_train) / R;
  m["fl.local_update_wait_ms"] =
      call_ms.empty() ? 0.0 : ms(wait_sum) / double(call_ms.size());
  for (const auto& [name, ns] : layer_ns) m[std::string(name) + "_ms"] = ms(ns) / R;
  const double evals = double(std::max<std::size_t>(1, in.evaluated_rounds));
  m["nn.eval_fwd_ms"] = ms(eval_fwd) / evals;

  m["fl.begin_round_ms"] = ms(total(names::kBeginRound)) / R;
  m["fl.train_phase_ms"] = ms(train_phase) / R;
  m["fl.round_residual_ms"] = ms(round_self) / R;
  m["fl.pool_idle_share"] =
      train_phase > 0
          ? 1.0 - double(busy) / (double(in.threads) * double(train_phase))
          : 0.0;
  m["fl.aggregate_ms"] = ms(total(names::kAggregate)) / R;
  m["fl.stream_fold_ms"] = ms(total(names::kStreamFold)) / R;
  m["fl.stream_end_ms"] = ms(total(names::kStreamEnd)) / R;
  m["fl.evaluate_ms"] = ms(total(names::kEvaluate)) / evals;
  m["obs.diag_ms"] = ms(total(names::kDiag)) / R;
  m["bench.attributed_share"] = ms(attributed) * 1e-3 / in.total_s;
  m["core.gemm.gflop_per_round"] =
      (in.train_samples * in.flop.train +
       double(in.evaluated_rounds) * double(in.test_size) * in.flop.forward) /
      R * 1e-9;
  return m;
}

}  // namespace

std::string workload_names() {
  std::string out;
  for (const Workload& w : workloads()) out += (out.empty() ? "" : " ") + w.name;
  return out;
}

std::string run_workload(const RunOptions& o) {
  const Workload& w = find_workload(o.workload);
  const bool traced = !o.trace_path.empty();
  const bool telemetry = o.telemetry < 0 ? w.telemetry : o.telemetry == 1;
  fl::FlConfig cfg = w.config;
  cfg.seed = o.seed;
  cfg.faults.seed = o.seed;
  cfg.threads = o.threads == 0 ? default_threads() : o.threads;
  cfg.population_telemetry = telemetry;
  if (telemetry) {
    obs::metrics().set_enabled(true);
    obs::population().set_enabled(true);
    obs::population().set_seed(o.seed);
  }

  std::unique_ptr<SpanRecorder> recorder;
  if (traced) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* rec = recorder.get();
  RunMarks marks;
  marks.rounds.reserve(cfg.rounds);

  // ---- The measured workload: setup, then every round. ----
  marks.start_ns = now_ns();
  if (rec) {
    rec->open_at(names::kWorkload, marks.start_ns);
    rec->open_at(names::kSetup, marks.start_ns);
  }
  const data::TrainTest tt = [&] {
    ScopedSpan span(rec, names::kGenerate);
    return data::generate(w.spec, o.seed);
  }();
  const std::vector<std::size_t> subset = [&] {
    ScopedSpan span(rec, names::kLongtail);
    return data::longtail_subsample(tt.train, kImbalance, o.seed);
  }();
  std::optional<data::LazyPartition> lazy;
  data::Partition partition;
  {
    ScopedSpan span(rec, names::kPartition);
    if (w.lazy)
      lazy.emplace(tt.train, subset,
                   data::LazySpec{cfg.num_clients, kBeta, o.seed,
                                  w.samples_per_client});
    else
      partition = data::partition_equal_quantity(tt.train, subset, cfg.num_clients,
                                                 kBeta, o.seed);
  }
  const nn::ModelFactory base = base_factory(w);
  const nn::ModelFactory factory = rec ? timed_factory(base, rec) : base;
  std::optional<fl::Simulation> sim;
  {
    ScopedSpan span(rec, names::kSimCtor);
    if (lazy)
      sim.emplace(cfg, tt.train, tt.test, *lazy, factory,
                  fl::cross_entropy_loss_factory());
    else
      sim.emplace(cfg, tt.train, tt.test, partition, factory,
                  fl::cross_entropy_loss_factory());
  }
  sim->add_observer(std::make_shared<TimedObserver>(
      telemetry ? std::make_shared<fl::DiagnosticsObserver>() : nullptr, marks,
      rec));
  TimedAlgorithm algorithm(fl::make_algorithm("fedwcm"), marks, rec,
                           cfg.eval_every, cfg.rounds);
  const fl::SimulationResult result = sim->run(algorithm);
  // ---- End of the measured workload. ----

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s = double(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                       1e-6 * double(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  const double peak_rss_mb = obs::peak_rss_kb() / 1024.0;

  // ---- Output checks. ----
  std::vector<std::string> failures;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const std::size_t rounds_run = marks.rounds.size();
  const std::size_t cohort = cfg.sampled_per_round();
  check(!result.aborted, "run aborted");
  check(rounds_run == cfg.rounds, "ran " + std::to_string(rounds_run) + " of " +
                                      std::to_string(cfg.rounds) + " rounds");
  check(result.final_params.size() == sim->context().param_count &&
            core::pv::all_finite(result.final_params),
        "final parameters missing or non-finite");
  std::uint64_t attempted = 0, dropped = 0, rejected = 0, straggled = 0;
  std::uint64_t bytes_up = 0, bytes_down = 0;
  std::size_t evaluated = 0;
  for (std::size_t r = 0; r < rounds_run; ++r) {
    const RoundMarks& m = marks.rounds[r];
    attempted += m.cohort;
    dropped += m.dropped;
    rejected += m.rejected;
    straggled += m.straggled;
    bytes_up += m.bytes_up;
    bytes_down += m.bytes_down;
    evaluated += m.evaluated;
    const bool want_eval = r % cfg.eval_every == 0 || r + 1 == cfg.rounds;
    check(m.evaluated == want_eval, "round " + std::to_string(r) +
                                        " evaluation disagrees with eval_every");
    check(m.cohort == cohort, "round " + std::to_string(r) + " sampled " +
                                  std::to_string(m.cohort) + " clients, not " +
                                  std::to_string(cohort));
    check(m.dropped == m.expect_dropped && m.straggled == m.expect_straggled,
          "round " + std::to_string(r) +
              " fault counts differ from fl::decide_fault");
  }
  // Every upload is fp32-framed: accepted and rejected uploads both crossed
  // the wire; FedWCM broadcasts (x_r, Delta_r) to every client not dropped.
  const std::uint64_t up_msg = fl::Uplink::fp32_message_bytes(sim->context().param_count);
  const std::uint64_t down_msg = fl::Uplink::fp32_message_bytes(algorithm.broadcast_floats());
  check(marks.accepted + rejected + dropped == attempted,
        "accepted + rejected + dropped != attempted updates");
  check(bytes_up == (marks.accepted + rejected) * up_msg, "bytes_up accounting");
  check(bytes_down == (attempted - dropped) * down_msg, "bytes_down accounting");
  const Accuracy acc =
      recompute_accuracy(base, result.final_params, tt.test, cfg.eval_batch);
  check(acc.overall == result.final_accuracy &&
            acc.per_class == result.per_class_accuracy,
        "final accuracy differs from the benchmark's re-evaluation");
  const double chance = 1.0 / double(w.spec.num_classes);
  check(double(result.final_accuracy) > 2.0 * chance,
        "final accuracy " + std::to_string(result.final_accuracy) +
            " is not above twice chance");

  // ---- End-to-end figures of this run. ----
  const double total_s = double(marks.end_ns - marks.start_ns) * 1e-9;
  const double setup_s = double(marks.setup_end_ns - marks.start_ns) * 1e-9;
  std::vector<double> round_ms;
  for (const RoundMarks& m : marks.rounds) round_ms.push_back(ms(m.end_ns - m.start_ns));
  const auto [tail_ms, tail_pct] = tail(round_ms);
  const double train_samples =
      double(marks.local_steps.load()) * double(cfg.batch_size);
  const std::uint64_t lost =
      result.aborted ? std::uint64_t(cfg.rounds - rounds_run) * cohort : 0;
  const float min_recall =
      result.per_class_accuracy.empty()
          ? 0.0f
          : *std::min_element(result.per_class_accuracy.begin(),
                              result.per_class_accuracy.end());
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  digest = fnv1a(result.final_params.data(),
                 result.final_params.size() * sizeof(float), digest);
  digest = fnv1a(&result.final_accuracy, sizeof(float), digest);
  digest = fnv1a(result.per_class_accuracy.data(),
                 result.per_class_accuracy.size() * sizeof(float), digest);
  std::ostringstream digest_hex;
  digest_hex << std::hex << std::setw(16) << std::setfill('0') << digest;

  Json e2e;
  e2e.num("setup_s", setup_s)
      .num("total_s", total_s)
      .num("train_samples_per_s", train_samples / (total_s - setup_s))
      .num("round_ms_p50", median(round_ms))
      .num("round_ms_tail", tail_ms)
      .num("cpu_s", cpu_s)
      .num("peak_rss_mb", peak_rss_mb)
      .num("final_accuracy", result.final_accuracy)
      .num("min_class_recall", min_recall)
      .num("bytes_up", double(bytes_up) / 1e6)
      .num("bytes_down", double(bytes_down) / 1e6)
      .num("failed_update_ratio",
           attempted > 0 ? double(rejected + lost) / double(attempted) : 0.0);

  Json out;
  out.str("workload", w.name)
      .num("seed", double(o.seed))
      .num("threads", double(cfg.threads))
      .boolean("telemetry", telemetry)
      .boolean("traced", traced)
      .num("rounds", double(rounds_run))
      .num("evaluated_rounds", double(evaluated))
      .num("round_tail_pct", tail_pct)
      .num("train_samples", train_samples)
      .num("attempted", double(attempted))
      .num("accepted", double(marks.accepted))
      .num("dropped", double(dropped))
      .num("straggled", double(straggled))
      .num("rejected", double(rejected))
      .num("lost", double(lost))
      .num("param_count", double(sim->context().param_count))
      .str("digest", digest_hex.str())
      .boolean("alloc_hook", obs::alloc_hook_linked())
      .num("allocs_per_round",
           double(marks.allocs_end.count - marks.allocs_start.count) /
               double(std::max<std::size_t>(1, rounds_run)))
      .num("alloc_bytes_per_round",
           double(marks.allocs_end.bytes - marks.allocs_start.bytes) /
               double(std::max<std::size_t>(1, rounds_run)));

  if (traced) {
    const std::string trace = to_chrome_trace(*rec);
    std::ofstream file(o.trace_path, std::ios::binary);
    file << trace;
    check(bool(file), "cannot write trace " + o.trace_path);
    const obs::TraceCheck tc = obs::validate_chrome_trace(trace);
    check(tc.ok, "trace fails obs::validate_chrome_trace: " + tc.error);
    out.num("trace_events", double(tc.num_events));
    if (tc.ok) {
      const std::size_t batch = cfg.batch_size;
      ModuleInputs mi{rec,     &marks,  rounds_run, cfg.threads, evaluated,
                      total_s, setup_s, train_samples, tt.test.size(),
                      flop_per_sample(gemm_ops(base(), batch), batch)};
      Json modules;
      for (const auto& [name, value] : module_metrics(mi)) modules.num(name, value);
      out.raw("modules", modules.done());
    }
  }
  out.raw("e2e", e2e.done()).raw("failures", json_strings(failures));
  return out.done();
}

std::string run_kernels(const std::string& name, double budget_s) {
  const Workload& w = find_workload(name);
  const nn::Sequential model = base_factory(w)();
  const std::vector<GemmOp> ops = gemm_ops(model, w.config.batch_size);
  std::vector<const GemmOp*> unique;
  for (const GemmOp& op : ops)
    if (std::none_of(unique.begin(), unique.end(),
                     [&](const GemmOp* u) { return u->metric() == op.metric(); }))
      unique.push_back(&op);
  const double gemm_budget = 0.6 * budget_s / double(unique.size());
  Json gemm, shapes;
  for (const GemmOp* op : unique) gemm.num(op->metric(), time_gemm(*op, gemm_budget));
  std::string list = "[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Json d;
    d.str("layer", ops[i].layer)
        .str("op", ops[i].op)
        .num("m", double(ops[i].m))
        .num("n", double(ops[i].n))
        .num("k", double(ops[i].k))
        .str("layout", ops[i].layout)
        .str("precision", ops[i].precision)
        .boolean("accumulate", ops[i].accumulate)
        .num("calls_per_step", double(ops[i].calls_per_step));
    list += (i ? "," : "") + d.done();
  }
  list += "]";
  const PvTimes pv =
      time_pv(model.param_count(), w.config.sampled_per_round(), 0.4 * budget_s);
  Json pvj;
  pvj.num("core.pv.scale_add.ns_per_elem", pv.scale_add)
      .num("core.pv.blend_into.ns_per_elem", pv.blend_into)
      .num("core.pv.weighted_sum.ns_per_elem", pv.weighted_sum)
      .num("core.pv.dot_norms.ns_per_elem", pv.dot_norms);
  Json out;
  out.str("workload", w.name)
      .num("param_count", double(model.param_count()))
      .raw("gemm", gemm.done())
      .raw("pv", pvj.done())
      .raw("ops", list);
  return out.done();
}

}  // namespace perfbench
