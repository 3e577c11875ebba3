#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "core/mutual_information.h"
#include "core/state.h"

namespace fastft {
namespace {

constexpr char kOpt[] = "optimization";
constexpr char kEst[] = "estimation";
constexpr char kEval[] = "evaluation";
constexpr char kCkpt[] = "checkpoint";

struct EngineMetrics {
  obs::Counter* steps;
  obs::Counter* episodes;
  obs::Counter* downstream_evaluations;
  obs::Counter* predictor_estimations;
  obs::Counter* candidate_batches;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return EngineMetrics{
        registry.GetCounter("engine.steps"),
        registry.GetCounter("engine.episodes"),
        registry.GetCounter("engine.downstream_evaluations"),
        registry.GetCounter("engine.predictor_estimations"),
        registry.GetCounter("engine.candidate_batches"),
    };
  }();
  return metrics;
}

// Arms tracing and the flight recorder's rings for the duration of one
// Run(), and writes the Chrome-trace export on every exit path (early Status
// returns included). Declared before the "engine/run" span so the span
// closes — and lands in a ring — before the rings are frozen and exported.
// The record stream itself is opened once the resume cursor is known and
// flushed at episode boundaries.
class ObsSession {
 public:
  explicit ObsSession(const EngineConfig& config)
      : trace_path_(config.trace_path),
        recording_(!config.record_path.empty()) {
    if (!trace_path_.empty()) {
      obs::TraceOptions options;
      options.ring_capacity = static_cast<size_t>(config.trace_ring_capacity);
      obs::StartTracing(options);
    }
    if (recording_) {
      obs::RecorderOptions options;
      options.ring_capacity = static_cast<size_t>(config.record_ring_capacity);
      obs::StartRecording(options);
    }
  }
  ~ObsSession() {
    if (recording_) obs::StopRecording();
    if (trace_path_.empty()) return;
    obs::StopTracing();
    Status status = obs::WriteChromeTrace(trace_path_);
    if (!status.ok()) {
      FASTFT_LOG(Warning) << "failed to write trace to '" << trace_path_
                          << "': " << status.ToString();
    }
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool recording() const { return recording_; }

 private:
  const std::string trace_path_;
  const bool recording_;
};

obs::AgentDecision DecisionFrom(const SelectionStats& stats, int action) {
  return {action, stats.candidates, stats.chosen_score,
          stats.runner_up_score};
}

std::unique_ptr<CascadePolicy> MakePolicy(const EngineConfig& config) {
  switch (config.framework) {
    case RlFramework::kActorCritic: {
      AgentConfig ac = config.agent;
      ac.seed = DeriveSeed(config.seed, 11);
      return std::make_unique<CascadingAgents>(ac);
    }
    case RlFramework::kDqn:
    case RlFramework::kDoubleDqn:
    case RlFramework::kDuelingDqn:
    case RlFramework::kDuelingDoubleDqn: {
      QAgentConfig qc = config.q_agent;
      qc.seed = DeriveSeed(config.seed, 12);
      QVariant variant = QVariant::kDqn;
      if (config.framework == RlFramework::kDoubleDqn) {
        variant = QVariant::kDoubleDqn;
      } else if (config.framework == RlFramework::kDuelingDqn) {
        variant = QVariant::kDuelingDqn;
      } else if (config.framework == RlFramework::kDuelingDoubleDqn) {
        variant = QVariant::kDuelingDoubleDqn;
      }
      return std::make_unique<QCascade>(variant, qc);
    }
  }
  FASTFT_CHECK(false) << "unreachable";
  return nullptr;
}

// The performance predictor and the novelty networks share their
// construction knobs; `seed_index` derives each one's seed.
template <typename Config>
Config EstimatorConfig(const EngineConfig& config, uint64_t seed_index) {
  Config c;
  c.backbone = config.backbone;
  c.vocab_size = Tokenizer(config.tokenizer_feature_buckets,
                           config.tokenizer_max_length)
                     .vocab_size();
  c.prefix_cache_bytes = static_cast<size_t>(config.prefix_cache_kb) * 1024;
  c.seed = DeriveSeed(config.seed, seed_index);
  return c;
}

// One agent input row per candidate cluster: `before`, the cluster's state,
// then `after`.
nn::Matrix ClusterInputs(const FeatureSpace& space,
                         const std::vector<std::vector<int>>& clusters,
                         const std::vector<double>& before,
                         const std::vector<double>& after, int dim) {
  nn::Matrix inputs(static_cast<int>(clusters.size()), dim);
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::vector<double> row =
        Concat(Concat(before, ClusterState(space, clusters[i])), after);
    for (size_t j = 0; j < row.size(); ++j) {
      inputs(static_cast<int>(i), static_cast<int>(j)) = row[j];
    }
  }
  return inputs;
}

nn::Matrix RowToMatrix(const std::vector<double>& row) {
  nn::Matrix m(1, static_cast<int>(row.size()));
  for (size_t j = 0; j < row.size(); ++j) {
    m(0, static_cast<int>(j)) = row[j];
  }
  return m;
}

// Upper percentile threshold: values >= threshold are in the top-p percent.
double TopPercentileThreshold(std::vector<double> values, double percent) {
  if (values.empty()) return std::numeric_limits<double>::infinity();
  return Quantile(std::move(values), 1.0 - percent / 100.0);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Status ValidateEngineConfig(const EngineConfig& config) {
  std::string error;  // the first rule the config breaks
  auto require = [&error](bool ok, std::string message) {
    if (!ok && error.empty()) error = std::move(message);
  };
  auto at_least = [&require](const char* name, int64_t value, int64_t min,
                             const char* note = "") {
    require(value >= min, std::string(name) + " must be >= " +
                              std::to_string(min) + note + ", got " +
                              std::to_string(value));
  };
  at_least("episodes", config.episodes, 1);
  at_least("steps_per_episode", config.steps_per_episode, 1);
  at_least("cold_start_episodes", config.cold_start_episodes, 1,
           " (the cold start anchors the evaluation components)");
  at_least("memory_size", config.memory_size, 1);
  at_least("finetune_batch", config.finetune_batch, 1);
  at_least("finetune_epochs", config.finetune_epochs, 0);
  require(config.alpha_percentile >= 0.0 && config.alpha_percentile <= 100.0,
          "alpha_percentile must be in [0, 100], got " +
              std::to_string(config.alpha_percentile));
  require(config.beta_percentile >= 0.0 && config.beta_percentile <= 100.0,
          "beta_percentile must be in [0, 100], got " +
              std::to_string(config.beta_percentile));
  require(config.epsilon_start >= 0.0 && config.epsilon_start <= 1.0 &&
              config.epsilon_end >= 0.0 && config.epsilon_end <= 1.0,
          "epsilon_start/epsilon_end must be in [0, 1]");
  require(std::isfinite(config.novelty_weight_start) &&
              std::isfinite(config.novelty_weight_end),
          "novelty weights must be finite");
  at_least("novelty_decay_steps", config.novelty_decay_steps, 1);
  require(config.tokenizer_feature_buckets >= 1 &&
              config.tokenizer_max_length >= 1,
          "tokenizer_feature_buckets and tokenizer_max_length must be >= 1");
  at_least("num_threads", config.num_threads, 0,
           " (0 = all hardware threads)");
  at_least("prefix_cache_kb", config.prefix_cache_kb, 0,
           " (0 disables the cache)");
  if (!config.trace_path.empty()) {
    at_least("trace_ring_capacity", config.trace_ring_capacity, 1,
             " when tracing");
  }
  require(config.record_path.empty() || config.record_path.back() != '/',
          "record_path must name a file, not a directory: '" +
              config.record_path + "'");
  if (!config.record_path.empty()) {
    at_least("record_ring_capacity", config.record_ring_capacity, 1,
             " when recording");
  }
  at_least("checkpoint_every_episodes", config.checkpoint_every_episodes, 1);
  at_least("wall_clock_budget_ms", config.wall_clock_budget_ms, 0,
           " (0 = no budget)");
  require(!config.resume || !config.checkpoint_path.empty(),
          "resume requires checkpoint_path (there is nothing to resume from)");
  if (error.empty()) return Status::OK();
  return Status::InvalidArgument("invalid EngineConfig: " + error);
}

const char* RlFrameworkName(RlFramework framework) {
  switch (framework) {
    case RlFramework::kActorCritic:
      return "ActorCritic";
    case RlFramework::kDqn:
      return "DQN";
    case RlFramework::kDoubleDqn:
      return "DDQN";
    case RlFramework::kDuelingDqn:
      return "DuelingDQN";
    case RlFramework::kDuelingDoubleDqn:
      return "DuelingDDQN";
  }
  return "?";
}

EngineState::EngineState(const EngineConfig& config)
    : rng(config.seed),
      policy(MakePolicy(config)),
      buffer(config.memory_size),
      predictor(std::make_unique<PerformancePredictor>(
          EstimatorConfig<PredictorConfig>(config, 22))),
      novelty(std::make_unique<NoveltyEstimator>(
          EstimatorConfig<NoveltyConfig>(config, 23))) {
  run.prediction_history.resize(config.steps_per_episode);
  run.novelty_history.resize(config.steps_per_episode);
}

namespace {

// Times one phase of Run(): its wall clock lands in a Table II bucket of
// EngineResult::times and, while tracing, in a span of the same extent. A
// null span name times the bucket only.
class PhaseGuard {
 public:
  PhaseGuard(TimeBuckets* times, const char* bucket, const char* span)
      : times_(times), bucket_(bucket), span_(span) {}
  ~PhaseGuard() { times_->Add(bucket_, timer_.Seconds()); }
  PhaseGuard(const PhaseGuard&) = delete;
  PhaseGuard& operator=(const PhaseGuard&) = delete;

 private:
  TimeBuckets* times_;
  const char* bucket_;
  WallTimer timer_;
  obs::TraceSpan span_;
};

FeatureSpaceConfig SpaceConfig(const EngineConfig& config,
                               const Dataset& dataset) {
  FeatureSpaceConfig fs = config.feature_space;
  fs.max_features = std::max(fs.max_features, dataset.NumFeatures() + 16);
  return fs;
}

EvaluatorConfig EvalConfig(const EngineConfig& config,
                           const common::DeadlineToken* deadline) {
  EvaluatorConfig eval = config.evaluator;
  eval.seed = DeriveSeed(config.seed, 21);
  eval.num_threads = config.num_threads;
  eval.deadline = deadline;
  return eval;
}

// What one Run() derives from its config and dataset and no checkpoint
// holds: the substrate every phase reads, and the I/O plumbing.
struct RunContext {
  RunContext(const EngineConfig& config, const Dataset& dataset,
             bool recording)
      : config(config),
        dataset(dataset),
        recording(recording),
        deadline(config.wall_clock_budget_ms, config.cancel_flag.get()),
        space(dataset, SpaceConfig(config, dataset)),
        tokenizer(config.tokenizer_feature_buckets,
                  config.tokenizer_max_length),
        evaluator(EvalConfig(config, &deadline)),
        est_threads(common::ResolveThreadCount(config.num_threads)) {}

  const EngineConfig& config;
  const Dataset& dataset;
  const bool recording;
  // Cooperative deadline watchdog, armed before anything else is built so
  // even the baseline respects the budget; checked at episode/step
  // boundaries and per fold/candidate inside the evaluator.
  common::DeadlineToken deadline;
  FeatureSpace space;  // reset at every episode start
  Tokenizer tokenizer;
  Evaluator evaluator;
  // Estimation-side parallelism (distillation targets, embedding sweep);
  // downstream evaluation resolves the same knob inside the evaluator.
  const int est_threads;
  std::optional<obs::RecordStream> record_stream;
  // The newest episode-boundary snapshot (pure serialization), written at
  // the configured cadence and by Finish() when newer than the disk copy.
  std::string last_snapshot;
  bool snapshot_dirty = false;
};

// The locals of one Algorithm 2 step, handed from phase to phase. Nothing
// here crosses an episode boundary, so nothing here is checkpointed.
struct StepLocals {
  int episode = 0;
  int step = 0;
  bool cold = false;  // a cold-start episode (Algorithm 1)
  Transition t;
  std::vector<int> tokens;  // t.tokens, kept past the move into the buffer
  bool generated = false;   // the action added at least one column
  double predicted = 0.0;
  bool have_prediction = false;
  double novelty = 0.0;
  bool pp_on = false;  // predictor / novelty usable for the rest of the step
  bool ne_on = false;
  bool run_downstream = false;
  double v = 0.0;  // the performance feedback v_j
  double reward = 0.0;
  double reward_performance = 0.0;
  double eps_i = 0.0;
  obs::RecordEvent rev;  // step provenance, filled as the step computes
};

// Interleaves a fault / health-ladder event into the decision stream (no-op
// when recording is off; never observable in scores or reports).
void RecordGuardEvent(const RunContext& ctx, const EngineState& s,
                      obs::RecordEventKind kind, int episode, int step,
                      const char* site, std::string detail) {
  if (!ctx.recording) return;
  obs::RecordEvent ev;
  ev.kind = kind;
  ev.episode = episode;
  ev.step = step;
  ev.global_step = s.run.global_step;
  ev.site = site;
  ev.detail = std::move(detail);
  obs::Emit(ev);
}

// Setup / resume: a fresh state, or the last episode-boundary snapshot.
std::unique_ptr<EngineState> SetupOrResume(RunContext& ctx) {
  const EngineConfig& config = ctx.config;
  auto state = std::make_unique<EngineState>(config);
  if (config.resume) {
    Status restored =
        RestoreEngineState(config.checkpoint_path, config, state.get());
    if (restored.ok()) {
      state->result.resumed = true;
      FASTFT_LOG(Info) << "resumed '" << ctx.dataset.name << "' from '"
                       << config.checkpoint_path << "' at episode "
                       << state->run.next_episode;
    } else if (restored.code() == StatusCode::kNotFound) {
      FASTFT_LOG(Info) << "no checkpoint at '" << config.checkpoint_path
                       << "'; starting fresh";
    } else {
      // Corrupted / mismatched checkpoints degrade to a fresh run. A failed
      // restore leaves the state partially overwritten, so it is rebuilt.
      FASTFT_LOG(Warning) << "checkpoint restore from '"
                          << config.checkpoint_path
                          << "' failed: " << restored.ToString()
                          << "; starting fresh";
      state = std::make_unique<EngineState>(config);
    }
  }
  // Open the record stream at the episode cursor: a fresh run truncates any
  // stale stream; a resumed run keeps the blocks of episodes before the
  // cursor so kill → resume yields one coherent stream.
  if (ctx.recording) {
    ctx.record_stream.emplace(obs::RecordStream::Open(
        config.record_path,
        state->result.resumed ? state->run.next_episode : 0));
  }
  return state;
}

// Baseline downstream score of the untouched dataset. It anchors every later
// degradation fallback, so a non-finite baseline is the one component
// failure the run cannot absorb — it surfaces as a Status, unless the
// budget expired mid-baseline, which is an interruption, not an error.
Status Baseline(RunContext& ctx, EngineState& s, bool* interrupted) {
  EngineResult& result = s.result;
  PhaseGuard phase(&result.times, kEval, "engine/evaluate");
  double base = ctx.evaluator.Evaluate(ctx.dataset);
  ++result.downstream_evaluations;
  Metrics().downstream_evaluations->Increment();
  if (FASTFT_FAULT_POINT("evaluator/base")) base = kNaN;
  if (std::isfinite(base)) {
    result.base_score = base;
    result.best_score = base;
    result.best_dataset = ctx.dataset;
    return Status::OK();
  }
  if (ctx.deadline.Expired()) {
    *interrupted = true;
    return Status::OK();
  }
  return Status::Internal(
      "baseline downstream evaluation of '" + ctx.dataset.name +
      "' returned a non-finite score; the run has no anchor to degrade to (a "
      "NaN means every cross-validation fold was skipped — the dataset is "
      "too small for " +
      std::to_string(ctx.config.evaluator.folds) +
      "-fold evaluation — otherwise check the labels and the evaluator "
      "configuration)");
}

// Action selection: the cascading agents pick the head cluster, the
// operation and (for a binary operation) the tail cluster, and the feature
// space applies them.
StepLocals SelectAction(RunContext& ctx, EngineState& s, int episode,
                        int step) {
  const EngineConfig& config = ctx.config;
  FeatureSpace& space = ctx.space;
  Metrics().steps->Increment();
  StepLocals st;
  st.episode = episode;
  st.step = step;
  st.cold = episode < config.cold_start_episodes;
  // Anneal random exploration toward strategy-driven selection.
  const double epsilon =
      config.epsilon_end +
      (config.epsilon_start - config.epsilon_end) *
          std::exp(-static_cast<double>(s.run.global_step) /
                   std::max(config.epsilon_decay_steps, 1));
  CascadePolicy& policy = *s.policy;
  policy.SetExplorationRate(epsilon);
  Transition& t = st.t;
  int added = 0;
  {
    PhaseGuard phase(&s.result.times, kOpt, "engine/select_action");
    std::vector<std::vector<int>> clusters =
        ClusterFeatures(space, config.clustering);
    std::vector<double> overall = FeatureSetState(space);
    t.state = overall;

    t.head_inputs = ClusterInputs(space, clusters, {}, overall,
                                  CascadePolicy::HeadInputDim());
    t.head_action = policy.SelectHead(t.head_inputs, &s.rng);
    const std::vector<int>& head_cluster = clusters[t.head_action];

    std::vector<double> head_rep = ClusterState(space, head_cluster);
    t.op_input = RowToMatrix(Concat(head_rep, overall));
    t.op_action = policy.SelectOperation(t.op_input, &s.rng);
    OpType op = OpFromIndex(t.op_action);

    std::vector<int> tail_cluster;
    if (!IsUnary(op)) {
      t.tail_inputs = ClusterInputs(
          space, clusters,
          Concat(Concat(head_rep, overall), OperationOneHot(op)), {},
          CascadePolicy::TailInputDim());
      t.tail_action = policy.SelectTail(t.tail_inputs, &s.rng);
      tail_cluster = clusters[t.tail_action];
    }

    added = space.ApplyOperation(op, head_cluster, tail_cluster, &s.rng);
    t.next_state = FeatureSetState(space);
    // Candidates at the next state — only the Q-learning variants need
    // them for bootstrap targets; skip the extra clustering otherwise.
    if (config.framework != RlFramework::kActorCritic) {
      std::vector<std::vector<int>> next_clusters =
          ClusterFeatures(space, config.clustering);
      t.next_head_inputs = ClusterInputs(space, next_clusters, {},
                                         t.next_state,
                                         CascadePolicy::HeadInputDim());
    }
  }
  st.generated = added > 0;
  if (ctx.recording) {
    st.rev.episode = episode;
    st.rev.step = step;
    st.rev.global_step = s.run.global_step;
    st.rev.epsilon = epsilon;
    st.rev.head = DecisionFrom(policy.head_selection(), t.head_action);
    st.rev.op = DecisionFrom(policy.op_selection(), t.op_action);
    if (t.tail_action >= 0) {
      st.rev.tail = DecisionFrom(policy.tail_selection(), t.tail_action);
    }
  }
  t.tokens = space.SequenceTokens(ctx.tokenizer);
  st.tokens = t.tokens;
  return st;
}

// Guards one estimation output: a non-finite value (injected or genuine) is
// dropped to 0, the component quarantined, and the step continues in the
// matching ablation mode (-PP / -NE). Returns whether the value was finite.
bool GuardEstimate(const RunContext& ctx, EngineState& s, const StepLocals& st,
                   ComponentHealth* component, const char* site,
                   const char* detail, double* value) {
  if (std::isfinite(*value)) return true;
  const bool was_quarantined = component->quarantined();
  s.result.health.RecordComponentFault(component);
  RecordGuardEvent(ctx, s, obs::RecordEventKind::kFault, st.episode, st.step,
                   site, detail);
  if (!was_quarantined && component->quarantined()) {
    RecordGuardEvent(ctx, s, obs::RecordEventKind::kHealth, st.episode,
                     st.step, "health/quarantine", component->name);
  }
  *value = 0.0;
  return false;
}

// Reward estimation (Algorithm 2 lines 4-10): predicted performance and
// novelty of the new sequence, once the components are trained.
void Estimate(const RunContext& ctx, EngineState& s, StepLocals& st) {
  if (!s.run.components_ready) return;
  HealthReport& health = s.result.health;
  PhaseGuard phase(&s.result.times, kEst, "engine/estimate");
  if (ctx.config.use_performance_predictor &&
      !health.predictor.quarantined()) {
    st.predicted = s.predictor->Predict(st.t.tokens);
    ++s.result.predictor_estimations;
    Metrics().predictor_estimations->Increment();
    if (FASTFT_FAULT_POINT("predictor/predict")) st.predicted = kNaN;
    st.have_prediction =
        GuardEstimate(ctx, s, st, &health.predictor, "predictor/predict",
                      "non-finite prediction", &st.predicted);
  }
  if (ctx.config.use_novelty && !health.novelty.quarantined()) {
    st.novelty = s.novelty->NormalizedNovelty(st.t.tokens);
    if (FASTFT_FAULT_POINT("novelty/estimate")) st.novelty = kNaN;
    GuardEstimate(ctx, s, st, &health.novelty, "novelty/estimate",
                  "non-finite novelty", &st.novelty);
  }
}

// Adaptive downstream trigger: evaluate for real only when the prediction is
// in the top-α percentile or the novelty in the top-β percentile of the
// steps at this position, within the evaluation budget.
void Trigger(const RunContext& ctx, EngineState& s, StepLocals& st) {
  const EngineConfig& config = ctx.config;
  EngineRunState& run = s.run;
  // A component quarantined in Estimate degrades the rest of the step to
  // the matching ablation path.
  st.pp_on = config.use_performance_predictor &&
             !s.result.health.predictor.quarantined();
  st.ne_on = config.use_novelty && !s.result.health.novelty.quarantined();
  st.run_downstream = st.cold || !st.pp_on;
  if (!st.run_downstream && run.components_ready) {
    // Strict comparisons: with clamped or discretized scores, ties at the
    // threshold must not all trigger (that would defeat the percentile
    // semantics).
    bool perf_trigger =
        config.alpha_percentile > 0.0 &&
        st.predicted > TopPercentileThreshold(run.prediction_history[st.step],
                                              config.alpha_percentile);
    bool novelty_trigger =
        st.ne_on && config.beta_percentile > 0.0 &&
        st.novelty > TopPercentileThreshold(run.novelty_history[st.step],
                                            config.beta_percentile);
    st.run_downstream = perf_trigger || novelty_trigger;
    double budget = (config.alpha_percentile + config.beta_percentile) /
                        100.0 * static_cast<double>(run.warm_steps) +
                    1.0;
    if (st.run_downstream && static_cast<double>(run.warm_evals) >= budget) {
      st.run_downstream = false;
    }
  }
  if (!st.cold && st.pp_on) ++run.warm_steps;
  if (st.pp_on && run.components_ready) {
    run.prediction_history[st.step].push_back(st.predicted);
  }
  if (st.ne_on && run.components_ready) {
    run.novelty_history[st.step].push_back(st.novelty);
  }
}

// Downstream evaluation of a triggered step; otherwise v_j is the prediction
// (or the previous performance when the action changed nothing). Returns
// false when the deadline fired inside the evaluation.
bool Evaluate(RunContext& ctx, EngineState& s, StepLocals& st,
              double prev_perf) {
  st.v = prev_perf;
  if (!st.generated) {
    // Nothing changed; skip re-evaluating an identical dataset.
    st.run_downstream = false;
    return true;
  }
  if (!st.run_downstream) {
    st.v = st.predicted;
    return true;
  }
  PhaseGuard phase(&s.result.times, kEval, "engine/evaluate");
  // One guarded batch: candidates fan out across the shared pool
  // (bit-identical to serial — every candidate's fold seeds are fixed),
  // while the fault point and every health-ladder decision run on this
  // thread, in candidate order.
  Dataset candidate = ctx.space.ToDataset();
  double measured = ctx.evaluator.EvaluateBatch({&candidate})[0];
  ++s.result.downstream_evaluations;
  Metrics().candidate_batches->Increment();
  Metrics().downstream_evaluations->Increment();
  if (FASTFT_FAULT_POINT("evaluator/evaluate")) measured = kNaN;
  // The deadline fired inside the batch: `measured` may cover only some
  // folds (or none), which is NOT deterministic across thread counts.
  // Discard it and stop at this boundary — resume replays the whole episode
  // from the last snapshot.
  if (ctx.deadline.Expired()) return false;
  if (!std::isfinite(measured)) {
    // Guard: drop the poisoned measurement and fall back to the predicted
    // value (or carry the previous performance). The evaluator is ground
    // truth, so it degrades per call — skip and count — rather than by
    // quarantine. A degenerate candidate (every fold skipped) lands here too
    // and is counted the same way in the health report.
    s.result.health.RecordEvaluatorFault();
    RecordGuardEvent(ctx, s, obs::RecordEventKind::kFault, st.episode,
                     st.step, "evaluator/evaluate",
                     "non-finite downstream score dropped");
    st.run_downstream = false;
    st.v = st.have_prediction ? st.predicted : prev_perf;
  } else {
    st.v = measured;
    if (!st.cold && st.pp_on) ++s.run.warm_evals;
    s.run.sequence_records.push_back({st.t.tokens, st.v});
  }
  return true;
}

// Eq. 5 / Eq. 6 reward with the ε-decayed, centered novelty bonus. Returns
// v_j, the next step's previous performance.
double Reward(const RunContext& ctx, EngineState& s, StepLocals& st,
              double prev_perf) {
  const EngineConfig& config = ctx.config;
  EngineRunState& run = s.run;
  st.reward = st.v - prev_perf;
  st.reward_performance = st.reward;
  if (st.ne_on && run.components_ready) {
    st.eps_i = config.novelty_weight_end +
               (config.novelty_weight_start - config.novelty_weight_end) *
                   std::exp(-static_cast<double>(run.global_step) /
                            static_cast<double>(config.novelty_decay_steps));
    ++run.novelty_count;
    run.novelty_mean += (st.novelty - run.novelty_mean) /
                        static_cast<double>(run.novelty_count);
    st.reward += st.eps_i * (st.novelty - run.novelty_mean);
  }
  st.t.reward = st.reward;
  st.t.performance = st.v;
  if (st.run_downstream && st.v > s.result.best_score) {
    s.result.best_score = st.v;
    s.result.best_dataset = ctx.space.ToDataset();
  }
  return st.v;
}

// Memory + optimization (Algorithm 2 lines 15-18): store the transition with
// its TD-error priority, then optimize from one replayed memory.
void StoreAndOptimize(const RunContext& ctx, EngineState& s, StepLocals& st) {
  PhaseGuard phase(&s.result.times, kOpt, "engine/optimize");
  double priority = s.policy->TdError(st.t);
  s.buffer.Add(std::move(st.t), priority);
  int index = s.buffer.SampleIndex(&s.rng, ctx.config.prioritized_replay);
  s.policy->Optimize(s.buffer.Get(index));
  double updated_priority = s.policy->TdError(s.buffer.Get(index));
  s.buffer.UpdatePriority(index, updated_priority);
  if (ctx.recording) {
    st.rev.priority_added = priority;
    st.rev.priority_updated = updated_priority;
    st.rev.replay_sampled = index;
    st.rev.replay_size = static_cast<int32_t>(s.buffer.size());
  }
}

// Fig. 14 metrics: distance of this step's embedding to the history and the
// count of distinct expressions seen so far. Timed as estimation, untraced.
void NoveltyMetrics(const RunContext& ctx, EngineState& s,
                    const StepLocals& st, StepTrace* trace) {
  PhaseGuard phase(&s.result.times, kEst, nullptr);
  std::vector<std::vector<double>>& history = s.run.embedding_history;
  std::vector<double> embedding = s.novelty->TargetEmbedding(st.tokens);
  // The distances fan out over the pool; the min-reduction runs here in
  // input order, so the metric is bit-identical to the serial scan at any
  // thread count.
  std::vector<double> distances(history.size());
  common::ParallelFor(
      0, static_cast<int64_t>(history.size()), ctx.est_threads,
      [&](int64_t i) {
        distances[static_cast<size_t>(i)] =
            1.0 - CosineSimilarity(embedding, history[static_cast<size_t>(i)]);
      });
  double min_distance = 1.0;
  for (double d : distances) min_distance = std::min(min_distance, d);
  if (history.empty()) min_distance = 1.0;
  trace->novelty_distance = min_distance;
  history.push_back(std::move(embedding));
  for (const ExprPtr& expr : ctx.space.GeneratedExpressions()) {
    s.run.seen_expressions.insert(ExprHash(expr));
  }
  trace->unseen_cumulative = static_cast<int>(s.run.seen_expressions.size());
}

// Step trace entry (the figure harnesses) and decision provenance (the
// flight recorder).
void RecordStep(const RunContext& ctx, EngineState& s, StepLocals& st) {
  const FeatureSpace& space = ctx.space;
  StepTrace trace;
  trace.episode = st.episode;
  trace.step = st.step;
  trace.reward = st.reward;
  trace.performance = st.v;
  trace.downstream_evaluated = st.run_downstream;
  trace.generated = st.generated;
  trace.novelty = st.novelty;
  if (ctx.config.collect_novelty_metrics) NoveltyMetrics(ctx, s, st, &trace);
  // Fig. 15: name the most label-relevant feature created this step.
  if (space.NumGenerated() > 0) {
    int best_col = -1;
    double best_rel = -1.0;
    for (int c = space.NumOriginals(); c < space.NumColumns(); ++c) {
      double rel = space.LabelRelevance(c);
      if (rel > best_rel) {
        best_rel = rel;
        best_col = c;
      }
    }
    if (best_col >= 0) trace.top_new_feature = space.ColumnName(best_col);
  }
  if (ctx.recording) {
    obs::RecordEvent& rev = st.rev;
    rev.novelty = st.novelty;
    rev.predicted = st.predicted;
    rev.performance = st.v;
    rev.reward = st.reward;
    rev.reward_performance = st.reward_performance;
    rev.reward_novelty = st.reward - st.reward_performance;
    rev.novelty_weight = st.eps_i;
    rev.downstream_evaluated = st.run_downstream;
    rev.generated = st.generated;
    rev.detail = trace.top_new_feature;
    obs::Emit(rev);
  }
  s.result.trace.push_back(std::move(trace));
  ++s.run.global_step;
}

// Algorithm 1's last step: train the Performance Predictor and the Novelty
// Estimator on the downstream-scored sequences of the cold start.
void ColdStartTrain(const RunContext& ctx, EngineState& s, int episode) {
  const EngineConfig& config = ctx.config;
  const std::vector<SequenceRecord>& records = s.run.sequence_records;
  HealthReport& health = s.result.health;
  PhaseGuard phase(&s.result.times, kOpt, "engine/coldstart_train");
  Rng train_rng(DeriveSeed(config.seed, 31));
  if (config.use_performance_predictor) {
    double mse =
        s.predictor->Fit(records, config.cold_start_train_epochs, &train_rng);
    if (FASTFT_FAULT_POINT("predictor/coldstart")) mse = kNaN;
    if (!std::isfinite(mse)) {
      health.RecordComponentFault(&health.predictor);
      RecordGuardEvent(ctx, s, obs::RecordEventKind::kFault, episode, -1,
                       "predictor/coldstart", "non-finite cold-start loss");
      ++health.skipped_updates;
    }
  }
  if (config.use_novelty) {
    std::vector<std::vector<int>> sequences;
    sequences.reserve(records.size());
    for (const SequenceRecord& r : records) sequences.push_back(r.tokens);
    double loss = s.novelty->Fit(sequences, config.cold_start_train_epochs,
                                 &train_rng, ctx.est_threads);
    if (FASTFT_FAULT_POINT("novelty/coldstart")) loss = kNaN;
    if (!std::isfinite(loss)) {
      health.RecordComponentFault(&health.novelty);
      RecordGuardEvent(ctx, s, obs::RecordEventKind::kFault, episode, -1,
                       "novelty/coldstart", "non-finite cold-start loss");
      ++health.skipped_updates;
    }
  }
  s.run.components_ready = true;
}

bool FinetuneDue(const RunContext& ctx, const EngineState& s, int episode) {
  return s.run.components_ready &&
         (episode + 1 - ctx.config.cold_start_episodes) %
                 std::max(ctx.config.finetune_every_episodes, 1) ==
             0 &&
         s.buffer.size() > 0;
}

// One finetune round of one component. Healthy: K guarded epochs, where a
// non-finite loss quarantines mid-round. Quarantined: the backoff counts
// down in finetune rounds; on expiry one probe pass decides between
// re-arming (recovery) and doubling the backoff.
template <typename Pass>
void FinetuneComponent(const RunContext& ctx, EngineState& s, int episode,
                       ComponentHealth* component, const char* site,
                       Pass&& pass) {
  HealthReport& health = s.result.health;
  if (component->quarantined()) {
    if (component->TickBackoff()) {
      double loss = pass();
      if (FASTFT_FAULT_POINT(site)) loss = kNaN;
      const bool recovered = std::isfinite(loss);
      health.ResolveProbe(component, recovered);
      RecordGuardEvent(ctx, s, obs::RecordEventKind::kHealth, episode, -1,
                       recovered ? "health/recovery" : "health/probe_failed",
                       component->name);
    }
    return;
  }
  for (int k = 0; k < ctx.config.finetune_epochs; ++k) {
    double loss = pass();
    if (FASTFT_FAULT_POINT(site)) loss = kNaN;
    if (!std::isfinite(loss)) {
      health.RecordComponentFault(component);
      RecordGuardEvent(ctx, s, obs::RecordEventKind::kFault, episode, -1,
                       site, "non-finite finetune loss");
      RecordGuardEvent(ctx, s, obs::RecordEventKind::kHealth, episode, -1,
                       "health/quarantine", component->name);
      ++health.skipped_updates;
      break;
    }
  }
}

// Algorithm 2's periodic finetune of both evaluation components on a
// uniform sample of the replay memory.
void Finetune(const RunContext& ctx, EngineState& s, int episode) {
  PhaseGuard phase(&s.result.times, kOpt, "engine/finetune");
  std::vector<int> indices =
      s.buffer.UniformSampleIndices(ctx.config.finetune_batch, &s.rng);
  std::vector<SequenceRecord> batch;
  std::vector<std::vector<int>> sequences;
  for (int idx : indices) {
    const Transition& m = s.buffer.Get(idx);
    batch.push_back({m.tokens, m.performance});
    sequences.push_back(m.tokens);
  }
  HealthReport& health = s.result.health;
  if (ctx.config.use_performance_predictor) {
    FinetuneComponent(ctx, s, episode, &health.predictor, "predictor/finetune",
                      [&] { return s.predictor->Finetune(batch); });
  }
  if (ctx.config.use_novelty) {
    FinetuneComponent(ctx, s, episode, &health.novelty, "novelty/finetune",
                      [&] {
                        return s.novelty->Finetune(sequences, ctx.est_threads);
                      });
  }
}

void WriteSnapshot(RunContext& ctx, EngineState& s) {
  if (ctx.last_snapshot.empty()) return;
  PhaseGuard phase(&s.result.times, kCkpt, "engine/checkpoint_write");
  // Kill sites for the chaos harness (tools/check_crash.sh): dying right
  // before or right after the atomic write must both leave a resumable
  // checkpoint on disk (the previous one, or this one).
  (void)FASTFT_FAULT_POINT("checkpoint/before_write");
  if (FASTFT_FAULT_POINT("checkpoint/write")) {
    FASTFT_LOG(Warning)
        << "injected checkpoint write fault; continuing without a snapshot";
    return;
  }
  const std::string& path = ctx.config.checkpoint_path;
  Status written = WriteCheckpoint(path, ctx.last_snapshot);
  if (written.ok()) {
    ctx.snapshot_dirty = false;
  } else {
    FASTFT_LOG(Warning) << "checkpoint write to '" << path
                        << "' failed: " << written.ToString()
                        << "; the run continues uncheckpointed";
  }
  (void)FASTFT_FAULT_POINT("checkpoint/after_write");
}

// Episode boundary: flush the episode's decision events, then snapshot the
// state. Only completed episodes get here — an interrupted one replays on
// resume, so its partial events stay in the rings and are discarded when
// the session closes (a flush would duplicate them after the resume).
void EndEpisode(RunContext& ctx, EngineState& s, int episode) {
  const EngineConfig& config = ctx.config;
  EngineResult& result = s.result;
  result.episode_best.push_back(result.best_score);
  if (ctx.record_stream) {
    obs::RecordEvent boundary;
    boundary.kind = obs::RecordEventKind::kEpisode;
    boundary.episode = episode;
    boundary.step = config.steps_per_episode;
    boundary.global_step = s.run.global_step;
    boundary.best_score = result.best_score;
    boundary.replay_size = static_cast<int32_t>(s.buffer.size());
    obs::Emit(boundary);
    obs::DrainedEvents drained = obs::DrainRecordedEvents();
    result.recorded_events += static_cast<int64_t>(drained.events.size());
    result.recorded_dropped += drained.TotalDropped();
    Status flushed = ctx.record_stream->FlushEpisode(episode, drained);
    if (!flushed.ok()) {
      FASTFT_LOG(Warning) << "record flush to '" << config.record_path
                          << "' failed: " << flushed.ToString()
                          << "; the run continues unrecorded for this "
                             "episode";
    }
  }
  s.run.next_episode = episode + 1;
  if (config.checkpoint_path.empty()) return;
  {
    PhaseGuard phase(&result.times, kCkpt, "engine/checkpoint_serialize");
    ctx.last_snapshot =
        SerializeEngineState(config, s, ctx.last_snapshot.size());
  }
  ctx.snapshot_dirty = true;
  if ((episode + 1) % config.checkpoint_every_episodes == 0) {
    WriteSnapshot(ctx, s);
  }
}

// End of run: put the newest boundary state on disk — whether the run
// completed (so it can be resumed with a longer horizon) or was interrupted
// mid-episode (so resume replays from the last boundary) — and close the
// result with the run's metrics delta.
void Finish(RunContext& ctx, EngineState& s, bool interrupted,
            const obs::MetricsSnapshot& metrics_start) {
  if (ctx.snapshot_dirty) WriteSnapshot(ctx, s);
  EngineResult& result = s.result;
  result.total_steps = s.run.global_step;
  result.interrupted = interrupted;
  result.completed_episodes = s.run.next_episode;
  result.estimation_cache = s.predictor->cache_stats();
  result.estimation_cache.Merge(s.novelty->cache_stats());
  if (ctx.config.metrics) {
    result.metrics = obs::DeltaSnapshot(
        metrics_start, obs::MetricsRegistry::Global().Snapshot());
  }
}

}  // namespace

FastFtEngine::FastFtEngine(EngineConfig config) : config_(std::move(config)) {}

// Algorithms 1 and 2: cold-start episodes explore with downstream feedback
// and end by training the evaluation components; warm episodes estimate,
// trigger and optimize, and finetune periodically. Every completed episode
// ends at a boundary that flushes the record stream and snapshots the state.
Result<EngineResult> FastFtEngine::Run(const Dataset& dataset) {
  Status dataset_status = dataset.Validate();
  if (!dataset_status.ok()) {
    return Status::InvalidArgument(
        "cannot run on invalid dataset '" + dataset.name + "': " +
        dataset_status.message() +
        " (check inputs with Dataset::Validate() before Run)");
  }
  FASTFT_RETURN_NOT_OK(ValidateEngineConfig(config_));
  ObsSession obs_session(config_);
  FASTFT_TRACE_SPAN("engine/run");
  // Metrics delta: counting is always on; the snapshot pair brackets this
  // run so EngineResult::metrics reports only what the run itself did.
  obs::MetricsSnapshot metrics_start;
  if (config_.metrics) {
    metrics_start = obs::MetricsRegistry::Global().Snapshot();
  }

  RunContext ctx(config_, dataset, obs_session.recording());
  std::unique_ptr<EngineState> state = SetupOrResume(ctx);
  EngineState& s = *state;
  bool interrupted = ctx.deadline.Expired();
  if (!s.result.resumed && !interrupted) {
    FASTFT_RETURN_NOT_OK(Baseline(ctx, s, &interrupted));
  }
  for (int episode = s.run.next_episode; episode < config_.episodes;
       ++episode) {
    interrupted = ctx.deadline.Expired();
    if (interrupted) break;
    FASTFT_TRACE_SPAN("engine/episode");
    Metrics().episodes->Increment();
    ctx.space.Reset();
    double prev_perf = s.result.base_score;
    for (int step = 0; step < config_.steps_per_episode; ++step) {
      interrupted = ctx.deadline.Expired();
      if (interrupted) break;
      FASTFT_TRACE_SPAN("engine/step");
      StepLocals st = SelectAction(ctx, s, episode, step);
      Estimate(ctx, s, st);
      Trigger(ctx, s, st);
      interrupted = !Evaluate(ctx, s, st, prev_perf);
      if (interrupted) break;
      prev_perf = Reward(ctx, s, st, prev_perf);
      StoreAndOptimize(ctx, s, st);
      RecordStep(ctx, s, st);
    }
    // Stop at the boundary: nothing of this episode is snapshotted, so
    // resume replays it deterministically from its start.
    if (interrupted) break;
    if (episode == config_.cold_start_episodes - 1) {
      ColdStartTrain(ctx, s, episode);
    } else if (FinetuneDue(ctx, s, episode)) {
      Finetune(ctx, s, episode);
    }
    EndEpisode(ctx, s, episode);
  }
  Finish(ctx, s, interrupted, metrics_start);
  return std::move(s.result);
}

}  // namespace fastft
