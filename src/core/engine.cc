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
#include "core/evaluation_memo.h"
#include "core/mutual_information.h"
#include "core/state.h"

namespace fastft {
namespace {

// Arms tracing for the duration of one Run(), and writes the Chrome-trace
// export on every exit path (early Status returns included). Declared before
// the "engine/run" span so the span closes — and lands in a ring — before
// the rings are frozen and exported.
class TraceSession {
 public:
  explicit TraceSession(const EngineConfig& config)
      : trace_path_(config.trace_path) {
    if (trace_path_.empty()) return;
    obs::TraceOptions options;
    options.ring_capacity = static_cast<size_t>(config.trace_ring_capacity);
    obs::StartTracing(options);
  }
  ~TraceSession() {
    if (trace_path_.empty()) return;
    obs::StopTracing();
    Status status = obs::WriteChromeTrace(trace_path_);
    if (!status.ok()) {
      FASTFT_LOG(Warning) << "failed to write trace to '" << trace_path_
                          << "': " << status.ToString();
    }
  }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  const std::string trace_path_;
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
  RunContext(const EngineConfig& config, const Dataset& dataset)
      : config(config),
        dataset(dataset),
        deadline(config.wall_clock_budget_ms, config.cancel_flag.get()),
        space(dataset, SpaceConfig(config, dataset)),
        tokenizer(config.tokenizer_feature_buckets,
                  config.tokenizer_max_length),
        evaluator(EvalConfig(config, &deadline)) {}

  const EngineConfig& config;
  const Dataset& dataset;
  // Cooperative deadline watchdog, armed before anything else is built so
  // even the baseline respects the budget; checked at episode/step
  // boundaries and per fold inside the evaluator.
  common::DeadlineToken deadline;
  FeatureSpace space;  // reset at every episode start
  Tokenizer tokenizer;
  Evaluator evaluator;
  // Open iff the run records (config.record_path set); holds the current
  // episode's decision events until EndEpisode flushes them.
  std::optional<obs::RecordStream> record_stream;
  // The newest episode-boundary snapshot (pure serialization), written at
  // the configured cadence and by Finish() when newer than the disk copy.
  std::string last_snapshot;
  bool snapshot_dirty = false;
  // Each distinct candidate's downstream score (core/evaluation_memo.h).
  // Not checkpointed: a resumed run refills it with equal scores.
  EvaluationMemo memo;
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
  // The candidate dataset Evaluate built (empty after a memo hit), handed to
  // Reward for best_dataset.
  std::optional<Dataset> candidate;
  obs::RecordEvent rev;  // step provenance, filled as the step computes
};

// Interleaves a fault / health-ladder event into the decision stream (no-op
// when recording is off; never observable in scores or reports).
void RecordGuardEvent(RunContext& ctx, const EngineState& s,
                      obs::RecordEventKind kind, int episode, int step,
                      const char* site, std::string detail) {
  if (!ctx.record_stream) return;
  obs::RecordEvent ev;
  ev.kind = kind;
  ev.episode = episode;
  ev.step = step;
  ev.global_step = s.run.global_step;
  ev.site = site;
  ev.detail = std::move(detail);
  ctx.record_stream->Append(ev);
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
  if (!config.record_path.empty()) {
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
  obs::TraceSpan phase("engine/evaluate", &result.times.evaluation_ns);
  double base = ctx.evaluator.Evaluate(ctx.dataset);
  ++result.downstream_evaluations;
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
    obs::TraceSpan phase("engine/select_action",
                         &s.result.times.optimization_ns);
    // Sub-spans of select_action: traced only, no PhaseTimes bucket.
    auto cluster = [&] {
      obs::TraceSpan span("engine/cluster");
      return ClusterFeatures(space, config.clustering);
    };
    std::vector<std::vector<int>> clusters = cluster();
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

    {
      obs::TraceSpan span("engine/apply_operation");
      added = space.ApplyOperation(op, head_cluster, tail_cluster, &s.rng);
    }
    t.next_state = FeatureSetState(space);
    // Candidates at the next state — only the Q-learning variants need
    // them for bootstrap targets; skip the extra clustering otherwise.
    if (config.framework != RlFramework::kActorCritic) {
      std::vector<std::vector<int>> next_clusters = cluster();
      t.next_head_inputs = ClusterInputs(space, next_clusters, {},
                                         t.next_state,
                                         CascadePolicy::HeadInputDim());
    }
  }
  st.generated = added > 0;
  if (ctx.record_stream) {
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
bool GuardEstimate(RunContext& ctx, EngineState& s, const StepLocals& st,
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
void Estimate(RunContext& ctx, EngineState& s, StepLocals& st) {
  if (!s.run.components_ready) return;
  HealthReport& health = s.result.health;
  obs::TraceSpan phase("engine/estimate", &s.result.times.estimation_ns);
  if (ctx.config.use_performance_predictor &&
      !health.predictor.quarantined()) {
    st.predicted = s.predictor->Predict(st.t.tokens);
    ++s.result.predictor_estimations;
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
  obs::TraceSpan phase("engine/evaluate", &s.result.times.evaluation_ns);
  // One guarded evaluation: the evaluator fans the candidate's folds out
  // across the shared pool (bit-identical to serial — every fold's seed is
  // fixed), while the fault point and every health-ladder decision run on
  // this thread. A candidate this run already scored takes its memoized
  // score and still passes the fault point, the ladder and the deadline
  // check, and still counts as a downstream evaluation.
  double measured = ctx.memo.Score(ctx.space, ctx.evaluator, &st.candidate);
  ++s.result.downstream_evaluations;
  if (FASTFT_FAULT_POINT("evaluator/evaluate")) measured = kNaN;
  // The deadline fired inside the evaluation: `measured` may cover only some
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
    s.result.best_dataset =
        st.candidate ? std::move(*st.candidate) : ctx.space.ToDataset();
  }
  st.candidate.reset();
  return st.v;
}

// Memory + optimization (Algorithm 2 lines 15-18): store the transition with
// its TD-error priority, then optimize from one replayed memory.
void StoreAndOptimize(const RunContext& ctx, EngineState& s, StepLocals& st) {
  obs::TraceSpan phase("engine/optimize", &s.result.times.optimization_ns);
  double priority = s.policy->TdError(st.t);
  s.buffer.Add(std::move(st.t), priority);
  int index = s.buffer.SampleIndex(&s.rng, ctx.config.prioritized_replay);
  s.policy->Optimize(s.buffer.Get(index));
  double updated_priority = s.policy->TdError(s.buffer.Get(index));
  s.buffer.UpdatePriority(index, updated_priority);
  if (ctx.record_stream) {
    st.rev.priority_added = priority;
    st.rev.priority_updated = updated_priority;
    st.rev.replay_sampled = index;
    st.rev.replay_size = static_cast<int32_t>(s.buffer.size());
  }
}

// Fig. 14 metrics: distance of this step's embedding to the history and the
// count of distinct expressions seen so far. Timed as estimation.
void NoveltyMetrics(const RunContext& ctx, EngineState& s,
                    const StepLocals& st, StepTrace* trace) {
  obs::TraceSpan phase("engine/novelty_metrics", &s.result.times.estimation_ns);
  std::vector<std::vector<double>>& history = s.run.embedding_history;
  std::vector<double> embedding = s.novelty->TargetEmbedding(st.tokens);
  double min_distance = 1.0;
  for (const std::vector<double>& seen : history) {
    min_distance =
        std::min(min_distance, 1.0 - CosineSimilarity(embedding, seen));
  }
  trace->novelty_distance = min_distance;
  history.push_back(std::move(embedding));
  for (const ExprPtr& expr : ctx.space.GeneratedExpressions()) {
    s.run.seen_expressions.insert(ExprHash(expr));
  }
  trace->unseen_cumulative = static_cast<int>(s.run.seen_expressions.size());
}

// Step trace entry (the figure harnesses) and decision provenance (the
// flight recorder).
void RecordStep(RunContext& ctx, EngineState& s, StepLocals& st) {
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
  if (ctx.record_stream) {
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
    ctx.record_stream->Append(rev);
  }
  s.result.trace.push_back(std::move(trace));
  ++s.run.global_step;
}

// Algorithm 1's last step: train the Performance Predictor and the Novelty
// Estimator on the downstream-scored sequences of the cold start.
void ColdStartTrain(RunContext& ctx, EngineState& s, int episode) {
  const EngineConfig& config = ctx.config;
  const std::vector<SequenceRecord>& records = s.run.sequence_records;
  HealthReport& health = s.result.health;
  obs::TraceSpan phase("engine/coldstart_train",
                       &s.result.times.optimization_ns);
  Rng train_rng(DeriveSeed(config.seed, 31));
  if (config.use_performance_predictor) {
    double mse = [&] {
      obs::TraceSpan span("engine/train_predictor");
      return s.predictor->Fit(records, config.cold_start_train_epochs,
                              &train_rng);
    }();
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
    double loss = [&] {
      obs::TraceSpan span("engine/train_novelty");
      return s.novelty->Fit(sequences, config.cold_start_train_epochs,
                            &train_rng);
    }();
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
void FinetuneComponent(RunContext& ctx, EngineState& s, int episode,
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
  for (int k = 0; k < EngineConfig::kFinetuneEpochs; ++k) {
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
void Finetune(RunContext& ctx, EngineState& s, int episode) {
  obs::TraceSpan phase("engine/finetune", &s.result.times.optimization_ns);
  std::vector<int> indices =
      s.buffer.UniformSampleIndices(EngineConfig::kFinetuneBatch, &s.rng);
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
                      [&] {
                        obs::TraceSpan span("engine/train_predictor");
                        return s.predictor->Finetune(batch);
                      });
  }
  if (ctx.config.use_novelty) {
    FinetuneComponent(ctx, s, episode, &health.novelty, "novelty/finetune",
                      [&] {
                        obs::TraceSpan span("engine/train_novelty");
                        return s.novelty->Finetune(sequences);
                      });
  }
}

void WriteSnapshot(RunContext& ctx, EngineState& s) {
  if (ctx.last_snapshot.empty()) return;
  obs::TraceSpan phase("engine/checkpoint_write",
                       &s.result.times.checkpoint_ns);
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
// state when the snapshot can be read. Only completed episodes get here —
// an interrupted one replays on resume, so its partial events stay pending
// and die with the stream (a flush would duplicate them after the resume).
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
    ctx.record_stream->Append(boundary);
    result.recorded_events += ctx.record_stream->pending_events();
    Status flushed = ctx.record_stream->FlushEpisode(episode);
    if (!flushed.ok()) {
      FASTFT_LOG(Warning) << "record flush to '" << config.record_path
                          << "' failed: " << flushed.ToString()
                          << "; the run continues unrecorded for this "
                             "episode";
    }
  }
  s.run.next_episode = episode + 1;
  if (config.checkpoint_path.empty()) return;
  // Serialize only a snapshot something can read: one written now, or one
  // Finish() writes. A run without a budget or cancel flag reaches Finish()
  // only after its last episode (a kill resumes from the file on disk), so
  // only that boundary's snapshot can still be written there.
  const bool write_due =
      (episode + 1) % config.checkpoint_every_episodes == 0;
  const bool interruptible =
      config.wall_clock_budget_ms > 0 || config.cancel_flag != nullptr;
  if (!write_due && !interruptible && episode + 1 < config.episodes) return;
  {
    obs::TraceSpan phase("engine/checkpoint_serialize",
                         &result.times.checkpoint_ns);
    ctx.last_snapshot =
        SerializeEngineState(config, s, ctx.last_snapshot.size());
  }
  ctx.snapshot_dirty = true;
  if (write_due) WriteSnapshot(ctx, s);
}

// End of run: put the newest boundary state on disk — whether the run
// completed (so it can be resumed with a longer horizon) or was interrupted
// mid-episode (so resume replays from the last boundary) — and close the
// result with the run's counted work: its evaluator's counts and memo hits,
// then the shared pool's delta over the run (its counter and histograms).
void Finish(RunContext& ctx, EngineState& s, bool interrupted,
            const obs::MetricsSnapshot& pool_start) {
  if (ctx.snapshot_dirty) WriteSnapshot(ctx, s);
  EngineResult& result = s.result;
  result.total_steps = s.run.global_step;
  result.interrupted = interrupted;
  result.completed_episodes = s.run.next_episode;
  result.estimation_cache = s.predictor->cache_stats();
  result.estimation_cache.Merge(s.novelty->cache_stats());
  const Evaluator& evaluator = ctx.evaluator;
  const std::pair<const char*, int64_t> counted[] = {
      {"evaluator.evaluations", evaluator.evaluation_count()},
      {"evaluator.memo_hits", ctx.memo.hits()},
      {"evaluator.folds", evaluator.fold_count()},
      {"evaluator.folds_skipped", evaluator.skipped_fold_count()},
      {"forest.trees_fit", evaluator.trees_fit()}};
  for (const auto& [name, count] : counted) {
    if (count == 0) continue;
    result.metrics.values.push_back(
        {name, obs::MetricKind::kCounter, count, {}});
  }
  obs::MetricsSnapshot pool =
      obs::DeltaSnapshot(pool_start, common::PoolMetricsSnapshot());
  for (obs::MetricValue& value : pool.values) {
    result.metrics.values.push_back(std::move(value));
  }
}

}  // namespace

FastFtEngine::FastFtEngine(EngineConfig config) : config_(std::move(config)) {}

// Algorithms 1 and 2: cold-start episodes explore with downstream feedback
// and end by training the evaluation components; warm episodes estimate,
// trigger and optimize, and finetune periodically. Every completed episode
// ends at a boundary that flushes the record stream and, when the snapshot
// can be read, snapshots the state.
Result<EngineResult> FastFtEngine::Run(const Dataset& dataset) {
  Status dataset_status = dataset.Validate();
  if (!dataset_status.ok()) {
    return Status::InvalidArgument(
        "cannot run on invalid dataset '" + dataset.name + "': " +
        dataset_status.message() +
        " (check inputs with Dataset::Validate() before Run)");
  }
  FASTFT_RETURN_NOT_OK(ValidateEngineConfig(config_));
  TraceSession trace_session(config_);
  FASTFT_TRACE_SPAN("engine/run");
  // The shared pool's counts are reported as their delta over this run;
  // Finish() adds the run's own counts.
  const obs::MetricsSnapshot pool_start = common::PoolMetricsSnapshot();

  RunContext ctx(config_, dataset);
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
  Finish(ctx, s, interrupted, pool_start);
  return std::move(s.result);
}

}  // namespace fastft
