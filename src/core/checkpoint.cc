#include "core/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/fs.h"

namespace fastft {
namespace {

using common::BinaryReader;
using common::BinaryWriter;

constexpr char kMagic[4] = {'F', 'F', 'C', 'P'};
constexpr uint32_t kVersion = 1;
// magic + version + fingerprint + payload size ... payload ... CRC footer.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;
constexpr size_t kFooterBytes = 4;

// --- config fingerprint -----------------------------------------------------

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

uint64_t EngineConfigFingerprint(const EngineConfig& c) {
  BinaryWriter w;
  // Schedule shape. `episodes` is deliberately absent: nothing inside the
  // episode loop reads it, so a checkpoint taken at episode k restores into
  // a run with any horizon >= k.
  w.WriteI32(c.steps_per_episode);
  w.WriteI32(c.cold_start_episodes);
  // Components & ablations.
  w.WriteBool(c.use_performance_predictor);
  w.WriteBool(c.use_novelty);
  w.WriteBool(c.prioritized_replay);
  w.WriteI32(c.finetune_every_episodes);
  // Finetune epochs and batch: fixed constants, still written (like
  // kMiBins below) so existing checkpoints keep their fingerprint.
  w.WriteI32(EngineConfig::kFinetuneEpochs);
  w.WriteI32(c.cold_start_train_epochs);
  w.WriteI32(EngineConfig::kFinetuneBatch);
  // Triggers, reward schedule, memory, exploration annealing.
  w.WriteDouble(c.alpha_percentile);
  w.WriteDouble(c.beta_percentile);
  w.WriteDouble(c.novelty_weight_start);
  w.WriteDouble(c.novelty_weight_end);
  w.WriteI32(c.novelty_decay_steps);
  w.WriteI32(c.memory_size);
  w.WriteDouble(c.epsilon_start);
  w.WriteDouble(c.epsilon_end);
  w.WriteI32(c.epsilon_decay_steps);
  // RL framework + agent hyperparameters.
  w.WriteI32(static_cast<int32_t>(c.framework));
  w.WriteI32(c.agent.hidden_dim);
  w.WriteDouble(c.agent.actor_lr);
  w.WriteDouble(c.agent.critic_lr);
  w.WriteDouble(c.agent.gamma);
  w.WriteDouble(c.agent.temperature);
  w.WriteDouble(c.agent.epsilon);
  w.WriteU64(c.agent.seed);
  w.WriteI32(c.q_agent.hidden_dim);
  w.WriteDouble(c.q_agent.learning_rate);
  w.WriteDouble(c.q_agent.gamma);
  w.WriteDouble(c.q_agent.epsilon);
  w.WriteI32(c.q_agent.target_sync_every);
  w.WriteU64(c.q_agent.seed);
  w.WriteI32(static_cast<int32_t>(c.backbone));
  // Substrate.
  w.WriteI32(c.feature_space.max_features);
  w.WriteI32(c.feature_space.max_new_per_step);
  w.WriteI32(c.feature_space.max_expr_depth);
  w.WriteDouble(c.feature_space.min_std);
  w.WriteI32(static_cast<int32_t>(c.clustering.mode));
  w.WriteU64(c.clustering.random_seed);
  w.WriteDouble(c.clustering.distance_threshold);
  w.WriteI32(c.clustering.min_clusters);
  w.WriteI32(c.clustering.max_clusters);
  w.WriteDouble(c.clustering.varsigma);
  // MI bins per column: fixed at kMiBins, still written so existing
  // checkpoints keep their fingerprint.
  w.WriteI32(FeatureSpace::kMiBins);
  // Evaluator (thread counts excluded: scores are bit-identical at any).
  w.WriteI32(static_cast<int32_t>(c.evaluator.model));
  w.WriteI32(c.evaluator.folds);
  w.WriteI32(c.evaluator.forest_trees);
  w.WriteI32(c.evaluator.forest_depth);
  w.WriteU64(c.evaluator.seed);
  w.WriteI32(c.tokenizer_feature_buckets);
  w.WriteI32(c.tokenizer_max_length);
  w.WriteBool(c.collect_novelty_metrics);
  w.WriteU64(c.seed);
  return Fnv1a64(w.buffer());
}

namespace {

// --- payload pieces ---------------------------------------------------------

void WriteDataset(const Dataset& ds, BinaryWriter* w) {
  w->WriteString(ds.name);
  w->WriteU8(static_cast<uint8_t>(ds.task));
  w->WriteVecDouble(ds.labels);
  w->WriteU32(static_cast<uint32_t>(ds.features.NumCols()));
  for (int i = 0; i < ds.features.NumCols(); ++i) {
    w->WriteString(ds.features.Name(i));
    w->WriteVecDouble(ds.features.Col(i));
  }
}

void ReadDataset(BinaryReader* r, Dataset* ds) {
  ds->name = r->ReadString();
  uint8_t task = r->ReadU8();
  if (!r->ok()) return;
  if (task > static_cast<uint8_t>(TaskType::kDetection)) {
    r->Fail("corrupted dataset task id " + std::to_string(task));
    return;
  }
  ds->task = static_cast<TaskType>(task);
  ds->labels = r->ReadVecDouble();
  uint32_t cols = r->ReadU32();
  ds->features = DataFrame();
  for (uint32_t i = 0; r->ok() && i < cols; ++i) {
    std::string name = r->ReadString();
    std::vector<double> values = r->ReadVecDouble();
    if (!r->ok()) return;
    Status added = ds->features.AddColumn(std::move(name), std::move(values));
    if (!added.ok()) {
      r->Fail("corrupted dataset column " + std::to_string(i) + ": " +
              added.message());
      return;
    }
  }
}

void WriteStepTrace(const StepTrace& t, BinaryWriter* w) {
  w->WriteI32(t.episode);
  w->WriteI32(t.step);
  w->WriteDouble(t.reward);
  w->WriteDouble(t.performance);
  w->WriteBool(t.downstream_evaluated);
  w->WriteBool(t.generated);
  w->WriteDouble(t.novelty);
  w->WriteDouble(t.novelty_distance);
  w->WriteI32(t.unseen_cumulative);
  w->WriteString(t.top_new_feature);
}

void ReadStepTrace(BinaryReader* r, StepTrace* t) {
  t->episode = r->ReadI32();
  t->step = r->ReadI32();
  t->reward = r->ReadDouble();
  t->performance = r->ReadDouble();
  t->downstream_evaluated = r->ReadBool();
  t->generated = r->ReadBool();
  t->novelty = r->ReadDouble();
  t->novelty_distance = r->ReadDouble();
  t->unseen_cumulative = r->ReadI32();
  t->top_new_feature = r->ReadString();
}

void WriteHistory(const std::vector<std::vector<double>>& h, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(h.size()));
  for (const std::vector<double>& v : h) w->WriteVecDouble(v);
}

void ReadHistory(BinaryReader* r, std::vector<std::vector<double>>* h) {
  uint32_t count = r->ReadU32();
  h->clear();
  for (uint32_t i = 0; r->ok() && i < count; ++i) {
    h->push_back(r->ReadVecDouble());
  }
}

void WritePayload(const EngineState& state, BinaryWriter* w) {
  const EngineRunState& rs = state.run;
  const EngineResult& result = state.result;

  // Cursors and scalars.
  w->WriteI32(rs.next_episode);
  w->WriteI32(rs.global_step);
  w->WriteBool(rs.components_ready);
  w->WriteI64(rs.warm_steps);
  w->WriteI64(rs.warm_evals);
  w->WriteDouble(rs.novelty_mean);
  w->WriteI64(rs.novelty_count);

  // Histories.
  w->WriteU32(static_cast<uint32_t>(rs.sequence_records.size()));
  for (const SequenceRecord& rec : rs.sequence_records) {
    w->WriteVecInt(rec.tokens);
    w->WriteDouble(rec.score);
  }
  WriteHistory(rs.prediction_history, w);
  WriteHistory(rs.novelty_history, w);
  WriteHistory(rs.embedding_history, w);
  // Hash-set contents are serialized sorted so identical logical state
  // yields identical bytes regardless of hash-table layout.
  std::vector<uint64_t> seen(rs.seen_expressions.begin(),
                             rs.seen_expressions.end());
  std::sort(seen.begin(), seen.end());
  w->WriteVecU64(seen);

  // RNG stream + learned components.
  w->WriteString(state.rng.SaveState());
  state.policy->SaveState(w);
  state.buffer.SaveState(w);
  state.predictor->SaveState(w);
  state.novelty->SaveState(w);

  // Accumulated result (the deterministic fields; wall-clock buckets,
  // metrics deltas, and cache counters are volatile and re-derived).
  w->WriteDouble(result.base_score);
  w->WriteDouble(result.best_score);
  WriteDataset(result.best_dataset, w);
  w->WriteVecDouble(result.episode_best);
  w->WriteI64(result.downstream_evaluations);
  w->WriteI64(result.predictor_estimations);
  w->WriteU32(static_cast<uint32_t>(result.trace.size()));
  for (const StepTrace& t : result.trace) WriteStepTrace(t, w);
  result.health.SaveState(w);
}

void ReadPayload(BinaryReader* r, EngineState* state) {
  EngineRunState& rs = state->run;
  EngineResult& result = state->result;

  rs.next_episode = r->ReadI32();
  rs.global_step = r->ReadI32();
  rs.components_ready = r->ReadBool();
  rs.warm_steps = r->ReadI64();
  rs.warm_evals = r->ReadI64();
  rs.novelty_mean = r->ReadDouble();
  rs.novelty_count = r->ReadI64();
  if (!r->ok()) return;
  if (rs.next_episode < 0 || rs.global_step < 0) {
    r->Fail("corrupted cursors: next_episode " +
            std::to_string(rs.next_episode) + ", global_step " +
            std::to_string(rs.global_step));
    return;
  }

  uint32_t record_count = r->ReadU32();
  rs.sequence_records.clear();
  for (uint32_t i = 0; r->ok() && i < record_count; ++i) {
    SequenceRecord rec;
    rec.tokens = r->ReadVecInt();
    rec.score = r->ReadDouble();
    rs.sequence_records.push_back(std::move(rec));
  }
  ReadHistory(r, &rs.prediction_history);
  ReadHistory(r, &rs.novelty_history);
  ReadHistory(r, &rs.embedding_history);
  std::vector<uint64_t> seen = r->ReadVecU64();
  rs.seen_expressions =
      std::unordered_set<uint64_t>(seen.begin(), seen.end());
  if (!r->ok()) return;

  std::string rng_state = r->ReadString();
  if (!r->ok()) return;
  if (!state->rng.LoadState(rng_state)) {
    r->Fail("corrupted RNG stream state");
    return;
  }
  state->policy->LoadState(r);
  state->buffer.LoadState(r);
  state->predictor->LoadState(r);
  state->novelty->LoadState(r);
  if (!r->ok()) return;

  result.base_score = r->ReadDouble();
  result.best_score = r->ReadDouble();
  ReadDataset(r, &result.best_dataset);
  result.episode_best = r->ReadVecDouble();
  result.downstream_evaluations = r->ReadI64();
  result.predictor_estimations = r->ReadI64();
  uint32_t trace_count = r->ReadU32();
  result.trace.clear();
  for (uint32_t i = 0; r->ok() && i < trace_count; ++i) {
    StepTrace t;
    ReadStepTrace(r, &t);
    result.trace.push_back(std::move(t));
  }
  result.health.LoadState(r);
}

}  // namespace

std::string SerializeEngineState(const EngineConfig& config,
                                 const EngineState& state,
                                 size_t reserve_hint) {
  // Header and payload share one buffer: payloads run to megabytes per
  // episode, so a separate payload buffer would cost a full extra copy.
  // The payload-size field is back-patched once the body length is known.
  BinaryWriter w;
  if (reserve_hint > 0) w.Reserve(reserve_hint + reserve_hint / 8);
  w.WriteBytes(kMagic, sizeof(kMagic));
  w.WriteU32(kVersion);
  w.WriteU64(EngineConfigFingerprint(config));
  w.WriteU64(0);  // payload size placeholder, patched below.
  WritePayload(state, &w);
  std::string envelope = w.Release();
  const uint64_t body_size = envelope.size() - kHeaderBytes;
  std::memcpy(&envelope[kHeaderBytes - sizeof(uint64_t)], &body_size,
              sizeof(body_size));
  const uint32_t crc =
      common::Crc32(envelope.data() + kHeaderBytes, body_size);
  envelope.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return envelope;
}

Status WriteCheckpoint(const std::string& path, const std::string& envelope) {
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    FASTFT_RETURN_NOT_OK(common::EnsureDir(path.substr(0, slash)));
  }
  return common::AtomicWriteFile(path, envelope);
}

Status RestoreEngineState(const std::string& path, const EngineConfig& config,
                          EngineState* state) {
  std::string blob;
  FASTFT_RETURN_NOT_OK(common::ReadFileToString(path, &blob));

  if (blob.size() < kHeaderBytes + kFooterBytes) {
    return Status::InvalidArgument(
        "truncated checkpoint '" + path + "': " +
        std::to_string(blob.size()) + " bytes, envelope needs at least " +
        std::to_string(kHeaderBytes + kFooterBytes));
  }
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a fastft checkpoint (bad magic)");
  }
  BinaryReader header(std::string_view(blob).substr(sizeof(kMagic)));
  uint32_t version = header.ReadU32();
  if (version != kVersion) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' has version " + std::to_string(version) +
        ", this binary reads version " + std::to_string(kVersion));
  }
  uint64_t fingerprint = header.ReadU64();
  uint64_t expected = EngineConfigFingerprint(config);
  if (fingerprint != expected) {
    return Status::InvalidArgument(
        "checkpoint '" + path +
        "' was written under a different engine configuration (fingerprint " +
        std::to_string(fingerprint) + ", current config " +
        std::to_string(expected) + "); resuming would not be deterministic");
  }
  uint64_t payload_size = header.ReadU64();
  if (payload_size != blob.size() - kHeaderBytes - kFooterBytes) {
    return Status::InvalidArgument(
        "truncated checkpoint '" + path + "': header promises " +
        std::to_string(payload_size) + " payload bytes, file holds " +
        std::to_string(blob.size() - kHeaderBytes - kFooterBytes));
  }
  std::string_view body =
      std::string_view(blob).substr(kHeaderBytes, payload_size);
  BinaryReader footer(
      std::string_view(blob).substr(kHeaderBytes + payload_size));
  uint32_t stored_crc = footer.ReadU32();
  uint32_t actual_crc = common::Crc32(body.data(), body.size());
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' failed its CRC-32 check (stored " +
        std::to_string(stored_crc) + ", computed " +
        std::to_string(actual_crc) + "): the file is corrupted");
  }

  BinaryReader payload(body);
  ReadPayload(&payload, state);
  if (!payload.ok()) {
    return Status::InvalidArgument("checkpoint '" + path + "' is corrupted: " +
                                   payload.status().message());
  }
  if (payload.remaining() != 0) {
    return Status::InvalidArgument(
        "checkpoint '" + path + "' has " +
        std::to_string(payload.remaining()) +
        " trailing bytes after the payload: the file is corrupted");
  }
  return Status::OK();
}

}  // namespace fastft
