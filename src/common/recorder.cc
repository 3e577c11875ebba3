#include "common/recorder.h"

#include <algorithm>

#include "common/fs.h"
#include "common/serial.h"

namespace fastft {
namespace obs {
namespace {

using common::BinaryReader;
using common::BinaryWriter;

constexpr uint32_t kStreamMagic = 0x43524646;  // "FFRC" little-endian
constexpr uint32_t kBlockMagic = 0x4B4C4246;   // "FBLK"

void WriteAgentDecision(BinaryWriter* w, const AgentDecision& d) {
  w->WriteI32(d.action);
  w->WriteI32(d.candidates);
  w->WriteDouble(d.chosen_score);
  w->WriteDouble(d.runner_up_score);
}

AgentDecision ReadAgentDecision(BinaryReader* r) {
  AgentDecision d;
  d.action = r->ReadI32();
  d.candidates = r->ReadI32();
  d.chosen_score = r->ReadDouble();
  d.runner_up_score = r->ReadDouble();
  return d;
}

void WriteEvent(BinaryWriter* w, const RecordEvent& e) {
  w->WriteU8(static_cast<uint8_t>(e.kind));
  w->WriteI32(e.episode);
  w->WriteI32(e.step);
  w->WriteI64(e.global_step);
  switch (e.kind) {
    case RecordEventKind::kDecision:
      WriteAgentDecision(w, e.head);
      WriteAgentDecision(w, e.op);
      WriteAgentDecision(w, e.tail);
      w->WriteDouble(e.epsilon);
      w->WriteDouble(e.novelty);
      w->WriteDouble(e.predicted);
      w->WriteDouble(e.performance);
      w->WriteDouble(e.reward);
      w->WriteDouble(e.reward_performance);
      w->WriteDouble(e.reward_novelty);
      w->WriteDouble(e.novelty_weight);
      w->WriteBool(e.downstream_evaluated);
      w->WriteBool(e.generated);
      w->WriteDouble(e.priority_added);
      w->WriteDouble(e.priority_updated);
      w->WriteI32(e.replay_sampled);
      w->WriteI32(e.replay_size);
      w->WriteString(e.detail);
      break;
    case RecordEventKind::kFault:
    case RecordEventKind::kHealth:
      w->WriteString(e.site);
      w->WriteString(e.detail);
      break;
    case RecordEventKind::kEpisode:
      w->WriteDouble(e.best_score);
      w->WriteI32(e.replay_size);
      break;
  }
}

// Returns false (and fails the reader) on an unknown event kind.
bool ReadEvent(BinaryReader* r, RecordEvent* e) {
  const uint8_t kind = r->ReadU8();
  e->episode = r->ReadI32();
  e->step = r->ReadI32();
  e->global_step = r->ReadI64();
  switch (static_cast<RecordEventKind>(kind)) {
    case RecordEventKind::kDecision:
      e->kind = RecordEventKind::kDecision;
      e->head = ReadAgentDecision(r);
      e->op = ReadAgentDecision(r);
      e->tail = ReadAgentDecision(r);
      e->epsilon = r->ReadDouble();
      e->novelty = r->ReadDouble();
      e->predicted = r->ReadDouble();
      e->performance = r->ReadDouble();
      e->reward = r->ReadDouble();
      e->reward_performance = r->ReadDouble();
      e->reward_novelty = r->ReadDouble();
      e->novelty_weight = r->ReadDouble();
      e->downstream_evaluated = r->ReadBool();
      e->generated = r->ReadBool();
      e->priority_added = r->ReadDouble();
      e->priority_updated = r->ReadDouble();
      e->replay_sampled = r->ReadI32();
      e->replay_size = r->ReadI32();
      e->detail = r->ReadString();
      return r->ok();
    case RecordEventKind::kFault:
    case RecordEventKind::kHealth:
      e->kind = static_cast<RecordEventKind>(kind);
      e->site = r->ReadString();
      e->detail = r->ReadString();
      return r->ok();
    case RecordEventKind::kEpisode:
      e->kind = RecordEventKind::kEpisode;
      e->best_score = r->ReadDouble();
      e->replay_size = r->ReadI32();
      return r->ok();
  }
  r->Fail("unknown record-event kind " + std::to_string(kind));
  return false;
}

std::string StreamHeader() {
  BinaryWriter w;
  w.WriteU32(kStreamMagic);
  w.WriteU32(kRecordStreamVersion);
  return w.Release();
}

// One per-episode block:
//   u32 block magic | i32 episode | u64 payload size | payload | u32 CRC
// payload = u64 event count | events | u64 tid count | (i32 tid, i64 drop)*
// The writer drops nothing, so its tid count is always 0.
std::string SerializeBlock(int32_t episode,
                           const std::vector<RecordEvent>& events) {
  BinaryWriter payload;
  payload.WriteU64(events.size());
  for (const RecordEvent& e : events) WriteEvent(&payload, e);
  payload.WriteU64(0);
  BinaryWriter block;
  block.WriteU32(kBlockMagic);
  block.WriteI32(episode);
  const std::string& bytes = payload.buffer();
  block.WriteU64(bytes.size());
  block.WriteBytes(bytes.data(), bytes.size());
  block.WriteU32(common::Crc32(bytes.data(), bytes.size()));
  return block.Release();
}

struct ParsedStream {
  DecodedRecordStream decoded;
  /// Byte offset where each block starts (for resume truncation).
  std::vector<size_t> block_offsets;
};

Result<ParsedStream> ParseStream(const std::string& bytes,
                                 const std::string& path) {
  ParsedStream parsed;
  BinaryReader header(std::string_view(bytes).substr(
      0, std::min<size_t>(bytes.size(), 8)));
  const uint32_t magic = header.ReadU32();
  const uint32_t version = header.ReadU32();
  if (!header.ok() || magic != kStreamMagic) {
    return Status::InvalidArgument(
        "'" + path + "' is not a FastFT record stream (bad magic)");
  }
  if (version != kRecordStreamVersion) {
    return Status::InvalidArgument(
        "record stream '" + path + "' has version " + std::to_string(version) +
        "; this build reads version " + std::to_string(kRecordStreamVersion));
  }
  parsed.decoded.version = version;

  size_t pos = 8;
  while (pos < bytes.size()) {
    parsed.block_offsets.push_back(pos);
    BinaryReader r(std::string_view(bytes).substr(pos));
    const uint32_t block_magic = r.ReadU32();
    const int32_t episode = r.ReadI32();
    const uint64_t payload_size = r.ReadU64();
    if (!r.ok() || block_magic != kBlockMagic) {
      return Status::InvalidArgument(
          "record stream '" + path + "': corrupt block header at byte " +
          std::to_string(pos));
    }
    if (payload_size > r.remaining() ||
        r.remaining() - payload_size < sizeof(uint32_t)) {
      return Status::InvalidArgument(
          "record stream '" + path + "': truncated block at byte " +
          std::to_string(pos));
    }
    const char* payload = bytes.data() + pos + 16;
    BinaryReader crc_reader(
        std::string_view(payload + payload_size, sizeof(uint32_t)));
    const uint32_t stored_crc = crc_reader.ReadU32();
    if (common::Crc32(payload, payload_size) != stored_crc) {
      return Status::InvalidArgument(
          "record stream '" + path + "': CRC mismatch in episode " +
          std::to_string(episode) + " block");
    }
    BinaryReader pr(std::string_view(payload, payload_size));
    const uint64_t event_count = pr.ReadU64();
    for (uint64_t i = 0; i < event_count; ++i) {
      RecordEvent e;
      if (!ReadEvent(&pr, &e)) break;
      parsed.decoded.events.push_back(std::move(e));
    }
    const uint64_t tid_count = pr.ReadU64();
    for (uint64_t i = 0; i < tid_count && pr.ok(); ++i) {
      const int32_t tid = pr.ReadI32();
      const int64_t dropped = pr.ReadI64();
      parsed.decoded.dropped_by_tid[tid] += dropped;
    }
    if (!pr.ok()) {
      return Status::InvalidArgument("record stream '" + path +
                                     "': malformed episode " +
                                     std::to_string(episode) +
                                     " block: " + pr.status().message());
    }
    parsed.decoded.episodes.push_back(episode);
    pos += 16 + payload_size + sizeof(uint32_t);
  }
  return parsed;
}

}  // namespace

const char* RecordEventKindName(RecordEventKind kind) {
  switch (kind) {
    case RecordEventKind::kDecision:
      return "decision";
    case RecordEventKind::kFault:
      return "fault";
    case RecordEventKind::kHealth:
      return "health";
    case RecordEventKind::kEpisode:
      return "episode";
  }
  return "?";
}

Result<DecodedRecordStream> ReadRecordStream(const std::string& path) {
  std::string bytes;
  FASTFT_RETURN_NOT_OK(common::ReadFileToString(path, &bytes));
  Result<ParsedStream> parsed = ParseStream(bytes, path);
  FASTFT_RETURN_NOT_OK(parsed.status());
  return std::move(parsed.value().decoded);
}

RecordStream RecordStream::Open(const std::string& path, int resume_episode) {
  std::string retained = StreamHeader();
  int64_t blocks = 0;
  if (resume_episode > 0) {
    std::string bytes;
    Status read = common::ReadFileToString(path, &bytes);
    if (read.ok()) {
      Result<ParsedStream> parsed = ParseStream(bytes, path);
      if (parsed.ok()) {
        const ParsedStream& ps = parsed.value();
        // Keep the longest prefix of blocks strictly below the resume
        // cursor; the interrupted episode replays and re-flushes.
        size_t keep_end = 8;
        for (size_t i = 0; i < ps.decoded.episodes.size(); ++i) {
          if (ps.decoded.episodes[i] >= resume_episode) break;
          keep_end = i + 1 < ps.block_offsets.size()
                         ? ps.block_offsets[i + 1]
                         : bytes.size();
          ++blocks;
        }
        retained = bytes.substr(0, keep_end);
      }
      // An unreadable or foreign stream is discarded: recording must never
      // block a resume (the checkpoint, not the stream, is authoritative).
    }
  }
  return RecordStream(path, std::move(retained), blocks);
}

Status RecordStream::FlushEpisode(int32_t episode) {
  buffer_ += SerializeBlock(episode, pending_);
  pending_.clear();
  ++episode_blocks_;
  const size_t slash = path_.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    FASTFT_RETURN_NOT_OK(common::EnsureDir(path_.substr(0, slash)));
  }
  return common::AtomicWriteFile(path_, buffer_);
}

}  // namespace obs
}  // namespace fastft
