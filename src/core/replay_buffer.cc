#include "core/replay_buffer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"

namespace fastft {
namespace {
constexpr double kMinPriority = 1e-4;

// A NaN TD error must not become a NaN priority: std::max(std::abs(NaN), x)
// returns NaN, which later trips Rng::SampleDiscrete's non-negative-weight
// check mid-run. Non-finite errors carry no magnitude signal, so they get
// the floor priority and stay sampleable.
double ClampPriority(double priority) {
  if (!std::isfinite(priority)) return kMinPriority;
  return std::max(std::abs(priority), kMinPriority);
}
}  // namespace

void PrioritizedReplayBuffer::Add(Transition transition, double priority) {
  FASTFT_TRACE_SPAN("replay/add");
  double p = ClampPriority(priority);
  if (!Full()) {
    items_.push_back(std::move(transition));
    priorities_.push_back(p);
    return;
  }
  items_[next_slot_] = std::move(transition);
  priorities_[next_slot_] = p;
  next_slot_ = (next_slot_ + 1) % capacity_;
}

const Transition& PrioritizedReplayBuffer::Get(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, size());
  return items_[index];
}

int PrioritizedReplayBuffer::SampleIndex(Rng* rng, bool prioritized) const {
  FASTFT_TRACE_SPAN("replay/sample");
  FASTFT_CHECK_GT(size(), 0);
  if (!prioritized) return rng->UniformInt(size());
  return rng->SampleDiscrete(priorities_);
}

void PrioritizedReplayBuffer::UpdatePriority(int index, double priority) {
  FASTFT_TRACE_SPAN("replay/update");
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, size());
  priorities_[index] = ClampPriority(priority);
}

double PrioritizedReplayBuffer::Priority(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, size());
  return priorities_[index];
}

std::vector<int> PrioritizedReplayBuffer::UniformSampleIndices(
    int count, Rng* rng) const {
  FASTFT_TRACE_SPAN("replay/sample");
  count = std::min(count, size());
  return rng->SampleWithoutReplacement(size(), count);
}

namespace {

// Transitions carry matrices of varying shape (head candidates grow and
// shrink with the cluster count), so the shape is part of the payload and
// the matrix is reconstructed rather than shape-checked.
void WriteMatrix(const nn::Matrix& m, common::BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(m.rows()));
  writer->WriteU32(static_cast<uint32_t>(m.cols()));
  writer->WriteBytes(m.data(), m.size() * sizeof(double));
}

// Largest per-dimension size we will reconstruct. Real transition matrices
// top out at a few hundred rows; the cap just has to reject corrupt headers
// long before `rows * cols * sizeof(double)` can wrap u64 (a 2^31 x 2^31
// header used to sneak past the remaining() bound via exactly that wrap,
// then overflow the int conversion below into a negative Matrix dimension).
constexpr uint32_t kMaxMatrixDim = 1u << 24;  // 16M rows/cols

nn::Matrix ReadMatrix(common::BinaryReader* reader) {
  uint32_t rows = reader->ReadU32();
  uint32_t cols = reader->ReadU32();
  if (!reader->ok()) return nn::Matrix();
  if (rows > kMaxMatrixDim || cols > kMaxMatrixDim) {
    reader->Fail("corrupted matrix shape " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " exceeds dimension cap");
    return nn::Matrix();
  }
  // Both dims are <= 2^24 so the element count fits in 48 bits and the byte
  // count in 51 — no overflow on the bound check below.
  uint64_t count = static_cast<uint64_t>(rows) * cols;
  if (count * sizeof(double) > reader->remaining()) {
    reader->Fail("corrupted matrix shape " + std::to_string(rows) + "x" +
                 std::to_string(cols) + " exceeds remaining payload");
    return nn::Matrix();
  }
  nn::Matrix m(static_cast<int>(rows), static_cast<int>(cols));
  reader->ReadRaw(m.data(), m.size() * sizeof(double));
  return m;
}

}  // namespace

void PrioritizedReplayBuffer::SaveState(common::BinaryWriter* writer) const {
  writer->WriteU32(static_cast<uint32_t>(capacity_));
  writer->WriteU32(static_cast<uint32_t>(items_.size()));
  writer->WriteU32(static_cast<uint32_t>(next_slot_));
  for (const Transition& t : items_) {
    WriteMatrix(t.head_inputs, writer);
    writer->WriteI32(t.head_action);
    WriteMatrix(t.op_input, writer);
    writer->WriteI32(t.op_action);
    WriteMatrix(t.tail_inputs, writer);
    writer->WriteI32(t.tail_action);
    writer->WriteVecDouble(t.state);
    writer->WriteVecDouble(t.next_state);
    WriteMatrix(t.next_head_inputs, writer);
    writer->WriteDouble(t.reward);
    writer->WriteVecInt(t.tokens);
    writer->WriteDouble(t.performance);
  }
  writer->WriteVecDouble(priorities_);
}

void PrioritizedReplayBuffer::LoadState(common::BinaryReader* reader) {
  uint32_t capacity = reader->ReadU32();
  uint32_t count = reader->ReadU32();
  uint32_t next_slot = reader->ReadU32();
  if (!reader->ok()) return;
  if (static_cast<int>(capacity) != capacity_) {
    reader->Fail("replay-buffer capacity mismatch: payload " +
                 std::to_string(capacity) + ", buffer " +
                 std::to_string(capacity_));
    return;
  }
  if (count > capacity || next_slot >= std::max(capacity, 1u)) {
    reader->Fail("corrupted replay-buffer cursor/size");
    return;
  }
  std::vector<Transition> items;
  items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Transition t;
    t.head_inputs = ReadMatrix(reader);
    t.head_action = reader->ReadI32();
    t.op_input = ReadMatrix(reader);
    t.op_action = reader->ReadI32();
    t.tail_inputs = ReadMatrix(reader);
    t.tail_action = reader->ReadI32();
    t.state = reader->ReadVecDouble();
    t.next_state = reader->ReadVecDouble();
    t.next_head_inputs = ReadMatrix(reader);
    t.reward = reader->ReadDouble();
    t.tokens = reader->ReadVecInt();
    t.performance = reader->ReadDouble();
    if (!reader->ok()) return;
    items.push_back(std::move(t));
  }
  std::vector<double> priorities = reader->ReadVecDouble();
  if (!reader->ok()) return;
  if (priorities.size() != items.size()) {
    reader->Fail("replay-buffer priority count mismatch");
    return;
  }
  items_ = std::move(items);
  priorities_ = std::move(priorities);
  next_slot_ = static_cast<int>(next_slot);
}

}  // namespace fastft
