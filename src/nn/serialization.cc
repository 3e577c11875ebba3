#include "nn/serialization.h"

#include <cstdint>
#include <string>

namespace fastft {
namespace nn {

void SerializeMatrix(const Matrix& m, common::BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(m.rows()));
  writer->WriteU32(static_cast<uint32_t>(m.cols()));
  writer->WriteBytes(m.data(), m.size() * sizeof(double));
}

void DeserializeMatrix(common::BinaryReader* reader, Matrix* m) {
  uint32_t rows = reader->ReadU32();
  uint32_t cols = reader->ReadU32();
  if (!reader->ok()) return;
  if (static_cast<int>(rows) != m->rows() ||
      static_cast<int>(cols) != m->cols()) {
    reader->Fail("tensor shape mismatch: payload has " + std::to_string(rows) +
                 "x" + std::to_string(cols) + ", destination expects " +
                 std::to_string(m->rows()) + "x" + std::to_string(m->cols()));
    return;
  }
  reader->ReadRaw(m->data(), m->size() * sizeof(double));
}

void SerializeParameters(const std::vector<Parameter*>& params,
                         common::BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(params.size()));
  for (const Parameter* p : params) SerializeMatrix(p->value, writer);
}

void DeserializeParameters(common::BinaryReader* reader,
                           const std::vector<Parameter*>& params) {
  uint32_t count = reader->ReadU32();
  if (!reader->ok()) return;
  if (count != params.size()) {
    reader->Fail("payload holds " + std::to_string(count) +
                 " tensors, model has " + std::to_string(params.size()));
    return;
  }
  for (Parameter* p : params) DeserializeMatrix(reader, &p->value);
}

}  // namespace nn
}  // namespace fastft
