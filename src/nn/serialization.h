// Parameter serialization: the weights payload a checkpoint embeds.
//
// Layout: uint32 tensor count, then per tensor {uint32 rows, uint32 cols,
// rows*cols little-endian doubles}, written to a BinaryWriter and read back
// from a BinaryReader. Reading is shape-checked against the destination
// parameters, so a payload can only be restored into a model with the
// identical architecture.

#pragma once

#include <vector>

#include "common/serial.h"
#include "nn/matrix.h"

namespace fastft {
namespace nn {

/// Appends one matrix as {u32 rows, u32 cols, doubles} to the writer.
void SerializeMatrix(const Matrix& m, common::BinaryWriter* writer);

/// Reads a matrix written by SerializeMatrix into `m`, which must already
/// have the expected shape; shape mismatch fails the reader.
void DeserializeMatrix(common::BinaryReader* reader, Matrix* m);

/// Appends {u32 count, tensors...}: parameter values, not gradients.
void SerializeParameters(const std::vector<Parameter*>& params,
                         common::BinaryWriter* writer);

/// Restores values written by SerializeParameters; count and every tensor
/// shape must match the destination parameters (gradients untouched).
void DeserializeParameters(common::BinaryReader* reader,
                           const std::vector<Parameter*>& params);

}  // namespace nn
}  // namespace fastft
