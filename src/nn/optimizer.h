// The Adam optimizer and global-norm gradient clipping.

#pragma once

#include <cstdint>
#include <vector>

#include "common/serial.h"
#include "nn/matrix.h"

namespace fastft {
namespace nn {

/// Scales all gradients so their global L2 norm is at most `max_norm`.
void ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

class AdamOptimizer {
 public:
  explicit AdamOptimizer(std::vector<Parameter*> params, double lr = 1e-3,
                         double beta1 = 0.9, double beta2 = 0.999,
                         double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  void Step();

  double learning_rate() const { return lr_; }
  const std::vector<Parameter*>& params() const { return params_; }

  /// Snapshots the moment estimates and step count (not the parameters
  /// themselves) so a resumed run's Adam bias correction and momentum are
  /// bit-identical to the uninterrupted run's.
  void SaveState(common::BinaryWriter* writer) const;
  /// Restores a SaveState payload; moment shapes must match this
  /// optimizer's parameters or the reader fails.
  void LoadState(common::BinaryReader* reader);

 private:
  std::vector<Parameter*> params_;
  double lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

}  // namespace nn
}  // namespace fastft

