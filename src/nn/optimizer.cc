#include "nn/optimizer.h"

#include <cmath>

#include "common/simd_kernels.h"

namespace fastft {
namespace nn {

void ClipGradNorm(const std::vector<Parameter*>& params, double max_norm) {
  double total = 0.0;
  for (Parameter* p : params) {
    double n = p->grad.Norm();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total <= max_norm || total <= 1e-12) return;
  double factor = max_norm / total;
  for (Parameter* p : params) p->grad.ScaleInPlace(factor);
}

AdamOptimizer::AdamOptimizer(std::vector<Parameter*> params, double lr,
                             double beta1, double beta2, double eps)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->size(), 0.0);
    v_.emplace_back(p->size(), 0.0);
  }
}

void AdamOptimizer::Step() {
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const simd::AdamCoeffs coeffs{lr_, beta1_, beta2_, eps_, bias1, bias2};
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    simd::AdamStep(coeffs, p->value.data(), p->grad.data(), m_[i].data(),
                   v_[i].data(), static_cast<int>(p->size()));
  }
}

void AdamOptimizer::SaveState(common::BinaryWriter* writer) const {
  writer->WriteI64(t_);
  writer->WriteU32(static_cast<uint32_t>(m_.size()));
  for (size_t i = 0; i < m_.size(); ++i) {
    writer->WriteVecDouble(m_[i]);
    writer->WriteVecDouble(v_[i]);
  }
}

void AdamOptimizer::LoadState(common::BinaryReader* reader) {
  int64_t t = reader->ReadI64();
  uint32_t count = reader->ReadU32();
  if (!reader->ok()) return;
  if (count != params_.size()) {
    reader->Fail("optimizer payload holds " + std::to_string(count) +
                 " moment slots, optimizer has " +
                 std::to_string(params_.size()));
    return;
  }
  std::vector<std::vector<double>> m, v;
  m.reserve(count);
  v.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    m.push_back(reader->ReadVecDouble());
    v.push_back(reader->ReadVecDouble());
    if (!reader->ok()) return;
    if (m.back().size() != params_[i]->size() ||
        v.back().size() != params_[i]->size()) {
      reader->Fail("optimizer moment size mismatch at slot " +
                   std::to_string(i));
      return;
    }
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace nn
}  // namespace fastft
