// Tests for the weights payload (nn/serialization) and the model SaveState /
// LoadState that embed it in a checkpoint.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/serial.h"
#include "core/performance_predictor.h"
#include "nn/sequence_model.h"
#include "nn/serialization.h"

namespace fastft {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::string Payload(const std::vector<nn::Parameter*>& params) {
  common::BinaryWriter writer;
  nn::SerializeParameters(params, &writer);
  return writer.Release();
}

TEST(SerializationTest, RoundTripRestoresExactValues) {
  Rng rng(1);
  nn::Parameter a(nn::Matrix::Randn(3, 4, 1.0, &rng));
  nn::Parameter b(nn::Matrix::Randn(1, 7, 1.0, &rng));
  std::string payload = Payload({&a, &b});

  nn::Parameter a2(nn::Matrix(3, 4));
  nn::Parameter b2(nn::Matrix(1, 7));
  common::BinaryReader reader(payload);
  nn::DeserializeParameters(&reader, {&a2, &b2});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.remaining(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a.value.data()[i]), Bits(a2.value.data()[i]));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(Bits(b.value.data()[i]), Bits(b2.value.data()[i]));
  }
}

TEST(SerializationTest, ShapeMismatchRejected) {
  Rng rng(2);
  nn::Parameter a(nn::Matrix::Randn(3, 4, 1.0, &rng));
  std::string payload = Payload({&a});
  nn::Parameter wrong(nn::Matrix(4, 3));
  common::BinaryReader reader(payload);
  nn::DeserializeParameters(&reader, {&wrong});
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("shape mismatch"),
            std::string::npos)
      << reader.status().ToString();
}

TEST(SerializationTest, TensorCountMismatchRejected) {
  Rng rng(3);
  nn::Parameter a(nn::Matrix::Randn(2, 2, 1.0, &rng));
  std::string payload = Payload({&a});
  nn::Parameter b(nn::Matrix(2, 2)), c(nn::Matrix(2, 2));
  common::BinaryReader reader(payload);
  nn::DeserializeParameters(&reader, {&b, &c});
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("tensors"), std::string::npos)
      << reader.status().ToString();
}

TEST(SerializationTest, TruncatedFileRejected) {
  Rng rng(4);
  nn::Parameter a(nn::Matrix::Randn(8, 8, 1.0, &rng));
  std::string payload = Payload({&a});
  // Every proper prefix of the payload fails the reader without a crash.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{8}, payload.size() / 2,
                      payload.size() - 1}) {
    nn::Parameter b(nn::Matrix(8, 8));
    common::BinaryReader reader(std::string_view(payload).substr(0, keep));
    nn::DeserializeParameters(&reader, {&b});
    EXPECT_FALSE(reader.ok()) << "prefix of " << keep << " bytes";
  }
}

TEST(SerializationTest, SequenceModelRoundTripPreservesForward) {
  nn::SequenceModelConfig cfg;
  cfg.vocab_size = 16;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 8;
  cfg.num_layers = 1;
  cfg.seed = 5;
  nn::SequenceModel model(cfg);
  // Train a little so weights are non-initial.
  for (int i = 0; i < 30; ++i) {
    model.TrainStep({1, 2, 3}, 0.8);
    model.ApplyStep();
  }
  std::vector<int> probe = {4, 9, 2, 7};
  double before = model.Forward(probe);

  common::BinaryWriter writer;
  model.SaveState(&writer);

  nn::SequenceModelConfig cfg2 = cfg;
  cfg2.seed = 999;  // different init — restored weights must override it
  nn::SequenceModel restored(cfg2);
  EXPECT_NE(Bits(restored.Forward(probe)), Bits(before));
  common::BinaryReader reader(writer.buffer());
  restored.LoadState(&reader);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(Bits(restored.Forward(probe)), Bits(before));
}

TEST(SerializationTest, PredictorSaveLoad) {
  PredictorConfig cfg;
  cfg.vocab_size = 20;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 8;
  cfg.num_layers = 1;
  PerformancePredictor predictor(cfg);
  Rng rng(6);
  predictor.Fit({{{1, 2, 3}, 0.7}, {{4, 5, 6}, 0.2}}, 40, &rng);
  double before = predictor.Predict({1, 2, 3});

  common::BinaryWriter writer;
  predictor.SaveState(&writer);
  PredictorConfig cfg2 = cfg;
  cfg2.seed = cfg.seed + 1;
  PerformancePredictor fresh(cfg2);
  EXPECT_NE(Bits(fresh.Predict({1, 2, 3})), Bits(before));
  common::BinaryReader reader(writer.buffer());
  fresh.LoadState(&reader);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(Bits(fresh.Predict({1, 2, 3})), Bits(before));
}

}  // namespace
}  // namespace fastft
