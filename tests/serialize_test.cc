// Tests of the on-disk and in-memory formats: tensor records, the module
// frame, the cloud artifact file (its corruption matrix) and quantization.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_tracker.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/artifact_io.h"
#include "core/cloud.h"
#include "nn/backbone.h"
#include "serialize/io.h"
#include "serialize/quantize.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace pilote {
namespace serialize {
namespace {

namespace ag = autograd;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string EncodeU32(uint32_t value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string EncodeU64(uint64_t value) {
  return std::string(reinterpret_cast<const char*>(&value), sizeof(value));
}

// A 2-wide backbone without batch norm: its module frame and artifact are
// a few hundred bytes, small enough to cut at every byte and flip every
// bit of.
nn::BackboneConfig TinyBackbone() {
  nn::BackboneConfig backbone = nn::BackboneConfig::Small();
  backbone.input_dim = 2;
  backbone.hidden_dims = {2};
  backbone.embedding_dim = 2;
  backbone.use_batchnorm = false;
  return backbone;
}

// ---------------------------------------------------------------- Tensor IO

TEST(TensorIoTest, RoundTripPreservesShapeAndData) {
  Rng rng(1);
  std::vector<Tensor> tensors = {
      Tensor::RandNormal(Shape::Matrix(7, 5), rng),
      Tensor::RandNormal(Shape::Vector(13), rng),
      Tensor(Shape::Matrix(1, 1), {42.0f}),
  };
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  for (const Tensor& tensor : tensors) {
    ASSERT_TRUE(WriteTensor(stream, tensor).ok());
  }
  for (const Tensor& tensor : tensors) {
    Result<Tensor> loaded = ReadTensor(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(AllClose(*loaded, tensor, 0.0f, 0.0f));
  }
}

TEST(TensorIoTest, ElementCountBeyondTheStreamIsDataLossBeforeAllocating) {
  // [u32 rank][u64 dims...] followed by 16 bytes of data: neither a
  // product that overflows u64 nor one larger than the 16 bytes present
  // may reach the allocator.
  const std::string data(16, '\0');
  const std::string overflowing =
      EncodeU32(2) + EncodeU64(1ULL << 32) + EncodeU64(1ULL << 32) + data;
  const std::string oversized =
      EncodeU32(2) + EncodeU64(1000) + EncodeU64(1000) + data;
  for (const std::string& record : {overflowing, oversized}) {
    std::istringstream stream(record, std::ios::binary);
    alloc::ScopedTracking tracking;
    alloc::AllocationScope scope;
    Result<Tensor> loaded = ReadTensor(stream);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_LT(scope.bytes(), 4096) << loaded.status();
  }
}

// ---------------------------------------------------------------- Module IO

TEST(ModuleIoTest, InMemoryRoundTrip) {
  Rng rng(4);
  nn::MlpBackbone original(nn::BackboneConfig::Small(), rng);
  nn::MlpBackbone restored(nn::BackboneConfig::Small(), rng);
  std::string payload = SerializeModuleToString(original);
  EXPECT_GT(payload.size(), 1000u);
  ASSERT_TRUE(DeserializeModuleFromString(payload, restored).ok());
  Tensor x = Tensor::RandNormal(Shape::Matrix(2, 80), rng);
  EXPECT_TRUE(AllClose(
      original.Forward(ag::Variable::Constant(x)).value(),
      restored.Forward(ag::Variable::Constant(x)).value(), 0.0f, 0.0f));
}

TEST(ModuleIoTest, StructureMismatchIsDataLoss) {
  Rng rng(5);
  nn::MlpBackbone small(nn::BackboneConfig::Small(), rng);
  nn::BackboneConfig other_config = nn::BackboneConfig::Small();
  other_config.embedding_dim = 16;
  nn::MlpBackbone other(other_config, rng);
  std::string payload = SerializeModuleToString(small);
  Status status = DeserializeModuleFromString(payload, other);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(ModuleIoTest, DamagedFrameIsDataLoss) {
  // The frame is [u32 magic][u32 version][u64 payload_size][u32 crc]
  // [payload]: every truncation, a version word other than 2 and a size
  // word beyond the bytes present are all rejected.
  Rng rng(6);
  nn::MlpBackbone module(TinyBackbone(), rng);
  const std::string frame = SerializeModuleToString(module);
  ASSERT_TRUE(DeserializeModuleFromString(frame, module).ok());
  for (size_t length = 0; length < frame.size(); ++length) {
    EXPECT_EQ(DeserializeModuleFromString(frame.substr(0, length), module)
                  .code(),
              StatusCode::kDataLoss)
        << "accepted a frame cut to " << length << " bytes";
  }
  const std::string version1 =
      frame.substr(0, 4) + EncodeU32(1) + frame.substr(8);
  EXPECT_EQ(DeserializeModuleFromString(version1, module).code(),
            StatusCode::kDataLoss);

  const std::string huge_size =
      frame.substr(0, 8) + EncodeU64(1ULL << 30) + frame.substr(16);
  alloc::ScopedTracking tracking;
  alloc::AllocationScope scope;
  EXPECT_EQ(DeserializeModuleFromString(huge_size, module).code(),
            StatusCode::kDataLoss);
  EXPECT_LT(scope.bytes(), static_cast<int64_t>(4 * frame.size()));
}

// ---------------------------------------------------------- Corruption matrix
//
// The artifact is [u32 magic][u32 version] then five sections, each
// [u32 tag][u64 size][u32 crc][body]. The matrix drills the whole damage
// space on a tiny artifact file: truncation at every byte boundary, a flip
// of every single bit, wrong version words. All of them must surface as a
// clean non-OK load, never a garbage artifact, and never an allocation
// much larger than the file.

std::string ReadAllBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void WriteAllBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

// Saves the tiny artifact every matrix test mutates and returns its bytes.
std::string SavedArtifactBytes(const std::string& path) {
  Status saved = core::SaveArtifact(
      path, testing::MakeTestArtifact(TinyBackbone(), /*seed=*/11,
                                      /*num_classes=*/2,
                                      /*exemplars_per_class=*/2));
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return ReadAllBytes(path);
}

TEST(CorruptionMatrixTest, SaveIsByteDeterministicAndLeavesNoTempFile) {
  const std::string path_a = TempPath("pilote_matrix_a.bin");
  const std::string path_b = TempPath("pilote_matrix_b.bin");
  const std::string a = SavedArtifactBytes(path_a);
  const std::string b = SavedArtifactBytes(path_b);
  EXPECT_EQ(a, b) << "identical artifacts must serialize bit-identically";
  EXPECT_FALSE(std::filesystem::exists(path_a + ".tmp"))
      << "atomic save must not leave its temp file behind";
  // Load -> save round-trips to the same bytes, so artifacts can be
  // compared and deduplicated by hash.
  Result<core::CloudArtifact> loaded = core::LoadArtifact(path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(core::SaveArtifact(path_b, *loaded).ok());
  EXPECT_EQ(ReadAllBytes(path_b), a);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(CorruptionMatrixTest, TruncationAtEveryByteBoundaryIsRejected) {
  const std::string path = TempPath("pilote_matrix_trunc.bin");
  const std::string bytes = SavedArtifactBytes(path);
  ASSERT_GT(bytes.size(), 88u);  // must cover every section header
  for (size_t length = 0; length < bytes.size(); ++length) {
    WriteAllBytes(path, bytes.substr(0, length));
    Result<core::CloudArtifact> result = core::LoadArtifact(path);
    EXPECT_FALSE(result.ok()) << "loaded a file truncated to " << length
                              << " of " << bytes.size() << " bytes";
  }
  std::remove(path.c_str());
}

TEST(CorruptionMatrixTest, EverySingleBitFlipIsRejected) {
  const std::string path = TempPath("pilote_matrix_flip.bin");
  const std::string bytes = SavedArtifactBytes(path);
  alloc::ScopedTracking tracking;
  int64_t most_allocated = 0;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteAllBytes(path, mutated);
      alloc::AllocationScope scope;
      Result<core::CloudArtifact> result = core::LoadArtifact(path);
      most_allocated = std::max(most_allocated, scope.bytes());
      EXPECT_FALSE(result.ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
  // A flipped size word must not make the loader allocate what the file
  // does not hold. The slack covers the file stream's own buffer (8 KiB in
  // libstdc++); a 416-byte artifact peaks at about 8.8 KB.
  constexpr int64_t kStreamSlack = 16 * 1024;
  EXPECT_LE(most_allocated,
            4 * static_cast<int64_t>(bytes.size()) + kStreamSlack)
      << "a " << bytes.size() << "-byte artifact";
  std::remove(path.c_str());
}

// Replaces the body of the section tagged `tag` in saved artifact `bytes`
// and recomputes its CRC, so only the structure of that body is wrong.
std::string WithSectionBody(const std::string& bytes, uint32_t tag,
                            const std::string& body) {
  size_t at = 8;  // magic + version word
  while (at + 16 <= bytes.size()) {
    uint32_t section_tag = 0;
    uint64_t size = 0;
    std::memcpy(&section_tag, bytes.data() + at, sizeof(section_tag));
    std::memcpy(&size, bytes.data() + at + 4, sizeof(size));
    if (section_tag == tag) {
      return bytes.substr(0, at + 4) + EncodeU64(body.size()) +
             EncodeU32(Crc32(body)) + body +
             bytes.substr(at + 16 + static_cast<size_t>(size));
    }
    at += 16 + static_cast<size_t>(size);
  }
  ADD_FAILURE() << "no section tagged " << tag;
  return bytes;
}

std::string TensorRecords(const std::vector<Tensor>& tensors) {
  std::ostringstream os(std::ios::binary);
  for (const Tensor& tensor : tensors) {
    EXPECT_TRUE(WriteTensor(os, tensor).ok());
  }
  return os.str();
}

std::string SupportBody(const std::vector<Tensor>& classes) {
  std::string body = EncodeU64(classes.size());
  for (size_t label = 0; label < classes.size(); ++label) {
    body += EncodeU32(static_cast<uint32_t>(label)) +
            TensorRecords({classes[label]});
  }
  return body;
}

TEST(CorruptionMatrixTest, MisshapedSectionsWithValidChecksumsAreDataLoss) {
  // A producer bug rather than a flipped bit: every CRC holds, but the
  // scaler or support set has a shape the in-memory types CHECK.
  constexpr uint32_t kScalerTag = 0x304C4353;   // "SCL0"
  constexpr uint32_t kSupportTag = 0x30505553;  // "SUP0"
  const std::string path = TempPath("pilote_matrix_shapes.bin");
  const std::string bytes = SavedArtifactBytes(path);
  const Tensor matrix(Shape::Matrix(1, 2), 1.0f);
  const std::vector<std::string> damaged = {
      WithSectionBody(bytes, kScalerTag, TensorRecords({matrix, matrix})),
      WithSectionBody(bytes, kScalerTag,
                      TensorRecords({Tensor(Shape::Vector(2), 0.0f),
                                     Tensor(Shape::Vector(3), 1.0f)})),
      WithSectionBody(bytes, kSupportTag,
                      SupportBody({Tensor(Shape::Vector(2), 1.0f)})),
      WithSectionBody(bytes, kSupportTag,
                      SupportBody({Tensor(Shape::Matrix(0, 2))})),
      WithSectionBody(bytes, kSupportTag,
                      SupportBody({matrix, Tensor(Shape::Matrix(1, 3))})),
  };
  for (size_t i = 0; i < damaged.size(); ++i) {
    WriteAllBytes(path, damaged[i]);
    Result<core::CloudArtifact> result = core::LoadArtifact(path);
    ASSERT_FALSE(result.ok()) << "case " << i;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << "case " << i;
  }
  std::remove(path.c_str());
}

TEST(CorruptionMatrixTest, UnknownVersionWordIsRejected) {
  const std::string path = TempPath("pilote_matrix_version.bin");
  const std::string bytes = SavedArtifactBytes(path);
  for (uint32_t version : {0u, 1u, 3u, 7u, 0xFFFFFFFFu}) {
    std::string mutated =
        bytes.substr(0, 4) + EncodeU32(version) + bytes.substr(8);
    WriteAllBytes(path, mutated);
    Result<core::CloudArtifact> result = core::LoadArtifact(path);
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- Half floats

TEST(HalfFloatTest, ExactlyRepresentableValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 1024.0f, 0.125f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(HalfFloatTest, RelativeErrorWithinHalfPrecision) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const float v = static_cast<float>(rng.UniformDouble(-100.0, 100.0));
    const float r = HalfToFloat(FloatToHalf(v));
    EXPECT_NEAR(r, v, std::fabs(v) * 1e-3f + 1e-4f);
  }
}

TEST(HalfFloatTest, OverflowSaturatesToInfinity) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e20f))));
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(-1e20f))));
  EXPECT_LT(HalfToFloat(FloatToHalf(-1e20f)), 0.0f);
}

TEST(HalfFloatTest, NanPropagates) {
  EXPECT_TRUE(std::isnan(HalfToFloat(FloatToHalf(NAN))));
}

TEST(HalfFloatTest, SubnormalsSurvive) {
  // 1e-5 is subnormal in binary16 but still representable approximately.
  const float v = 1e-5f;
  const float r = HalfToFloat(FloatToHalf(v));
  EXPECT_NEAR(r, v, 1e-6f);
}

// ---------------------------------------------------------------- Quantization

class QuantizeModeTest : public ::testing::TestWithParam<QuantMode> {};

TEST_P(QuantizeModeTest, RoundTripWithinModeTolerance) {
  Rng rng(7);
  Tensor t = Tensor::RandNormal(Shape::Matrix(40, 80), rng, 0.0f, 3.0f);
  QuantizedTensor q = QuantizedTensor::Quantize(t, GetParam());
  Tensor back = q.Dequantize();
  ASSERT_EQ(back.shape(), t.shape());
  float tolerance = 0.0f;
  switch (GetParam()) {
    case QuantMode::kFloat32:
      tolerance = 0.0f;
      break;
    case QuantMode::kFloat16:
      tolerance = 0.01f;
      break;
    case QuantMode::kInt8:
      // Error bounded by half a quantization step over the value range.
      tolerance = (MaxValue(t) - (-MaxValue(Neg(t)))) / 255.0f;
      break;
  }
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_NEAR(back[i], t[i], tolerance + 1e-6f) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, QuantizeModeTest,
                         ::testing::Values(QuantMode::kFloat32,
                                           QuantMode::kFloat16,
                                           QuantMode::kInt8));

TEST(QuantizeTest, SizesShrinkWithMode) {
  Rng rng(8);
  Tensor t = Tensor::RandNormal(Shape::Matrix(100, 80), rng);
  const int64_t fp32 =
      QuantizedTensor::Quantize(t, QuantMode::kFloat32).SizeBytes();
  const int64_t fp16 =
      QuantizedTensor::Quantize(t, QuantMode::kFloat16).SizeBytes();
  const int64_t int8 =
      QuantizedTensor::Quantize(t, QuantMode::kInt8).SizeBytes();
  EXPECT_GT(fp32, fp16);
  EXPECT_GT(fp16, int8);
  // Roughly 4 / 2 / 1 bytes per element.
  EXPECT_NEAR(static_cast<double>(fp32) / int8, 4.0, 0.2);
}

TEST(QuantizeTest, ConstantTensorIsExactUnderInt8) {
  Tensor t(Shape::Matrix(5, 5), 3.25f);
  Tensor back = QuantizedTensor::Quantize(t, QuantMode::kInt8).Dequantize();
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_NEAR(back[i], 3.25f, 1e-5f);
}

TEST(QuantizeTest, PaperStorageClaimOrderOfMagnitude) {
  // Sec 6.3: 200 exemplars/class (5 classes) of 80 features should fit in
  // a few hundred KB uncompressed — verify our accounting is in that range.
  Rng rng(9);
  Tensor exemplars = Tensor::RandNormal(Shape::Matrix(1000, 80), rng);
  const int64_t bytes =
      QuantizedTensor::Quantize(exemplars, QuantMode::kFloat32).SizeBytes();
  EXPECT_NEAR(static_cast<double>(bytes), 320000.0, 1000.0);
}

}  // namespace
}  // namespace serialize
}  // namespace pilote
