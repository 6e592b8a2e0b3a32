#include "core/artifact_io.h"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "serialize/io.h"

namespace pilote {
namespace core {
namespace {

constexpr uint32_t kArtifactMagic = 0x504C5441;  // "PLTA"
constexpr uint32_t kArtifactVersion = 2;

// Section tags, in file order.
constexpr uint32_t kSectionConfig = 0x30474643;   // "CFG0"
constexpr uint32_t kSectionModel = 0x304C444D;    // "MDL0"
constexpr uint32_t kSectionScaler = 0x304C4353;   // "SCL0"
constexpr uint32_t kSectionClasses = 0x30534C43;  // "CLS0"
constexpr uint32_t kSectionSupport = 0x30505553;  // "SUP0"

const char* SectionName(uint32_t tag) {
  switch (tag) {
    case kSectionConfig:
      return "backbone config";
    case kSectionModel:
      return "model payload";
    case kSectionScaler:
      return "scaler";
    case kSectionClasses:
      return "old-class list";
    case kSectionSupport:
      return "support set";
  }
  return "unknown";
}

void WriteU32(std::ostream& os, uint32_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU64(std::ostream& os, uint64_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteI64(std::ostream& os, int64_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

Result<uint32_t> ReadU32(std::istream& is) {
  uint32_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!is) return Status::DataLoss("truncated artifact (u32)");
  return value;
}

Result<uint64_t> ReadU64(std::istream& is) {
  uint64_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!is) return Status::DataLoss("truncated artifact (u64)");
  return value;
}

Result<int64_t> ReadI64(std::istream& is) {
  int64_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!is) return Status::DataLoss("truncated artifact (i64)");
  return value;
}

// ---- Section bodies ----

void WriteConfigBody(std::ostream& os, const nn::BackboneConfig& backbone) {
  WriteI64(os, backbone.input_dim);
  WriteI64(os, static_cast<int64_t>(backbone.hidden_dims.size()));
  for (int64_t dim : backbone.hidden_dims) WriteI64(os, dim);
  WriteI64(os, backbone.embedding_dim);
  WriteU32(os, backbone.use_batchnorm ? 1u : 0u);
  os.write(reinterpret_cast<const char*>(&backbone.bn_eps),
           sizeof(backbone.bn_eps));
  os.write(reinterpret_cast<const char*>(&backbone.bn_momentum),
           sizeof(backbone.bn_momentum));
}

Status ParseConfigBody(std::istream& is, nn::BackboneConfig& backbone) {
  PILOTE_ASSIGN_OR_RETURN(backbone.input_dim, ReadI64(is));
  PILOTE_ASSIGN_OR_RETURN(int64_t num_hidden, ReadI64(is));
  if (num_hidden < 0 || num_hidden > 64) {
    return Status::DataLoss("implausible hidden layer count");
  }
  backbone.hidden_dims.clear();
  for (int64_t i = 0; i < num_hidden; ++i) {
    PILOTE_ASSIGN_OR_RETURN(int64_t dim, ReadI64(is));
    backbone.hidden_dims.push_back(dim);
  }
  PILOTE_ASSIGN_OR_RETURN(backbone.embedding_dim, ReadI64(is));
  PILOTE_ASSIGN_OR_RETURN(uint32_t use_bn, ReadU32(is));
  backbone.use_batchnorm = use_bn != 0;
  is.read(reinterpret_cast<char*>(&backbone.bn_eps), sizeof(backbone.bn_eps));
  is.read(reinterpret_cast<char*>(&backbone.bn_momentum),
          sizeof(backbone.bn_momentum));
  if (!is) return Status::DataLoss("truncated backbone config");
  return Status::Ok();
}

Status WriteScalerBody(std::ostream& os, const CloudArtifact& artifact) {
  PILOTE_RETURN_IF_ERROR(serialize::WriteTensor(os, artifact.scaler.mean()));
  PILOTE_RETURN_IF_ERROR(serialize::WriteTensor(os, artifact.scaler.stddev()));
  return Status::Ok();
}

Status ParseScalerBody(std::istream& is, CloudArtifact& artifact) {
  PILOTE_ASSIGN_OR_RETURN(Tensor mean, serialize::ReadTensor(is));
  PILOTE_ASSIGN_OR_RETURN(Tensor stddev, serialize::ReadTensor(is));
  // StandardScaler and SupportSet CHECK their shapes; a file that breaks
  // them comes back as a Status instead.
  if (mean.rank() != 1 || stddev.shape() != mean.shape()) {
    return Status::DataLoss("scaler mean " + mean.shape().ToString() +
                            " and stddev " + stddev.shape().ToString() +
                            " are not two vectors of one width");
  }
  artifact.scaler.SetState(std::move(mean), std::move(stddev));
  return Status::Ok();
}

void WriteClassesBody(std::ostream& os, const CloudArtifact& artifact) {
  WriteI64(os, static_cast<int64_t>(artifact.old_classes.size()));
  for (int label : artifact.old_classes) {
    WriteU32(os, static_cast<uint32_t>(label));
  }
}

Status ParseClassesBody(std::istream& is, CloudArtifact& artifact) {
  PILOTE_ASSIGN_OR_RETURN(int64_t num_old, ReadI64(is));
  if (num_old < 0 || num_old > 1 << 20) {
    return Status::DataLoss("implausible old-class count");
  }
  for (int64_t i = 0; i < num_old; ++i) {
    PILOTE_ASSIGN_OR_RETURN(uint32_t label, ReadU32(is));
    artifact.old_classes.push_back(static_cast<int>(label));
  }
  return Status::Ok();
}

Status WriteSupportBody(std::ostream& os, const CloudArtifact& artifact) {
  const std::vector<int> classes = artifact.support.Classes();
  WriteI64(os, static_cast<int64_t>(classes.size()));
  for (int label : classes) {
    WriteU32(os, static_cast<uint32_t>(label));
    PILOTE_RETURN_IF_ERROR(
        serialize::WriteTensor(os, artifact.support.ClassExemplars(label)));
  }
  return Status::Ok();
}

Status ParseSupportBody(std::istream& is, CloudArtifact& artifact) {
  PILOTE_ASSIGN_OR_RETURN(int64_t num_classes, ReadI64(is));
  if (num_classes < 0 || num_classes > 1 << 20) {
    return Status::DataLoss("implausible support class count");
  }
  int64_t width = -1;
  for (int64_t i = 0; i < num_classes; ++i) {
    PILOTE_ASSIGN_OR_RETURN(uint32_t label, ReadU32(is));
    PILOTE_ASSIGN_OR_RETURN(Tensor exemplars, serialize::ReadTensor(is));
    if (exemplars.rank() != 2 || exemplars.rows() == 0 ||
        (width >= 0 && exemplars.cols() != width)) {
      return Status::DataLoss("support class " + std::to_string(label) +
                              " exemplars " + exemplars.shape().ToString() +
                              " are not a non-empty matrix of the set's "
                              "width");
    }
    width = exemplars.cols();
    artifact.support.SetClassExemplars(static_cast<int>(label),
                                       std::move(exemplars));
  }
  return Status::Ok();
}

// ---- Section frames ----

void AppendSection(std::ostream& os, uint32_t tag, const std::string& body) {
  WriteU32(os, tag);
  WriteU64(os, static_cast<uint64_t>(body.size()));
  WriteU32(os, Crc32(body));
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
}

// Reads the next section, requiring `expected_tag`, and CRC-verifies its
// body into `body_stream`. A size word larger than the rest of the file is
// rejected before the body is allocated.
Status OpenSection(std::istream& is, uint32_t expected_tag,
                   std::istringstream& body_stream) {
  PILOTE_ASSIGN_OR_RETURN(uint32_t tag, ReadU32(is));
  if (tag != expected_tag) {
    return Status::DataLoss(std::string("expected section ") +
                            SectionName(expected_tag) + ", found tag " +
                            std::to_string(tag));
  }
  PILOTE_ASSIGN_OR_RETURN(uint64_t size, ReadU64(is));
  PILOTE_ASSIGN_OR_RETURN(uint32_t expected_crc, ReadU32(is));
  PILOTE_ASSIGN_OR_RETURN(uint64_t bytes_left, serialize::BytesLeft(is));
  if (size > bytes_left) {
    return Status::DataLoss(std::string("truncated section ") +
                            SectionName(expected_tag) + ": size word " +
                            std::to_string(size) + ", " +
                            std::to_string(bytes_left) + " bytes left");
  }
  std::string body(static_cast<size_t>(size), '\0');
  is.read(body.data(), static_cast<std::streamsize>(body.size()));
  if (!is) {
    return Status::DataLoss(std::string("truncated section ") +
                            SectionName(expected_tag));
  }
  if (Crc32(body) != expected_crc) {
    return Status::DataLoss(std::string("checksum mismatch in section ") +
                            SectionName(expected_tag));
  }
  body_stream.str(std::move(body));
  return Status::Ok();
}

Result<CloudArtifact> ParseSections(std::istream& is) {
  CloudArtifact artifact;
  std::istringstream body;

  PILOTE_RETURN_IF_ERROR(OpenSection(is, kSectionConfig, body));
  PILOTE_RETURN_IF_ERROR(ParseConfigBody(body, artifact.backbone_config));

  PILOTE_RETURN_IF_ERROR(OpenSection(is, kSectionModel, body));
  artifact.model_payload = body.str();

  PILOTE_RETURN_IF_ERROR(OpenSection(is, kSectionScaler, body));
  PILOTE_RETURN_IF_ERROR(ParseScalerBody(body, artifact));

  PILOTE_RETURN_IF_ERROR(OpenSection(is, kSectionClasses, body));
  PILOTE_RETURN_IF_ERROR(ParseClassesBody(body, artifact));

  PILOTE_RETURN_IF_ERROR(OpenSection(is, kSectionSupport, body));
  PILOTE_RETURN_IF_ERROR(ParseSupportBody(body, artifact));
  return artifact;
}

}  // namespace

Status SaveArtifact(const std::string& path, const CloudArtifact& artifact) {
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/artifact/save"));

  std::ostringstream os(std::ios::binary);
  WriteU32(os, kArtifactMagic);
  WriteU32(os, kArtifactVersion);

  {
    std::ostringstream body(std::ios::binary);
    WriteConfigBody(body, artifact.backbone_config);
    AppendSection(os, kSectionConfig, body.str());
  }
  AppendSection(os, kSectionModel, artifact.model_payload);
  {
    std::ostringstream body(std::ios::binary);
    PILOTE_RETURN_IF_ERROR(WriteScalerBody(body, artifact));
    AppendSection(os, kSectionScaler, body.str());
  }
  {
    std::ostringstream body(std::ios::binary);
    WriteClassesBody(body, artifact);
    AppendSection(os, kSectionClasses, body.str());
  }
  {
    std::ostringstream body(std::ios::binary);
    PILOTE_RETURN_IF_ERROR(WriteSupportBody(body, artifact));
    AppendSection(os, kSectionSupport, body.str());
  }
  if (!os) return Status::Internal("failed serializing artifact");
  return serialize::WriteFileAtomic(path, os.str());
}

Result<CloudArtifact> LoadArtifact(const std::string& path) {
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("core/artifact/load"));

  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);

  PILOTE_ASSIGN_OR_RETURN(uint32_t magic, ReadU32(is));
  if (magic != kArtifactMagic) return Status::DataLoss("bad artifact magic");
  PILOTE_ASSIGN_OR_RETURN(uint32_t version, ReadU32(is));
  if (version != kArtifactVersion) {
    return Status::DataLoss("unsupported artifact version " +
                            std::to_string(version));
  }
  return ParseSections(is);
}

}  // namespace core
}  // namespace pilote
