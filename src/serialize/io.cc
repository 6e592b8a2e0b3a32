#include "serialize/io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"

namespace pilote {
namespace serialize {
namespace {

constexpr uint32_t kModuleMagic = 0x504C544D;  // "PLTM"
constexpr uint32_t kFormatVersion = 2;
// [u32 magic][u32 version][u64 payload_size][u32 payload_crc]
constexpr size_t kFrameHeaderBytes = 20;

void WriteU32(std::ostream& os, uint32_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void WriteU64(std::ostream& os, uint64_t value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

Result<uint32_t> ReadU32(std::istream& is) {
  uint32_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!is) return Status::DataLoss("truncated stream reading u32");
  return value;
}

Result<uint64_t> ReadU64(std::istream& is) {
  uint64_t value = 0;
  is.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!is) return Status::DataLoss("truncated stream reading u64");
  return value;
}

template <typename T>
T LoadAt(std::string_view bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

// Checks the module frame's magic, version, size and CRC, and returns the
// payload it verified.
Result<std::string_view> OpenBody(std::string_view frame) {
  if (frame.size() < kFrameHeaderBytes) {
    return Status::DataLoss("truncated module frame header");
  }
  if (LoadAt<uint32_t>(frame, 0) != kModuleMagic) {
    return Status::DataLoss("bad magic number");
  }
  const uint32_t version = LoadAt<uint32_t>(frame, 4);
  if (version != kFormatVersion) {
    return Status::DataLoss("unsupported format version " +
                            std::to_string(version));
  }
  const uint64_t payload_size = LoadAt<uint64_t>(frame, 8);
  const uint32_t expected_crc = LoadAt<uint32_t>(frame, 16);
  if (payload_size > frame.size() - kFrameHeaderBytes) {
    return Status::DataLoss("truncated payload: frame claims " +
                            std::to_string(payload_size) + " bytes, " +
                            std::to_string(frame.size() - kFrameHeaderBytes) +
                            " present");
  }
  const std::string_view payload =
      frame.substr(kFrameHeaderBytes, static_cast<size_t>(payload_size));
  const uint32_t actual_crc = Crc32(payload);
  if (actual_crc != expected_crc) {
    return Status::DataLoss("payload checksum mismatch (stored " +
                            std::to_string(expected_crc) + ", computed " +
                            std::to_string(actual_crc) + ")");
  }
  return payload;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  PILOTE_RETURN_IF_ERROR(PILOTE_FAILPOINT("serialize/atomic/open"));
  {
    // Simulated torn write: a crash mid-write with no tmp/rename dance
    // would leave a prefix of the new contents at the destination. The
    // chaos suite arms this to prove loaders reject such a file.
    Status torn = PILOTE_FAILPOINT("serialize/atomic/torn");
    if (!torn.ok()) {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      if (os) {
        os.write(contents.data(),
                 static_cast<std::streamsize>(contents.size() / 2));
      }
      return torn;
    }
  }
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    if (!os) return Status::IoError("cannot open for write: " + tmp_path);
    Status write_fault = PILOTE_FAILPOINT("serialize/atomic/write");
    if (!write_fault.ok()) {
      os.close();
      std::remove(tmp_path.c_str());
      return write_fault;
    }
    os.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp_path.c_str());
      return Status::IoError("failed writing " + tmp_path);
    }
  }
  Status rename_fault = PILOTE_FAILPOINT("serialize/atomic/rename");
  if (!rename_fault.ok()) {
    std::remove(tmp_path.c_str());
    return rename_fault;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " over " + path);
  }
  return Status::Ok();
}

Result<uint64_t> BytesLeft(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (here == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1) || !is) {
    return Status::DataLoss("cannot measure the bytes left in the stream");
  }
  return static_cast<uint64_t>(end - here);
}

Status WriteTensor(std::ostream& os, const Tensor& tensor) {
  WriteU32(os, static_cast<uint32_t>(tensor.rank()));
  for (int i = 0; i < tensor.rank(); ++i) {
    WriteU64(os, static_cast<uint64_t>(tensor.dim(i)));
  }
  os.write(reinterpret_cast<const char*>(tensor.data()),
           static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  if (!os) return Status::IoError("failed writing tensor");
  return Status::Ok();
}

Result<Tensor> ReadTensor(std::istream& is) {
  PILOTE_ASSIGN_OR_RETURN(uint32_t rank, ReadU32(is));
  if (rank > 8) return Status::DataLoss("implausible tensor rank");
  std::vector<int64_t> dims;
  dims.reserve(rank);
  uint64_t numel = 1;
  for (uint32_t i = 0; i < rank; ++i) {
    PILOTE_ASSIGN_OR_RETURN(uint64_t dim, ReadU64(is));
    if (dim > (1ULL << 32)) return Status::DataLoss("implausible dimension");
    if (dim != 0 && numel > std::numeric_limits<uint64_t>::max() / dim) {
      return Status::DataLoss("tensor element count overflows");
    }
    dims.push_back(static_cast<int64_t>(dim));
    numel *= dim;
  }
  PILOTE_ASSIGN_OR_RETURN(uint64_t bytes_left, BytesLeft(is));
  if (numel > bytes_left / sizeof(float)) {
    return Status::DataLoss("tensor of " + std::to_string(numel) +
                            " elements needs more than the " +
                            std::to_string(bytes_left) + " bytes left");
  }
  Tensor tensor((Shape(dims)));
  is.read(reinterpret_cast<char*>(tensor.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  if (!is) return Status::DataLoss("truncated tensor payload");
  return tensor;
}

std::string SerializeModuleToString(const nn::Module& module) {
  const std::vector<const Tensor*> state = module.StateTensors();
  std::ostringstream body(std::ios::binary);
  WriteU64(body, static_cast<uint64_t>(state.size()));
  for (const Tensor* tensor : state) {
    Status status = WriteTensor(body, *tensor);
    // Writing to a memory stream only fails on logic errors, never I/O.
    PILOTE_CHECK(status.ok()) << status.ToString();
  }
  const std::string payload = std::move(body).str();

  std::ostringstream os(std::ios::binary);
  WriteU32(os, kModuleMagic);
  WriteU32(os, kFormatVersion);
  WriteU64(os, static_cast<uint64_t>(payload.size()));
  WriteU32(os, Crc32(payload));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  return std::move(os).str();
}

Status DeserializeModuleFromString(const std::string& payload,
                                   nn::Module& module) {
  PILOTE_ASSIGN_OR_RETURN(std::string_view verified, OpenBody(payload));
  std::istringstream is(std::string(verified), std::ios::binary);
  std::vector<Tensor*> state = module.MutableStateTensors();
  PILOTE_ASSIGN_OR_RETURN(uint64_t count, ReadU64(is));
  if (count != state.size()) {
    return Status::DataLoss("module state count mismatch: stored " +
                            std::to_string(count) + ", module has " +
                            std::to_string(state.size()));
  }
  for (Tensor* slot : state) {
    PILOTE_ASSIGN_OR_RETURN(Tensor tensor, ReadTensor(is));
    if (tensor.shape() != slot->shape()) {
      return Status::DataLoss("module state shape mismatch: stored " +
                              tensor.shape().ToString() + ", module has " +
                              slot->shape().ToString());
    }
    *slot = std::move(tensor);
  }
  return Status::Ok();
}

}  // namespace serialize
}  // namespace pilote
