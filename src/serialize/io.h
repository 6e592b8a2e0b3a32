#ifndef PILOTE_SERIALIZE_IO_H_
#define PILOTE_SERIALIZE_IO_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace pilote {
namespace serialize {

// Little-endian binary records for tensors and module state, the building
// blocks of the cloud artifact (core/artifact_io.h) that "moves" the
// pre-trained model, the feature scaler and the exemplar support set from
// the cloud to the edge in the MAGNETO deployment.
//
//  * The module payload is framed as [magic "PLTM"][u32 version 2]
//    [u64 payload_size][u32 payload_crc][payload]; the CRC-32
//    (common/crc32.h) covers the payload, so a torn tail or a flipped bit
//    is reported as kDataLoss: the loader never deserializes garbage into
//    a live model. Any other version word is kDataLoss too.
//  * Every size word is checked against the bytes actually present before
//    anything is allocated, so a corrupt size costs a Status, never an
//    allocation larger than the input.

// ---- Crash-safe file primitive ----
// Writes `contents` to "<path>.tmp" and renames it over `path`. Any
// failure leaves the previous contents of `path` intact (modulo the
// injected-torn-write failpoint below, which deliberately corrupts the
// destination to model a crash without this protection).
// Failpoints: "serialize/atomic/open", "serialize/atomic/write",
// "serialize/atomic/torn", "serialize/atomic/rename".
Status WriteFileAtomic(const std::string& path, std::string_view contents);

// ---- Stream primitives ----
// Bytes between the read position of `is` and its end, measured with two
// O(1) seeks; kDataLoss when the stream cannot seek.
Result<uint64_t> BytesLeft(std::istream& is);

// Raw tensor records (rank, dims, row-major floats) with no CRC frame of
// their own; callers embed them inside a checksummed payload. ReadTensor
// returns kDataLoss for a rank above 8, or an element count that overflows
// or needs more bytes than are left in `is`.
Status WriteTensor(std::ostream& os, const Tensor& tensor);
Result<Tensor> ReadTensor(std::istream& is);

// ---- Module state ----
// Serializes Module::StateTensors() in order, inside the CRC frame above.
// Deserializing writes through Module::MutableStateTensors() and verifies
// that the stored shapes match the module's structure.
std::string SerializeModuleToString(const nn::Module& module);
Status DeserializeModuleFromString(const std::string& payload,
                                   nn::Module& module);

}  // namespace serialize
}  // namespace pilote

#endif  // PILOTE_SERIALIZE_IO_H_
