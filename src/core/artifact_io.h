#ifndef PILOTE_CORE_ARTIFACT_IO_H_
#define PILOTE_CORE_ARTIFACT_IO_H_

#include <string>

#include "common/result.h"
#include "core/cloud.h"

namespace pilote {
namespace core {

// Persistence for the full cloud artifact: the single file MAGNETO ships
// from the training cluster to a device, and the only on-disk format.
// core::MakeEdgeLearner (core/edge_learner.h) turns a loaded artifact into
// a learner.
//
// Layout: magic "PLTA", version word 2, then five sections (backbone
// config, model payload, scaler state, old-class list, support set), each
// framed as [u32 tag][u64 size][u32 crc32][bytes]. Saves serialize to
// memory and land via serialize::WriteFileAtomic, so an interrupted save
// never clobbers the previous artifact. Loads return kDataLoss for a bad
// magic or any other version word; they bound every section size by the
// bytes left in the file before allocating it and verify every section
// CRC, so a torn or bit-flipped file is kDataLoss naming the damaged
// section.
// Failpoints: "core/artifact/save", "core/artifact/load".
Status SaveArtifact(const std::string& path, const CloudArtifact& artifact);
Result<CloudArtifact> LoadArtifact(const std::string& path);

}  // namespace core
}  // namespace pilote

#endif  // PILOTE_CORE_ARTIFACT_IO_H_
