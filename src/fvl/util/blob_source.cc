#include "fvl/util/blob_source.h"

#include "fvl/util/file.h"

namespace fvl {

Result<BlobSource> BlobSource::MapFile(const std::string& path) {
  Result<FileHandle> file = FileHandle::OpenRead(path);
  if (!file.ok()) return file.status();
  Result<MmapRegion> region = MmapRegion::Map(*file);
  if (!region.ok()) return region.status();
  BlobSource source;
  source.mapping_ =
      std::make_shared<const MmapRegion>(std::move(region).value());
  source.view_ = source.mapping_->view();
  return source;
}

void BlobSource::AdviseSequential() const {
  if (mapping_ != nullptr) mapping_->Advise(MmapRegion::Advice::kSequential);
}

void BlobSource::AdviseRandom() const {
  if (mapping_ != nullptr) mapping_->Advise(MmapRegion::Advice::kRandom);
}

void BlobSource::AdviseDontNeed() const {
  if (mapping_ != nullptr) mapping_->Advise(MmapRegion::Advice::kDontNeed);
}

}  // namespace fvl
