#include "dataset/catalog.h"

#include "codec/sjpg.h"
#include "util/check.h"

namespace sophon::dataset {

Catalog Catalog::generate(const DatasetProfile& profile, std::uint64_t seed) {
  SOPHON_CHECK(profile.num_samples > 0);
  SOPHON_CHECK(profile.min_pixels <= profile.max_pixels);
  Catalog catalog;
  catalog.samples_.reserve(profile.num_samples);
  for (std::uint64_t id = 0; id < profile.num_samples; ++id) {
    auto meta = draw_sample(profile, seed, id);
    catalog.total_encoded_ += meta.raw.bytes;
    catalog.samples_.push_back(std::move(meta));
  }
  return catalog;
}

Catalog Catalog::from_blobs(std::span<const std::vector<std::uint8_t>> blobs) {
  Catalog catalog;
  catalog.samples_.reserve(blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto hdr = codec::sjpg_peek(blobs[i]);
    SOPHON_CHECK_MSG(hdr.has_value(), "blob is not a valid SJPG stream");
    SampleMeta meta;
    meta.id = i;
    meta.raw = pipeline::SampleShape::encoded(Bytes(static_cast<std::int64_t>(blobs[i].size())),
                                              hdr->width, hdr->height, hdr->channels);
    catalog.total_encoded_ += meta.raw.bytes;
    catalog.samples_.push_back(meta);
  }
  return catalog;
}

const SampleMeta& Catalog::sample(std::size_t index) const {
  SOPHON_CHECK(index < samples_.size());
  return samples_[index];
}

Bytes Catalog::mean_encoded() const {
  if (samples_.empty()) return Bytes(0);
  return Bytes(total_encoded_.count() / static_cast<std::int64_t>(samples_.size()));
}

double Catalog::fraction_larger_than(Bytes threshold) const {
  if (samples_.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_)
    if (s.raw.bytes > threshold) ++n;
  return static_cast<double>(n) / static_cast<double>(samples_.size());
}

}  // namespace sophon::dataset
