#include "cache/cached_training.h"

#include "dataset/sampler.h"
#include "util/check.h"

namespace sophon::cache {

CachedTrainingSession::CachedTrainingSession(const dataset::Catalog& catalog,
                                             const pipeline::Pipeline& pipeline,
                                             const pipeline::CostModel& cost_model,
                                             sim::ClusterConfig cluster, Seconds gpu_batch_time,
                                             core::OffloadPlan plan, Bytes cache_capacity,
                                             std::uint64_t seed)
    : catalog_(catalog),
      pipeline_(pipeline),
      cost_model_(cost_model),
      cluster_(cluster),
      gpu_batch_time_(gpu_batch_time),
      plan_(std::move(plan)),
      cache_(cache_capacity),
      seed_(seed) {
  SOPHON_CHECK(!catalog.empty());
  SOPHON_CHECK(plan_.size() == 0 || plan_.size() == catalog.size());
  if (plan_.size() == 0) plan_ = core::OffloadPlan(catalog.size());
}

CachedEpochResult CachedTrainingSession::run_epoch() {
  // Pre-pass in this epoch's visit order: resolve hits/misses and update
  // the LRU, producing an immutable per-sample serving decision the pure
  // simulator flow can read.
  const dataset::EpochOrder order(catalog_.size(), seed_, epoch_);
  const std::uint64_t hits_before = cache_.hits();
  const std::uint64_t misses_before = cache_.misses();

  std::vector<std::uint8_t> served_from_cache(catalog_.size(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto idx = order.at(pos);
    if (plan_.prefix(idx) > 0) continue;  // offloaded samples bypass the cache
    const bool hit = cache_.access(idx, catalog_.sample(idx).raw.bytes);
    served_from_cache[idx] = hit ? 1 : 0;
  }

  const auto planned = sim::plan_flow(catalog_, pipeline_, cost_model_, plan_.assignment());
  const auto flow = [this, &planned, &served_from_cache](std::size_t idx) {
    if (served_from_cache[idx]) {
      // Local raw blob: no storage work, no link transfer, full local
      // preprocessing.
      sim::SampleFlow f;
      f.compute_cpu = pipeline_.suffix_cost(catalog_.sample(idx).raw, 0, cost_model_);
      return f;
    }
    return planned(idx);
  };

  CachedEpochResult result;
  result.stats = sim::simulate_epoch_flows(catalog_.size(), flow, cluster_, gpu_batch_time_,
                                           seed_, epoch_);
  result.hits = cache_.hits() - hits_before;
  result.misses = cache_.misses() - misses_before;
  ++epoch_;
  return result;
}

}  // namespace sophon::cache
