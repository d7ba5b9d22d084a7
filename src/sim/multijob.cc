#include "sim/multijob.h"

#include <algorithm>

#include "sim/schedule.h"
#include "util/check.h"

namespace sophon::sim {

MultiJobStats simulate_multijob_epoch(const std::vector<JobSpec>& jobs,
                                      const ClusterConfig& shared) {
  SOPHON_CHECK(!jobs.empty());

  // Storage pool 0 is the shared one; a job with a private partition gets a
  // pool of its own. Every job brings its own compute pool and GPU.
  ResourceMap resources(shared);
  resources.compute.clear();
  resources.gpu.clear();
  std::vector<JobLoad> loads;
  loads.reserve(jobs.size());
  for (const auto& job : jobs) {
    loads.push_back(JobLoad{.num_samples = job.num_samples,
                            .flow = &job.flow,
                            .seed = job.seed,
                            .batch_size = job.batch_size,
                            .gpu_batch_time = job.gpu_batch_time});
    if (job.private_storage_cores >= 0) {
      loads.back().storage_pool = resources.storage.size();
      resources.storage.emplace_back(job.private_storage_cores, shared.storage_core_speed);
    }
    resources.compute.emplace_back(job.compute_cores);
    resources.gpu.emplace_back();
  }

  MultiJobStats stats;
  NoRecord plain;
  stats.per_job = run_batch_window(plain, resources, loads, shared.prefetch_batches);
  for (const EpochStats& e : stats.per_job) {
    stats.makespan = std::max(stats.makespan, e.epoch_time);
    stats.total_traffic += e.traffic;
  }
  stats.shared_storage_busy = resources.storage_busy();
  return stats;
}

}  // namespace sophon::sim
