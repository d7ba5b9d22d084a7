#include "prefetch/replay.h"

#include "prefetch/admission.h"

namespace sophon::prefetch {

sim::WorkerLanes worker_lanes(const ReplayOptions& options) {
  sim::WorkerLanes lanes;
  lanes.workers = options.workers;
  lanes.depth = options.prefetch.depth;
  lanes.bytes_budget = options.prefetch.bytes_budget;
  lanes.admit = [prefetch = options.prefetch](std::uint64_t, Bytes wire) {
    return admit(prefetch, 0, wire) == Admission::kPrefetch;
  };
  lanes.served_locally = options.served_locally;
  return lanes;
}

ReplayResult replay_epoch(std::size_t num_samples,
                          const std::function<sim::SampleFlow(std::size_t)>& flow,
                          const sim::ClusterConfig& cluster, Seconds gpu_batch_time,
                          std::uint64_t seed, std::size_t epoch_index,
                          const ReplayOptions& options) {
  sim::ResourceMap resources(cluster);
  resources.link.set_track_inflight(true);
  const sim::JobLoad job =
      sim::single_job(cluster, num_samples, flow, gpu_batch_time, seed, epoch_index);
  const sim::WorkerLanes lanes = worker_lanes(options);
  ReplayResult result;
  sim::NoRecord plain;
  result.epoch = sim::run_worker_lanes(plain, resources, job, lanes, result.prefetch);
  result.epoch.storage_cpu_busy = resources.storage_busy();
  result.prefetch.max_inflight = resources.link.max_inflight();
  return result;
}

}  // namespace sophon::prefetch
