#include "prefetch/replay.h"

#include "prefetch/admission.h"

namespace sophon::prefetch {

namespace {

template <class Rec>
ReplayResult run(Rec& rec, const sim::FlowFn& demand, const EpochParams& params) {
  const bool on_lanes = params.discipline == Discipline::kWorkerReplay;
  const sim::WorkerLanes lanes = on_lanes ? worker_lanes(params.replay) : sim::WorkerLanes{};
  return sim::run_single_job(rec, params.cluster, params.num_samples, demand,
                             params.gpu_batch_time, params.seed, params.epoch_index,
                             on_lanes ? &lanes : nullptr);
}

}  // namespace

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

ReplayResult run_epoch(const sim::FlowFn& demand, const EpochParams& params) {
  sim::NoRecord plain;
  return run(plain, demand, params);
}

RecordedEpoch record_epoch(const sim::FlowFn& demand, const EpochParams& params) {
  RecordedEpoch out;
  static_cast<ReplayResult&>(out) = run(out.record, demand, params);
  return out;
}

ReplayResult replay_epoch(std::size_t num_samples,
                          const std::function<sim::SampleFlow(std::size_t)>& flow,
                          const sim::ClusterConfig& cluster, Seconds gpu_batch_time,
                          std::uint64_t seed, std::size_t epoch_index,
                          const ReplayOptions& options) {
  sim::NoRecord plain;
  const sim::WorkerLanes lanes = worker_lanes(options);
  return sim::run_single_job(plain, cluster, num_samples, flow, gpu_batch_time, seed,
                             epoch_index, &lanes);
}

}  // namespace sophon::prefetch
