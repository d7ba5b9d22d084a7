#include "sim/schedule.h"

#include <algorithm>
#include <climits>
#include <deque>
#include <utility>

#include "dataset/sampler.h"
#include "util/check.h"

namespace sophon::sim {

ResourceMap::ResourceMap(const ClusterConfig& cluster)
    : storage{CpuPool(cluster.storage_cores, cluster.storage_core_speed)},
      link(cluster.bandwidth, cluster.link_latency),
      compute{CpuPool(cluster.compute_cores)},
      gpu(1) {
  link.set_fault_injector(cluster.link_faults);
}

void Recorder::reserve(std::size_t samples, std::size_t batches) {
  constexpr auto kMaxNodes = static_cast<std::size_t>(INT32_MAX);
  SOPHON_CHECK_MSG(samples <= (kMaxNodes - nodes_.size()) / kNodesPerSample &&
                       batches <= kMaxNodes - nodes_.size() - kNodesPerSample * samples,
                   "epoch too large for 32-bit node ids");
  nodes_.reserve(nodes_.size() + kNodesPerSample * samples + batches);
  visits_.reserve(visits_.size() + samples);
}

Seconds ResourceMap::storage_busy() const {
  Seconds busy;
  for (const CpuPool& pool : storage) busy += pool.busy_time();
  return busy;
}

JobLoad single_job(const ClusterConfig& cluster, std::size_t num_samples, const FlowFn& flow,
                   Seconds gpu_batch_time, std::uint64_t seed, std::size_t epoch_index) {
  return JobLoad{.num_samples = num_samples,
                 .flow = &flow,
                 .seed = seed,
                 .epoch_index = epoch_index,
                 .batch_size = cluster.batch_size,
                 .gpu_batch_time = gpu_batch_time};
}

namespace {

SampleFlow checked_flow(const JobLoad& job, std::size_t idx) {
  const SampleFlow f = (*job.flow)(idx);
  SOPHON_CHECK(f.storage_cpu.value() >= 0.0 && f.compute_cpu.value() >= 0.0);
  SOPHON_CHECK(f.wire.count() >= 0 && f.delay.value() >= 0.0);
  return f;
}

/// The resource map seen through a provenance policy: each call schedules
/// one job on a server and returns the event completing it, whose parent is
/// the later of the ready event and the event that last freed the server.
template <class Rec>
class Servers {
 public:
  using Event = typename Rec::Event;

  /// One fetch: issued, storage prefix done, last byte sent, payload
  /// arrived. `fetched` is false for a sample served locally.
  struct Trip {
    Event issue;
    Event storage_done;
    Event transmission;
    Event arrival;
    Bytes wire;
    bool fetched = true;
  };

  Servers(Rec& rec, ResourceMap& resources, std::span<const JobLoad> jobs)
      : rec_(rec), res_(resources), stats_(jobs.size()), gpu_free_(res_.gpu.size()) {
    SOPHON_CHECK(!jobs.empty() && jobs.size() <= res_.compute.size() &&
                 jobs.size() <= res_.gpu.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const JobLoad& job = jobs[j];
      SOPHON_CHECK(job.num_samples > 0 && job.batch_size > 0 && res_.compute[j].cores() > 0);
      SOPHON_CHECK(job.flow != nullptr && *job.flow != nullptr);
      SOPHON_CHECK(job.shards.empty() ? job.storage_pool < res_.storage.size()
                                      : job.shards.size() == job.num_samples);
      stats_[j].samples = job.num_samples;
    }
    if constexpr (Rec::kRecords) {
      std::size_t samples = 0;
      std::size_t batches = 0;
      for (const JobLoad& job : jobs) {
        samples += job.num_samples;
        batches += job.num_samples / job.batch_size + (job.num_samples % job.batch_size != 0);
      }
      rec_.reserve(samples, batches);
      for (const CpuPool& pool : res_.storage) storage_free_.emplace_back(pool.cores());
      for (const CpuPool& pool : res_.compute) compute_free_.emplace_back(pool.cores());
    }
  }

  /// Time passing on no server: injected delay, or a request's hop.
  Event wait(Event ready, Seconds span, Resource via, std::int64_t sample, std::int64_t position) {
    if (span.value() <= 0.0) return ready;
    return rec_.add(Rec::time(ready) + span.value(), ready, via, sample, position);
  }

  /// Job j's fetch of sample `idx` issued at `issue`: the request's `hop` to
  /// storage, the offloaded prefix on the sample's storage pool, then the
  /// payload over the FIFO link — its transmission, and (when latency makes
  /// the arrival later) its propagation. Offloading demands a storage core.
  Trip fetch(std::size_t j, const JobLoad& job, std::size_t idx, Event issue, const SampleFlow& f,
             Seconds hop, std::int64_t position) {
    const auto sample = static_cast<std::int64_t>(idx);
    Event t = wait(issue, hop, Resource::kLink, sample, position);
    if (f.storage_cpu.value() > 0.0) {
      const std::size_t p = job.shards.empty() ? job.storage_pool : job.shards[idx];
      CpuPool& pool = res_.storage.at(p);
      SOPHON_CHECK_MSG(pool.can_schedule(), "offload assignment requires storage cores");
      ++stats_[j].offloaded_samples;
      const Seconds before = pool.busy_time();
      t = on_core(pool, storage_free_, p, t, f.storage_cpu, Resource::kStorageCpu, sample,
                  position);
      stats_[j].storage_cpu_busy += pool.busy_time() - before;
    }
    net::SimLink& link = res_.link;
    const double arrival = link.schedule(Seconds(Rec::time(t)), f.wire).value();
    const double sent = link.free_at().value();
    stats_[j].traffic += f.wire;
    const Event transmitted = served(link_free_, t, sent, Resource::kLink, sample, position);
    return Trip{issue, t, transmitted,
                arrival == sent
                    ? transmitted
                    : rec_.add(arrival, transmitted, Resource::kLink, sample, position),
                f.wire};
  }

  /// Job j's local preprocessing.
  Event compute(std::size_t j, Event ready, Seconds cpu, std::int64_t sample,
                std::int64_t position) {
    return on_core(res_.compute[j], compute_free_, j, ready, cpu, Resource::kComputeCpu, sample,
                   position);
  }

  /// One batch step on job j's GPU; `position` is the batch's last.
  Event gpu(std::size_t j, Seconds batch_time, Event ready, std::int64_t position) {
    const double done = res_.gpu[j].schedule(Seconds(Rec::time(ready)), batch_time).value();
    stats_[j].epoch_time = Seconds(done);
    ++stats_[j].batches;
    return served(gpu_free_[j], ready, done, Resource::kGpu, -1, position);
  }

  /// Recording only: one sample's visit, as the ids of its nodes.
  void visit(Event issue, const Trip& trip, Event ready, Event claim, std::int32_t worker,
             bool prefetched) {
    if constexpr (Rec::kRecords) {
      rec_.visit(Visit{issue.node, trip.storage_done.node,
                       trip.fetched ? trip.transmission.node : -1, trip.arrival.node,
                       ready.node, claim.node, worker, prefetched, trip.wire});
    }
  }

  /// Every job's EpochStats; storage_cpu_busy is the job's own share.
  std::vector<EpochStats> finish() {
    for (std::size_t j = 0; j < stats_.size(); ++j) {
      EpochStats& s = stats_[j];
      s.gpu_busy = res_.gpu[j].busy_time();
      s.gpu_utilization = s.epoch_time.value() > 0.0 ? s.gpu_busy / s.epoch_time : 0.0;
      s.compute_cpu_busy = res_.compute[j].busy_time();
    }
    return std::move(stats_);
  }

 private:
  /// The event of a job done at `done` on a server last freed by `free`.
  Event served(Event& free, Event ready, double done, Resource via, std::int64_t sample,
               std::int64_t position) {
    if constexpr (Rec::kRecords) {
      return free = rec_.add(done, Rec::later(ready, free), via, sample, position);
    } else {
      return done;
    }
  }

  Event on_core(CpuPool& pool, std::vector<std::vector<Event>>& free, std::size_t p, Event ready,
                Seconds cpu, Resource via, std::int64_t sample, std::int64_t position) {
    if constexpr (Rec::kRecords) {
      Event& core = free[p][static_cast<std::size_t>(pool.next_core())];
      return served(core, ready, pool.schedule(Seconds(Rec::time(ready)), cpu).value(), via,
                    sample, position);
    } else {
      return pool.schedule(Seconds(ready), cpu).value();
    }
  }

  Rec& rec_;
  ResourceMap& res_;
  std::vector<EpochStats> stats_;
  // Recording only: the event that last freed each core, the link, each GPU.
  std::vector<std::vector<Event>> storage_free_;
  std::vector<std::vector<Event>> compute_free_;
  std::vector<Event> gpu_free_;
  Event link_free_{};
};

}  // namespace

template <class Rec>
std::vector<EpochStats> run_batch_window(Rec& rec, ResourceMap& resources,
                                         std::span<const JobLoad> jobs,
                                         std::size_t prefetch_batches) {
  using Event = typename Rec::Event;
  SOPHON_CHECK(prefetch_batches >= 1);
  Servers<Rec> servers(rec, resources, jobs);
  std::vector<dataset::EpochOrder> orders;
  std::vector<std::vector<dataset::BatchRange>> batches;
  std::vector<std::vector<Event>> gpu_done;
  std::size_t rounds = 0;
  for (const JobLoad& job : jobs) {
    orders.emplace_back(job.num_samples, job.seed, job.epoch_index);
    batches.push_back(dataset::make_batches(job.num_samples, job.batch_size));
    gpu_done.emplace_back(batches.back().size());
    rounds = std::max(rounds, batches.back().size());
  }
  // Round-robin by batch index: the shared storage pools and link see the
  // jobs' requests interleaved at batch granularity.
  for (std::size_t b = 0; b < rounds; ++b) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (b >= batches[j].size()) continue;
      const JobLoad& job = jobs[j];
      // Samples of batch b are requested once batch b - prefetch_batches has
      // cleared the GPU (its loader slots freed).
      const Event issue = b < prefetch_batches ? Event{} : gpu_done[j][b - prefetch_batches];
      Event batch_ready{};
      for (std::size_t pos = batches[j][b].begin; pos < batches[j][b].end; ++pos) {
        const std::uint32_t idx = orders[j].at(pos);
        const SampleFlow f = checked_flow(job, idx);
        const auto position = static_cast<std::int64_t>(pos);
        const auto trip = servers.fetch(
            j, job, idx, servers.wait(issue, f.delay, Resource::kDelay, idx, position), f,
            Seconds(0.0), position);
        const Event ready = f.compute_cpu.value() > 0.0
                                ? servers.compute(j, trip.arrival, f.compute_cpu, idx, position)
                                : trip.arrival;
        servers.visit(issue, trip, ready, Event{}, -1, false);
        batch_ready = Rec::later(batch_ready, ready);
      }
      gpu_done[j][b] = servers.gpu(j, job.gpu_batch_time, batch_ready,
                                   static_cast<std::int64_t>(batches[j][b].end - 1));
    }
  }
  return servers.finish();
}

template <class Rec>
EpochStats run_worker_lanes(Rec& rec, ResourceMap& resources, const JobLoad& job,
                            const WorkerLanes& lanes, LaneStats& stats) {
  using Event = typename Rec::Event;
  using Trip = typename Servers<Rec>::Trip;
  SOPHON_CHECK(lanes.workers >= 1);
  Servers<Rec> servers(rec, resources, {&job, 1});
  const auto order = dataset::EpochOrder(job.num_samples, job.seed, job.epoch_index).order();
  const auto is_local = [&](std::uint64_t id) {
    return lanes.served_locally && lanes.served_locally(id);
  };
  const Seconds hop = resources.link.latency();

  // The prefetcher issues and the workers consume in position order, so
  // credits release FIFO: the j-th issue may start once the (j - depth)-th
  // prefetched sample was consumed and, under a byte budget, once
  // consumption covered every byte issued beyond the budget.
  const Bytes budget = lanes.bytes_budget;
  std::size_t next = 0;  // first position the prefetcher has not decided
  double issued_bytes = 0.0;
  Event last_issue{};
  std::vector<std::pair<Event, double>> consumed;  // (claim, cumulative bytes) per prefetch
  std::size_t bytes_released = 0;
  std::deque<std::pair<std::size_t, Trip>> staged;  // (position, fetch) not yet consumed
  Bytes staged_bytes;
  // (position, flow) the prefetcher evaluated and no worker consumed yet:
  // staged fetches, samples `admit` passed over, and the sample it stopped at.
  std::deque<std::pair<std::size_t, SampleFlow>> decided;
  const auto prefetch = [&] {
    for (; lanes.depth > 0 && next < job.num_samples; ++next) {
      const std::uint64_t id = order[next];
      if (is_local(id)) continue;  // a cache hit moves no bytes; prefetching it would
      if (decided.empty() || decided.back().first != next) {
        decided.emplace_back(next, checked_flow(job, id));
      }
      const SampleFlow& f = decided.back().second;
      if (lanes.admit && !lanes.admit(id, f.wire)) {
        ++stats.skipped_deprioritized;
        continue;
      }
      if (staged.size() >= lanes.depth) return;
      if (budget.count() > 0 && !staged.empty() && staged_bytes + f.wire > budget) return;
      Event release{};
      if (stats.issued >= lanes.depth) release = consumed[stats.issued - lanes.depth].first;
      if (budget.count() > 0) {
        const double required = issued_bytes + static_cast<double>(f.wire.count()) -
                                static_cast<double>(budget.count());
        while (bytes_released < consumed.size() && consumed[bytes_released].second < required) {
          ++bytes_released;
        }
        if (required > 0.0 && bytes_released < consumed.size()) {
          release = Rec::later(release, consumed[bytes_released].first);
        }
      }
      const auto position = static_cast<std::int64_t>(next);
      last_issue = servers.wait(Rec::later(last_issue, release), f.delay, Resource::kDelay,
                                static_cast<std::int64_t>(id), position);
      staged.emplace_back(next, servers.fetch(0, job, id, last_issue, f, hop, position));
      ++stats.issued;
      issued_bytes += static_cast<double>(f.wire.count());
      staged_bytes += f.wire;
    }
  };

  std::vector<Event> worker_free(lanes.workers);
  Event batch_ready{};
  for (std::size_t position = 0; position < job.num_samples; ++position) {
    prefetch();
    std::size_t worker = 0;
    for (std::size_t w = 1; w < worker_free.size(); ++w) {
      if (Rec::time(worker_free[w]) < Rec::time(worker_free[worker])) worker = w;
    }
    const Event claimed = worker_free[worker];
    const std::uint64_t id = order[position];
    const auto sample = static_cast<std::int64_t>(id);
    const auto pos = static_cast<std::int64_t>(position);
    // Positions only grow on both sides, so a flow the prefetcher evaluated
    // for this position is at the front.
    const bool decided_here = !decided.empty() && decided.front().first == position;
    const SampleFlow f = decided_here ? decided.front().second : checked_flow(job, id);
    if (decided_here) decided.pop_front();

    // Staged positions only grow and none lies behind the workers, so a
    // prefetched sample is at the front of the queue.
    const bool prefetched = !staged.empty() && staged.front().first == position;
    Trip trip{claimed, claimed, claimed, claimed, Bytes(0), false};
    Event start = claimed;  // preprocessing may begin
    if (is_local(id)) {
      ++stats.served_locally;
    } else if (prefetched) {
      trip = staged.front().second;
      staged.pop_front();
      staged_bytes -= trip.wire;
      ++stats.hits;
      if (Rec::time(trip.arrival) > Rec::time(claimed)) {
        ++stats.late_hits;
        stats.worker_stall += Seconds(Rec::time(trip.arrival) - Rec::time(claimed));
      }
      start = Rec::later(claimed, trip.arrival);
      consumed.emplace_back(start, (consumed.empty() ? 0.0 : consumed.back().second) +
                                       static_cast<double>(trip.wire.count()));
    } else {
      // Demand fetch: the worker runs the whole round trip synchronously.
      next = std::max(next, position + 1);  // consumed-mark semantics
      const Event issue = servers.wait(claimed, f.delay, Resource::kDelay, sample, pos);
      trip = servers.fetch(0, job, id, issue, f, hop, pos);
      stats.worker_stall += Seconds(Rec::time(trip.arrival) - Rec::time(claimed));
      ++stats.demand_fetches;
      start = trip.arrival;
    }
    const Event done = servers.compute(0, start, f.compute_cpu, sample, pos);
    worker_free[worker] = done;
    servers.visit(trip.issue, trip, done, claimed, static_cast<std::int32_t>(worker), prefetched);
    batch_ready = Rec::later(batch_ready, done);
    if ((position + 1) % job.batch_size == 0 || position + 1 == job.num_samples) {
      servers.gpu(0, job.gpu_batch_time, batch_ready, pos);
      batch_ready = Event{};
    }
  }
  return servers.finish().front();
}

#define SOPHON_SCHEDULE_INSTANTIATE(Rec)                                                     \
  template std::vector<EpochStats> run_batch_window<Rec>(Rec&, ResourceMap&,               \
                                                         std::span<const JobLoad>, std::size_t); \
  template EpochStats run_worker_lanes<Rec>(Rec&, ResourceMap&, const JobLoad&,            \
                                            const WorkerLanes&, LaneStats&);
SOPHON_SCHEDULE_INSTANTIATE(NoRecord)
SOPHON_SCHEDULE_INSTANTIATE(Recorder)
#undef SOPHON_SCHEDULE_INSTANTIATE

}  // namespace sophon::sim
