#include "sim/trainer.h"

#include <algorithm>
#include <utility>

#include "net/fault.h"
#include "net/link.h"
#include "net/resilience.h"
#include "net/wire.h"
#include "sim/resources.h"
#include "util/check.h"

namespace sophon::sim {

EpochStats simulate_epoch_flows(std::size_t num_samples,
                                const std::function<SampleFlow(std::size_t)>& flow,
                                const ClusterConfig& cluster, Seconds gpu_batch_time,
                                std::uint64_t seed, std::size_t epoch_index,
                                const TraceSink& trace) {
  SOPHON_CHECK(num_samples > 0);
  SOPHON_CHECK(cluster.compute_cores > 0);
  SOPHON_CHECK(cluster.batch_size > 0);
  SOPHON_CHECK(cluster.prefetch_batches >= 1);

  const dataset::EpochOrder order(num_samples, seed, epoch_index);
  const auto batches = dataset::make_batches(num_samples, cluster.batch_size);

  CpuPool storage_pool(cluster.storage_cores, cluster.storage_core_speed);
  CpuPool compute_pool(cluster.compute_cores);
  net::SimLink link(cluster.bandwidth, cluster.link_latency);
  link.set_fault_injector(cluster.link_faults);
  GpuResource gpu;

  std::vector<Seconds> batch_gpu_done(batches.size());
  std::size_t offloaded = 0;

  for (std::size_t b = 0; b < batches.size(); ++b) {
    // Bounded prefetch: samples of batch b may only be requested once batch
    // b - prefetch_batches has cleared the GPU (its loader slots freed).
    const Seconds issue = b < cluster.prefetch_batches
                              ? Seconds(0.0)
                              : batch_gpu_done[b - cluster.prefetch_batches];

    Seconds batch_ready(0.0);
    for (std::size_t pos = batches[b].begin; pos < batches[b].end; ++pos) {
      const auto idx = order.at(pos);
      const SampleFlow f = flow(idx);
      SOPHON_CHECK(f.storage_cpu.value() >= 0.0 && f.compute_cpu.value() >= 0.0);
      SOPHON_CHECK(f.wire.count() >= 0);
      SOPHON_CHECK(f.delay.value() >= 0.0);

      Seconds t = issue + f.delay;
      if (f.storage_cpu.value() > 0.0) {
        SOPHON_CHECK_MSG(storage_pool.can_schedule(),
                         "offload assignment requires storage cores");
        ++offloaded;
        t = storage_pool.schedule(t, f.storage_cpu);
      }
      const Seconds storage_done = t;
      t = link.schedule(t, f.wire);
      const Seconds link_done = t;
      if (f.compute_cpu.value() > 0.0) {
        t = compute_pool.schedule(t, f.compute_cpu);
      }
      if (trace) {
        trace(SampleTimeline{.sample_index = idx,
                             .position = pos,
                             .issued = issue,
                             .storage_done = storage_done,
                             .link_done = link_done,
                             .ready = t,
                             .wire = f.wire,
                             .claimed = Seconds()});  // no worker lanes
      }
      batch_ready = std::max(batch_ready, t);
    }
    batch_gpu_done[b] = gpu.schedule(batch_ready, gpu_batch_time);
  }

  EpochStats stats;
  stats.epoch_time = batch_gpu_done.back();
  stats.traffic = link.traffic();
  stats.gpu_busy = gpu.busy_time();
  stats.gpu_utilization =
      stats.epoch_time.value() > 0.0 ? stats.gpu_busy.value() / stats.epoch_time.value() : 0.0;
  stats.storage_cpu_busy = storage_pool.busy_time();
  stats.compute_cpu_busy = compute_pool.busy_time();
  stats.samples = num_samples;
  stats.batches = batches.size();
  stats.offloaded_samples = offloaded;
  return stats;
}

ShardedEpochStats simulate_epoch_sharded(std::size_t num_samples,
                                         const std::function<SampleFlow(std::size_t)>& flow,
                                         const storage::ShardMap& shards,
                                         const ClusterConfig& cluster, Seconds gpu_batch_time,
                                         std::uint64_t seed, std::size_t epoch_index) {
  SOPHON_CHECK(num_samples > 0);
  SOPHON_CHECK(shards.size() == num_samples);
  SOPHON_CHECK(cluster.compute_cores > 0);
  SOPHON_CHECK(cluster.batch_size > 0);
  SOPHON_CHECK(cluster.prefetch_batches >= 1);

  const dataset::EpochOrder order(num_samples, seed, epoch_index);
  const auto batches = dataset::make_batches(num_samples, cluster.batch_size);

  std::vector<CpuPool> node_pools;
  node_pools.reserve(static_cast<std::size_t>(shards.num_nodes()));
  for (int n = 0; n < shards.num_nodes(); ++n) {
    node_pools.emplace_back(cluster.storage_cores, cluster.storage_core_speed);
  }
  CpuPool compute_pool(cluster.compute_cores);
  net::SimLink link(cluster.bandwidth, cluster.link_latency);
  link.set_fault_injector(cluster.link_faults);
  GpuResource gpu;

  std::vector<Seconds> batch_gpu_done(batches.size());
  std::size_t offloaded = 0;

  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Seconds issue = b < cluster.prefetch_batches
                              ? Seconds(0.0)
                              : batch_gpu_done[b - cluster.prefetch_batches];
    Seconds batch_ready(0.0);
    for (std::size_t pos = batches[b].begin; pos < batches[b].end; ++pos) {
      const auto idx = order.at(pos);
      const SampleFlow f = flow(idx);
      Seconds t = issue + f.delay;
      if (f.storage_cpu.value() > 0.0) {
        auto& pool = node_pools[static_cast<std::size_t>(shards.node_of(idx))];
        SOPHON_CHECK_MSG(pool.can_schedule(), "offload assignment requires storage cores");
        ++offloaded;
        t = pool.schedule(t, f.storage_cpu);
      }
      t = link.schedule(t, f.wire);
      if (f.compute_cpu.value() > 0.0) t = compute_pool.schedule(t, f.compute_cpu);
      batch_ready = std::max(batch_ready, t);
    }
    batch_gpu_done[b] = gpu.schedule(batch_ready, gpu_batch_time);
  }

  ShardedEpochStats stats;
  stats.totals.epoch_time = batch_gpu_done.back();
  stats.totals.traffic = link.traffic();
  stats.totals.gpu_busy = gpu.busy_time();
  stats.totals.gpu_utilization = stats.totals.epoch_time.value() > 0.0
                                     ? stats.totals.gpu_busy.value() /
                                           stats.totals.epoch_time.value()
                                     : 0.0;
  stats.totals.compute_cpu_busy = compute_pool.busy_time();
  stats.totals.samples = num_samples;
  stats.totals.batches = batches.size();
  stats.totals.offloaded_samples = offloaded;
  stats.node_cpu_busy.reserve(node_pools.size());
  for (const auto& pool : node_pools) {
    stats.totals.storage_cpu_busy += pool.busy_time();
    stats.node_cpu_busy.push_back(pool.busy_time());
  }
  return stats;
}

std::function<SampleFlow(std::size_t)> faulty_flow(std::function<SampleFlow(std::size_t)> flow,
                                                   std::function<SampleFlow(std::size_t)> raw_flow,
                                                   const net::FaultInjector& faults,
                                                   const net::RetryPolicy& retry,
                                                   std::size_t epoch_index,
                                                   FaultReplayStats* stats,
                                                   obs::TrafficLedger* ledger) {
  SOPHON_CHECK(retry.max_attempts >= 1);
  // `faults` is borrowed: the caller keeps it alive while the flow is used.
  return [flow = std::move(flow), raw_flow = std::move(raw_flow), &faults, retry, epoch_index,
          stats, ledger](std::size_t idx) -> SampleFlow {
    SampleFlow f = flow(idx);
    const Bytes clean_wire = f.wire;  // before retry waste is folded in
    const bool offloaded = f.storage_cpu.value() > 0.0;
    Seconds backoff_delay;
    Bytes wasted_wire;
    Seconds wasted_cpu;
    std::uint64_t retries = 0;
    bool exhausted = true;
    bool permanent = false;
    for (std::uint32_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
      const auto kind = faults.fetch_fault(idx, epoch_index, attempt, offloaded);
      if (kind == net::FaultKind::kNone) {
        exhausted = false;
        break;
      }
      if (kind == net::FaultKind::kPermanent) {
        permanent = true;
        break;
      }
      if (kind == net::FaultKind::kCorrupt) {
        // The corrupt attempt shipped a full payload (and redid the prefix)
        // before validation rejected it.
        wasted_wire += f.wire;
        wasted_cpu += f.storage_cpu;
      }
      if (attempt + 1 == retry.max_attempts) break;  // budget spent
      backoff_delay += net::backoff_for(retry, idx, epoch_index, attempt + 1);
      ++retries;
    }
    if (stats != nullptr) {
      stats->retries += retries;
      stats->backoff += backoff_delay;
      stats->wasted_traffic += wasted_wire;
    }
    if (!exhausted && !permanent) {
      f.delay += backoff_delay;
      f.wire += wasted_wire;
      f.storage_cpu += wasted_cpu;
      if (ledger != nullptr) {
        // Cause decomposition of the fattened wire total: the successful
        // attempt's payload is demand, the corrupt attempts' replays are
        // retry. Sums to f.wire exactly.
        ledger->record(idx, f.stage, obs::TrafficCause::kDemand, clean_wire);
        ledger->record(idx, f.stage, obs::TrafficCause::kRetry, wasted_wire);
      }
      return f;
    }
    // The offloaded fetch is beyond saving: replay the loader's graceful
    // degradation — demote to the raw flow, keeping the penalties already
    // paid. A non-offloaded sample has nothing to demote to; count it
    // failed but keep the epoch moving (the sim has no error channel).
    SampleFlow demoted = offloaded ? raw_flow(idx) : f;
    if (ledger != nullptr) {
      // A demoted offloaded sample ships the raw payload (the degradation
      // ladder's cost); a non-offloaded sample that failed outright still
      // shipped its demand payload in the DES (no error channel).
      ledger->record(idx, demoted.stage,
                     offloaded ? obs::TrafficCause::kRawFallback : obs::TrafficCause::kDemand,
                     demoted.wire);
      ledger->record(idx, f.stage, obs::TrafficCause::kRetry, wasted_wire);
    }
    demoted.delay += backoff_delay;
    demoted.wire += wasted_wire;
    demoted.storage_cpu += wasted_cpu;
    if (stats != nullptr) {
      if (!offloaded ||
          faults.fetch_fault(idx, epoch_index, 0, false) == net::FaultKind::kPermanent) {
        ++stats->failed;  // the raw path is broken too
      } else if (offloaded) {
        ++stats->degraded;
      }
    }
    return demoted;
  };
}

EpochStats simulate_epoch(const dataset::Catalog& catalog, const pipeline::Pipeline& pipeline,
                          const pipeline::CostModel& cost_model, const ClusterConfig& cluster,
                          Seconds gpu_batch_time, std::span<const std::uint8_t> assignment,
                          std::uint64_t seed, std::size_t epoch_index) {
  SOPHON_CHECK(!catalog.empty());
  SOPHON_CHECK(assignment.empty() || assignment.size() == catalog.size());

  const auto flow = [&](std::size_t idx) {
    const auto& meta = catalog.sample(idx);
    const std::size_t prefix = assignment.empty() ? 0 : assignment[idx];
    SOPHON_CHECK(prefix <= pipeline.size());
    SampleFlow f;
    f.storage_cpu =
        prefix > 0 ? pipeline.prefix_cost(meta.raw, prefix, cost_model) : Seconds(0.0);
    f.wire = net::wire_size(pipeline.shape_at(meta.raw, prefix));
    f.compute_cpu = pipeline.suffix_cost(meta.raw, prefix, cost_model);
    f.stage = static_cast<std::uint8_t>(prefix);
    return f;
  };
  return simulate_epoch_flows(catalog.size(), flow, cluster, gpu_batch_time, seed, epoch_index);
}

EpochStats simulate_epochs(const dataset::Catalog& catalog, const pipeline::Pipeline& pipeline,
                           const pipeline::CostModel& cost_model, const ClusterConfig& cluster,
                           Seconds gpu_batch_time, std::span<const std::uint8_t> assignment,
                           std::uint64_t seed, std::size_t num_epochs) {
  SOPHON_CHECK(num_epochs >= 1);
  EpochStats acc;
  for (std::size_t e = 0; e < num_epochs; ++e) {
    const auto s = simulate_epoch(catalog, pipeline, cost_model, cluster, gpu_batch_time,
                                  assignment, seed, e);
    acc.epoch_time += s.epoch_time;
    acc.traffic += s.traffic;
    acc.gpu_busy += s.gpu_busy;
    acc.storage_cpu_busy += s.storage_cpu_busy;
    acc.compute_cpu_busy += s.compute_cpu_busy;
    acc.samples = s.samples;
    acc.batches = s.batches;
    acc.offloaded_samples = s.offloaded_samples;
  }
  const double k = static_cast<double>(num_epochs);
  acc.epoch_time = acc.epoch_time / k;
  acc.traffic = Bytes(static_cast<std::int64_t>(acc.traffic.as_double() / k));
  acc.gpu_busy = acc.gpu_busy / k;
  acc.storage_cpu_busy = acc.storage_cpu_busy / k;
  acc.compute_cpu_busy = acc.compute_cpu_busy / k;
  acc.gpu_utilization =
      acc.epoch_time.value() > 0.0 ? acc.gpu_busy.value() / acc.epoch_time.value() : 0.0;
  return acc;
}

}  // namespace sophon::sim
