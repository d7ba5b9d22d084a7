#include "sim/trainer.h"

#include <algorithm>
#include <utility>

#include "net/fault.h"
#include "net/resilience.h"
#include "net/wire.h"
#include "sim/schedule.h"
#include "util/check.h"

namespace sophon::sim {

EpochStats simulate_epoch_flows(std::size_t num_samples,
                                const std::function<SampleFlow(std::size_t)>& flow,
                                const ClusterConfig& cluster, Seconds gpu_batch_time,
                                std::uint64_t seed, std::size_t epoch_index) {
  NoRecord plain;
  return run_single_job(plain, cluster, num_samples, flow, gpu_batch_time, seed, epoch_index,
                        nullptr)
      .epoch;
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

std::function<SampleFlow(std::size_t)> plan_flow(const dataset::Catalog& catalog,
                                                 const pipeline::Pipeline& pipeline,
                                                 const pipeline::CostModel& cost_model,
                                                 std::span<const std::uint8_t> assignment) {
  SOPHON_CHECK(assignment.empty() || assignment.size() == catalog.size());
  return [&catalog, &pipeline, &cost_model, assignment](std::size_t idx) {
    const auto& raw = catalog.sample(idx).raw;
    const std::size_t prefix = assignment.empty() ? 0 : assignment[idx];
    SOPHON_CHECK(prefix <= pipeline.size());
    SampleFlow f;
    if (prefix > 0) f.storage_cpu = pipeline.prefix_cost(raw, prefix, cost_model);
    f.wire = net::wire_size(pipeline.shape_at(raw, prefix));
    f.compute_cpu = pipeline.suffix_cost(raw, prefix, cost_model);
    f.stage = static_cast<std::uint8_t>(prefix);
    return f;
  };
}

EpochStats simulate_epoch(const dataset::Catalog& catalog, const pipeline::Pipeline& pipeline,
                          const pipeline::CostModel& cost_model, const ClusterConfig& cluster,
                          Seconds gpu_batch_time, std::span<const std::uint8_t> assignment,
                          std::uint64_t seed, std::size_t epoch_index) {
  SOPHON_CHECK(!catalog.empty());
  return simulate_epoch_flows(catalog.size(), plan_flow(catalog, pipeline, cost_model, assignment),
                              cluster, gpu_batch_time, seed, epoch_index);
}

}  // namespace sophon::sim
