// The benchmark's workloads. Each builds its inputs from the seed, sets up
// several times (setup_s is the median), measures a closed loop for the
// requested seconds, and checks its outputs afterwards. With tracing on, it
// measures once untraced and once traced, and reports per-layer metrics
// from the traced pass; main adds the layers a workload does not exercise
// with value 0.
#pragma once

#include "bench.h"
#include "span_log.h"

namespace perfbench {

/// How many times a run sets up; setup_s reports the median.
inline constexpr int kSetupRepeats = 3;

enum class RealWorkload {
  /// SOPHON plan over a paced link, 2 workers plus clairvoyant prefetch.
  kLinkBound,
  /// The same corpus and policy over an unpaced link, 3 demand workers.
  kCpuBound,
};

/// The real byte path: DatasetStore -> StorageServer -> PacedLink ->
/// MeteringStorageService -> DataLoader. `process_start` anchors the first
/// setup's duration.
[[nodiscard]] Result run_real(RealWorkload workload, const Args& args,
                              Clock::time_point process_start, SpanLog& log);

/// Repeated paper-scale planning queries (see plan_query.h).
[[nodiscard]] Result run_plan_sim(const Args& args, Clock::time_point process_start,
                                  SpanLog& log);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs; BENCHMARK.json lists the same set.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"samples_per_s", "1/s"},     {"wait_p50_ms", "ms"},        {"wait_p90_ms", "ms"},
    {"wire_mb_per_epoch", "MB"},  {"cpu_ms_per_sample", "ms"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Printed by traced runs; BENCHMARK.json lists the same set.
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"codec.decode_ns_per_px", "ns/px"},
    {"codec.encode_ms_per_sample", "ms"},
    {"pipeline.decode_ms", "ms"},
    {"pipeline.crop_ms", "ms"},
    {"pipeline.flip_ms", "ms"},
    {"pipeline.to_tensor_ms", "ms"},
    {"pipeline.normalize_ms", "ms"},
    {"net.serialize_ns_per_byte", "ns/B"},
    {"net.unpack_ns_per_byte", "ns/B"},
    {"storage.fetch_ms_p50", "ms"},
    {"storage.fetch_ms_p99", "ms"},
    {"storage.busy_ms_per_sample", "ms"},
    {"storage.offloaded_share", "ratio"},
    {"link.busy_share", "ratio"},
    {"link.queue_wait_ms_p50", "ms"},
    {"link.mb_per_epoch", "MB"},
    {"loader.stall_share", "ratio"},
    {"loader.wait_p99_ms", "ms"},
    {"loader.degraded", "count"},
    {"prefetch.issued", "count"},
    {"prefetch.hit_ratio", "ratio"},
    {"prefetch.late_hits", "count"},
    {"core.stage1_ms", "ms"},
    {"core.stage2_ms", "ms"},
    {"core.decide_ms", "ms"},
    {"core.offloaded_share", "ratio"},
    {"core.forecast_error", "ratio"},
    {"sim.simulate_epoch_ms", "ms"},
    {"prefetch.replay_epoch_ms", "ms"},
    {"critpath.analyze_ms", "ms"},
    {"critpath.whatif_ms", "ms"},
    {"critpath.nodes", "count"},
    {"trace.overhead_share", "ratio"},
};

}  // namespace perfbench
