// Observability overhead pin. The claim in src/obs/trace.h is that span
// guards are cheap enough to stay compiled into the hot fetch/preprocess
// loops: under 3% on a realistic per-op workload while tracing is enabled,
// and nothing but a relaxed load and a branch while disabled. The traffic
// ledger (obs/ledger.h) claims under 3% per attribution record on the same
// workload. run_adaptive's epoch-boundary metrics hook (core/adapt/loop.h)
// claims under 3% of a bare run, and its absent hooks (metrics registry,
// ledger) do exactly zero work. The critical-path analyzer (obs/critpath)
// claims that one epoch re-time costs under 3% of the epoch it explains.
// This bench measures each claim and self-verifies the bounds, so a
// regression in any path fails ctest instead of silently taxing every run.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/adapt/loop.h"
#include "net/wire.h"
#include "obs/critpath/critpath.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "util/stats.h"

using namespace sophon;

namespace {

constexpr std::size_t kIterations = 20000;
constexpr std::size_t kRepetitions = 7;
constexpr std::size_t kChunks = 40;  // configs alternate every kIterations / kChunks iterations
constexpr std::size_t kTelemetryPairs = 48;
constexpr std::size_t kWorkloadSteps = 3000;  // ~ a few microseconds, a small pipeline op

/// Overhead in percent from paired timings: each measurement of the
/// configuration ran right next to one of its baseline, so machine-state
/// drift (frequency, co-tenants) cancels inside the pair, and the median
/// ratio discards the pairs a burst of noise hit. Comparing two independent
/// best-of-N minima instead lets one lucky baseline repetition decide the
/// verdict.
double paired_overhead_pct(const std::vector<double>& measured,
                           const std::vector<double>& baseline) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < measured.size() && i < baseline.size(); ++i) {
    ratios.push_back(measured[i] / baseline[i]);
  }
  return 100.0 * (median(std::move(ratios)) - 1.0);
}

/// Stand-in for one pipeline op: a pure xorshift accumulation the compiler
/// cannot fold away (the result is consumed by the caller).
std::uint64_t workload(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < kWorkloadSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
}

/// Iterations [first, first + n) of one op plus one ledger attribution
/// record each; returns the elapsed ns. The ledger's unit of work is a
/// fetch response, and a realistic fetch (wire copy + crc of a ~0.5 MiB
/// payload) costs microseconds — the op-sized workload here is the honest
/// denominator for the <3% claim; the DES harness below strips per-fetch
/// cost entirely, so a per-sample hook measured against it would be bounded
/// by simulator speed, not by the ledger.
double ledger_chunk_ns(std::uint64_t& sink, obs::TrafficLedger& ledger, std::uint64_t first_id,
                       std::size_t first, std::size_t n) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = first; i < first + n; ++i) {
    sink += workload(sink + i);
    ledger.record(first_id + i, 2, obs::TrafficCause::kDemand, Bytes(1 << 19));
  }
  return elapsed_ns(start);
}

/// Iterations [first, first + n) of one op, each inside a span guard if
/// `with_span`; returns the elapsed ns.
double op_chunk_ns(std::uint64_t& sink, std::size_t first, std::size_t n, bool with_span) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = first; i < first + n; ++i) {
    if (with_span) {
      obs::Span span(obs::SpanCategory::kPreprocess, "bench_op");
      span.args().sample = static_cast<std::int64_t>(i);
      sink += workload(sink + i);
    } else {
      sink += workload(sink + i);
    }
  }
  return elapsed_ns(start);
}

/// ns/iter of N configurations, measured per chunk.
template <std::size_t N>
using ChunkSeries = std::array<std::vector<double>, N>;

/// One repetition of N configurations over kIterations iterations,
/// interleaved chunk by chunk in alternating order (0..N-1, then N-1..0);
/// appends each chunk's ns/iter to `series[config]`. The N chunks at one
/// index ran within milliseconds of each other and pair up.
/// `chunk_ns(config, first, n)` runs iterations [first, first + n) of one
/// configuration and returns the elapsed ns.
template <std::size_t N, typename ChunkFn>
void interleaved_chunks(ChunkSeries<N>& series, ChunkFn&& chunk_ns) {
  constexpr std::size_t kChunk = kIterations / kChunks;
  for (std::size_t k = 0; k < kChunks; ++k) {
    for (std::size_t j = 0; j < N; ++j) {
      const std::size_t config = k % 2 == 0 ? j : N - 1 - j;
      series[config].push_back(chunk_ns(config, k * kChunk, kChunk) / kChunk);
    }
  }
}

struct TelemetryCost {
  // Wall times of run_adaptive (ms), warm-up excluded.
  std::vector<double> baseline_ms;  // no hooks
  std::vector<double> enabled_ms;   // the metrics hook
  std::vector<double> ledger_ms;    // metrics plus the per-sample traffic ledger
  bool completed = false;           // every run_adaptive call finished its epochs
  std::uint64_t epochs_counted = 0;  // sophon_epochs_completed after all hooked runs
  std::uint64_t ledger_records = 0;  // attribution records the ledger runs took
  bool disabled_is_zero = false;  // absent hooks touched no telemetry object
};

/// Time run_adaptive with and without its hooks, paired run by run like the
/// span measurement below pairs chunks.
TelemetryCost telemetry_cost() {
  using namespace sophon::core::adapt;
  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(8000), 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  sim::ClusterConfig planned;
  planned.bandwidth = Bandwidth::mbps(8000.0);

  // Constructed up front and never wired into any run: if every run leaves
  // them untouched, "absent hooks cost exactly zero" holds structurally,
  // not just below measurement noise.
  MetricsRegistry sentinel_registry;
  sophon::obs::TrafficLedger sentinel_ledger;

  MetricsRegistry registry;
  sophon::obs::TrafficLedger::Options ledger_options;
  ledger_options.metrics = &registry;
  sophon::obs::TrafficLedger ledger(ledger_options);

  enum class Mode { kBare, kMetrics, kMetricsAndLedger };
  auto run_ms = [&](Mode mode) {
    RunOptions options;
    options.epochs = 6;
    if (mode != Mode::kBare) options.telemetry.metrics = &registry;
    if (mode == Mode::kMetricsAndLedger) options.telemetry.ledger = &ledger;
    const auto start = std::chrono::steady_clock::now();
    const auto result = run_adaptive(
        catalog, pipe, cm,
        {.cluster = planned, .gpu_batch_time = Seconds(1.0), .num_samples = catalog.size()},
        options);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (result.rows.size() != options.epochs) return -1.0;
    return std::chrono::duration<double, std::milli>(elapsed).count();
  };

  TelemetryCost cost;
  // The pinned pair, bare vs metrics: back to back in alternating order, and
  // apart from the heavier informational runs below, whose allocations
  // would otherwise tax whichever run follows them.
  for (std::size_t pair = 0; pair < kTelemetryPairs + 1; ++pair) {
    const bool bare_first = pair % 2 == 0;
    const double first = run_ms(bare_first ? Mode::kBare : Mode::kMetrics);
    const double second = run_ms(bare_first ? Mode::kMetrics : Mode::kBare);
    if (first < 0.0 || second < 0.0) return cost;
    if (pair == 0) continue;  // warm-up
    cost.baseline_ms.push_back(bare_first ? first : second);
    cost.enabled_ms.push_back(bare_first ? second : first);
  }
  for (std::size_t rep = 0; rep < kRepetitions + 1; ++rep) {
    const double with_ledger = run_ms(Mode::kMetricsAndLedger);
    if (with_ledger < 0.0) return cost;
    if (rep == 0) continue;  // warm-up
    cost.ledger_ms.push_back(with_ledger);
  }
  cost.completed = true;
  const MetricsSnapshot hooked = registry.snapshot();
  const auto epochs = hooked.counters.find("sophon_epochs_completed");
  cost.epochs_counted = epochs == hooked.counters.end() ? 0 : epochs->second;
  cost.ledger_records = ledger.records();
  const MetricsSnapshot untouched = sentinel_registry.snapshot();
  cost.disabled_is_zero = sentinel_ledger.records() == 0 &&
                          untouched.counters.empty() && untouched.gauges.empty() &&
                          untouched.durations.empty() && untouched.histograms.empty();
  return cost;
}

struct CritPathCost {
  double analyzer_ms = 1e18;   // one analyze_epoch over the full epoch, best-of-N
  double epoch_seconds = 0.0;  // duration of the epoch it re-timed
  double pct = 100.0;          // analyzer wall time / epoch duration
};

/// The critical-path pin proper: the analyzer runs once per epoch boundary,
/// so its honest denominator is the epoch it re-times — the simulator's
/// epoch_time *is* the wall-clock a real run of that cluster would spend
/// before the boundary hook fires. Re-timing 8000 samples takes
/// milliseconds against a multi-second epoch, and the bound is <3%.
CritPathCost critpath_cost() {
  namespace critpath = sophon::obs::critpath;
  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(8000), 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;

  critpath::EpochParams params;
  params.cluster.compute_cores = 16;
  params.cluster.storage_cores = 4;
  params.cluster.bandwidth = Bandwidth::mbps(500.0);
  params.cluster.batch_size = 64;
  params.gpu_batch_time = Seconds(0.05);
  params.num_samples = catalog.size();
  const critpath::DemandFn demand = [&](std::size_t i) {
    const auto& meta = catalog.sample(i);
    critpath::SampleDemand d;
    d.compute_cpu = pipe.suffix_cost(meta.raw, 0, cm);
    d.wire = net::wire_size(pipe.shape_at(meta.raw, 0));
    return d;
  };

  CritPathCost cost;
  for (std::size_t rep = 0; rep < kRepetitions + 1; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto analysis = critpath::analyze_epoch(demand, params);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (rep == 0) continue;  // warm-up
    cost.analyzer_ms =
        std::min(cost.analyzer_ms, std::chrono::duration<double, std::milli>(elapsed).count());
    cost.epoch_seconds = analysis.epoch_time.value();
  }
  cost.pct = cost.epoch_seconds > 0.0
                 ? 100.0 * (cost.analyzer_ms / 1e3) / cost.epoch_seconds
                 : 100.0;
  return cost;
}

}  // namespace

int main() {
  obs::Tracer& tracer = obs::global_tracer();
  tracer.set_capacity(kIterations + 64);
  std::uint64_t sink = 0x9e3779b97f4a7c15ull;

  // Configs (0 baseline, 1 disabled guard, 2 enabled span) are interleaved
  // chunk by chunk so frequency drift and other machine-state changes tax
  // all three equally; each overhead is the median of the per-chunk ratios
  // against the baseline.
  ChunkSeries<3> spans;
  std::size_t drained = 0;
  for (std::size_t rep = 0; rep < kRepetitions + 1; ++rep) {
    ChunkSeries<3> warm_up;  // first round: caches, rings, branch predictor
    interleaved_chunks(rep == 0 ? warm_up : spans,
                       [&](std::size_t config, std::size_t first, std::size_t n) {
                         tracer.set_enabled(config == 2);
                         const double chunk = op_chunk_ns(sink, first, n, config != 0);
                         tracer.set_enabled(false);
                         return chunk;
                       });
    drained += tracer.drain().size();
  }
  const auto& [baseline, disabled, enabled] = spans;

  // Ledger record cost, in its own interleaved pairing (with its own
  // baseline) so the span measurement above stays undisturbed.
  ChunkSeries<2> ledger_runs;
  obs::TrafficLedger op_ledger;
  for (std::size_t rep = 0; rep < kRepetitions + 1; ++rep) {
    ChunkSeries<2> warm_up;
    interleaved_chunks(rep == 0 ? warm_up : ledger_runs,
                       [&](std::size_t config, std::size_t first, std::size_t n) {
                         return config == 0
                                    ? op_chunk_ns(sink, first, n, false)
                                    : ledger_chunk_ns(sink, op_ledger, rep * kIterations, first, n);
                       });
  }
  const auto& [ledger_base, with_ledger] = ledger_runs;

  const double disabled_pct = paired_overhead_pct(disabled, baseline);
  const double enabled_pct = paired_overhead_pct(enabled, baseline);
  const double ledger_pct = paired_overhead_pct(with_ledger, ledger_base);
  const double baseline_ns = median(baseline);
  const double ledger_base_ns = median(ledger_base);
  std::printf("trace overhead (%zu iterations x %zu reps in %zu-iteration chunks, ~%.0f ns "
              "workload, sink %llx; medians, overheads are median paired ratios)\n",
              kIterations, kRepetitions, kIterations / kChunks, baseline_ns,
              static_cast<unsigned long long>(sink));
  std::printf("  baseline  %8.1f ns/iter\n", baseline_ns);
  std::printf("  disabled  %8.1f ns/iter  (%+.2f%%)\n", median(disabled), disabled_pct);
  std::printf("  enabled   %8.1f ns/iter  (%+.2f%%, %.0f ns/span, %zu spans drained)\n",
              median(enabled), enabled_pct, baseline_ns * enabled_pct / 100.0, drained);
  std::printf("  +ledger   %8.1f ns/iter  (%+.2f%%, %.0f ns/record, %llu records)\n",
              median(with_ledger), ledger_pct, ledger_base_ns * ledger_pct / 100.0,
              static_cast<unsigned long long>(op_ledger.records()));

  // Bounds: enabled tracing must stay under 3% on an op-sized workload;
  // the disabled guard must be indistinguishable from no guard. Its true
  // cost is one relaxed load and a branch (~1 ns), but the measured delta
  // between two identical-cost loops jitters about +/-2% on a busy machine,
  // so that is the bound — anything real (a lock, an allocation) would
  // clear it by an order of magnitude.
  const bool enabled_ok = enabled_pct < 3.0;
  const bool disabled_ok = disabled_pct < 2.0;
  const bool ledger_ok = ledger_pct < 3.0 && op_ledger.records() > 0;

  // run_adaptive's epoch-boundary metrics hook, measured on the real
  // adaptive run loop.
  const TelemetryCost telemetry = telemetry_cost();
  if (!telemetry.completed) {
    std::printf("FAILED: run_adaptive did not complete its epochs\n");
    return 1;
  }
  const double telemetry_pct = paired_overhead_pct(telemetry.enabled_ms, telemetry.baseline_ms);
  // Informational, deliberately not pinned: the DES simulates a sample in
  // tens of nanoseconds, so *any* per-sample hook is large relative to it.
  // The pinned ledger bound is the per-record one above, against an op-sized
  // workload — the granularity the ledger actually operates at. This run
  // still proves records flow end-to-end and that absent hooks stay at
  // exactly zero.
  const double bare_ms = median(telemetry.baseline_ms);
  const double ledger_run_pct = 100.0 * (median(telemetry.ledger_ms) / bare_ms - 1.0);
  std::printf("telemetry overhead (run_adaptive, 6 epochs, median of %zu pairs)\n",
              telemetry.baseline_ms.size());
  std::printf("  baseline  %8.2f ms/run\n", bare_ms);
  std::printf("  enabled   %8.2f ms/run  (%+.2f%%, %llu epochs counted)\n",
              median(telemetry.enabled_ms), telemetry_pct,
              static_cast<unsigned long long>(telemetry.epochs_counted));
  std::printf("  +ledger   %8.2f ms/run  (%+.2f%% of a ~20 ns/sample DES, unpinned; "
              "%llu attribution records)\n",
              median(telemetry.ledger_ms), ledger_run_pct,
              static_cast<unsigned long long>(telemetry.ledger_records));
  std::printf("  disabled  hooks absent: %s\n",
              telemetry.disabled_is_zero
                  ? "0 records, 0 metrics touched"
                  : "TOUCHED TELEMETRY STATE");
  const bool telemetry_ok = telemetry_pct < 3.0 && telemetry.epochs_counted > 0;
  const bool ledger_flow_ok = telemetry.ledger_records > 0;

  // The analyzer's own pin: one per-epoch re-time against the epoch it
  // explains. Like the ledger, the run-level number above is bounded by DES
  // speed, not analyzer cost; the epoch-relative bound is the honest one.
  const CritPathCost critpath = critpath_cost();
  std::printf("critpath analyzer (8000-sample epoch, best of %zu)\n", kRepetitions);
  std::printf("  analyze   %8.2f ms against a %.1f s epoch  (%.3f%% of the epoch)\n",
              critpath.analyzer_ms, critpath.epoch_seconds, critpath.pct);
  const bool critpath_ok = critpath.pct < 3.0 && critpath.epoch_seconds > 0.0;

  if (enabled_ok && disabled_ok && ledger_ok && telemetry_ok && ledger_flow_ok && critpath_ok &&
      telemetry.disabled_is_zero) {
    std::printf("verified: enabled overhead %.2f%% < 3%%, disabled %.2f%% < 2%%, "
                "ledger %.2f%% < 3%%, telemetry %.2f%% < 3%%, critpath %.3f%% of the "
                "epoch < 3%% (exactly 0 when absent)\n",
                enabled_pct, disabled_pct, ledger_pct, telemetry_pct, critpath.pct);
    return 0;
  }
  std::printf("FAILED: enabled %.2f%% (limit 3%%), disabled %.2f%% (limit 2%%), "
              "ledger %.2f%% (limit 3%%), telemetry %.2f%% (limit 3%%), "
              "critpath %.3f%% (limit 3%%), ledger records: %llu, absent-hooks zero: %s\n",
              enabled_pct, disabled_pct, ledger_pct, telemetry_pct, critpath.pct,
              static_cast<unsigned long long>(telemetry.ledger_records),
              telemetry.disabled_is_zero ? "yes" : "no");
  return 1;
}
