// Paper-scale planning queries at the paper's cluster (48 compute cores,
// 500 Mbps, AlexNet on an RTX 6000): the OpenImages-like 40k catalog swept
// over Fig 4's limited storage cores, and the ImageNet-like 90k catalog at
// two core counts. Two thirds of the queries are 40k ones, so the latency
// p50 falls inside the 40k queries and the p90 inside the 90k ones rather
// than on the gap between them.
#include <cmath>
#include <cstdio>
#include <map>
#include <span>
#include <utility>

#include "dataset/catalog.h"
#include "model/gpu_model.h"
#include "plan_query.h"
#include "workloads.h"

namespace perfbench {

using namespace sophon;

namespace {

constexpr int kOpenImagesCores[] = {1, 2, 4, 8};
constexpr int kImageNetCores[] = {8, 32};
// The query latency p90 needs at least 100 queries.
constexpr std::uint64_t kMinQueries = 100;

struct Planner {
  dataset::Catalog openimages;
  dataset::Catalog imagenet;
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cost_model;
  std::vector<PlanSetting> sweep;  // one query each, in order
};

std::unique_ptr<Planner> set_up(std::uint64_t seed) {
  auto p = std::make_unique<Planner>();
  p->openimages = dataset::Catalog::generate(dataset::openimages_profile(40000), seed);
  p->imagenet = dataset::Catalog::generate(dataset::imagenet_profile(90000), seed);
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);
  const auto add = [&](const dataset::Catalog& catalog, std::span<const int> core_counts) {
    for (const int cores : core_counts) {
      PlanSetting s;
      s.catalog = &catalog;
      s.pipeline = &p->pipe;
      s.cost_model = &p->cost_model;
      s.cluster.compute_cores = 48;
      s.cluster.storage_cores = cores;
      s.cluster.bandwidth = Bandwidth::mbps(500.0);
      s.gpu_batch_time = gpu.batch_time(s.cluster.batch_size);
      s.seed = seed;
      s.workers = 8;
      s.prefetch_depth = 32;
      p->sweep.push_back(s);
    }
  };
  add(p->openimages, kOpenImagesCores);
  add(p->imagenet, kImageNetCores);
  return p;
}

struct QueryRecord {
  std::size_t setting = 0;  // index into Planner::sweep
  double latency_ms = 0.0;
  QueryOutcome outcome;
};

struct RegionOutcome {
  TimedRegion region;
  std::vector<QueryRecord> queries;
};

/// Whole sweeps, one query at a time, until `seconds` have passed and at
/// least kMinQueries queries completed.
RegionOutcome run_region(const Planner& p, double seconds, SpanLog& log) {
  RegionOutcome out;
  out.region.start();
  while (out.region.wall_seconds() < seconds || out.queries.size() < kMinQueries) {
    for (std::size_t i = 0; i < p.sweep.size(); ++i) {
      QueryRecord q;
      q.setting = i;
      const auto asked = Clock::now();
      {
        const auto span = log.span("plan.query", static_cast<std::int64_t>(out.queries.size()));
        q.outcome = run_query(p.sweep[i], log);
      }
      q.latency_ms = seconds_since(asked) * 1e3;
      out.region.add(p.sweep[i].catalog->size());
      out.queries.push_back(q);
    }
  }
  out.region.stop();
  return out;
}

double mean_of(const std::vector<QueryRecord>& queries, double (*field)(const QueryRecord&)) {
  double total = 0.0;
  for (const auto& q : queries) total += field(q);
  return total / static_cast<double>(queries.size());
}

}  // namespace

Result run_plan_sim(const Args& args, Clock::time_point process_start, SpanLog& log) {
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Planner> planner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto begin = i == 0 ? process_start : Clock::now();
    planner.reset();
    planner = set_up(args.seed);
    // Warm-up: one query per catalog, untraced.
    const bool tracing = log.enabled();
    log.set_enabled(false);
    static_cast<void>(run_query(planner->sweep.front(), log));
    static_cast<void>(run_query(planner->sweep.back(), log));
    log.set_enabled(tracing);
    setup_s.push_back(seconds_since(begin));
  }

  double untraced_rate = 0.0;
  if (args.trace) {
    log.set_enabled(false);
    untraced_rate = run_region(*planner, args.seconds, log).region.rate();
    log.set_enabled(true);
  }
  const auto measured = run_region(*planner, args.seconds, log);
  const auto& queries = measured.queries;
  result.attempted = queries.size();

  // --- Correctness: repeated queries agree exactly, critpath reconciles. ---
  std::map<std::size_t, const QueryOutcome*> first;
  for (const auto& q : queries) {
    const auto& o = q.outcome;
    const auto [it, inserted] = first.emplace(q.setting, &o);
    if (!inserted) {
      result.check(it->second->sim_epoch_s == o.sim_epoch_s &&
                       it->second->sim_traffic_bytes == o.sim_traffic_bytes,
                   "a repeated query simulated a different epoch");
    }
    result.check(o.reconcile_batch_window <= 1e-9 && o.reconcile_worker_replay <= 1e-9,
                 "critpath does not reconcile with the simulators");
  }

  std::vector<double> latency_ms;
  for (const auto& q : queries) latency_ms.push_back(q.latency_ms);
  const auto& region = measured.region;
  auto& e2e = result.end_to_end;
  e2e["samples_per_s"] = {region.rate(), "1/s"};
  e2e["wait_p50_ms"] = {median(latency_ms), "ms"};
  e2e["wait_p90_ms"] = {quantile(latency_ms, 0.9), "ms"};
  e2e["wire_mb_per_epoch"] = {
      mean_of(queries, [](const QueryRecord& q) { return q.outcome.sim_traffic_bytes; }) / 1e6,
      "MB"};
  e2e["cpu_ms_per_sample"] = {
      region.cpu_seconds() * 1e3 / static_cast<double>(region.items()), "ms"};
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  std::printf("plan_sim seed %llu: %zu queries over %.2f s (%.0f catalog samples/s)\n",
              static_cast<unsigned long long>(args.seed), queries.size(),
              region.wall_seconds(), region.rate());
  if (!args.trace) return result;

  auto& layer = result.per_layer;
  const auto p50 = [&](const char* span) { return median(log.durations_ms(span)); };
  layer["core.stage1_ms"] = {p50("core.stage1"), "ms"};
  layer["core.stage2_ms"] = {p50("core.stage2"), "ms"};
  layer["core.decide_ms"] = {p50("core.decide"), "ms"};
  layer["core.offloaded_share"] = {
      mean_of(queries, [](const QueryRecord& q) { return q.outcome.offloaded_share; }), "ratio"};
  layer["core.forecast_error"] = {
      mean_of(queries,
              [](const QueryRecord& q) {
                return std::fabs(q.outcome.sim_traffic_bytes - q.outcome.forecast_bytes) /
                       q.outcome.sim_traffic_bytes;
              }),
      "ratio"};
  layer["sim.simulate_epoch_ms"] = {p50("sim.simulate_epoch"), "ms"};
  layer["prefetch.replay_epoch_ms"] = {p50("prefetch.replay_epoch"), "ms"};
  layer["critpath.analyze_ms"] = {p50("critpath.analyze_epoch"), "ms"};
  layer["critpath.whatif_ms"] = {p50("critpath.project"), "ms"};
  layer["critpath.nodes"] = {
      mean_of(queries,
              [](const QueryRecord& q) { return static_cast<double>(q.outcome.critpath_nodes); }),
      "count"};
  // The prefetch layer here is the worker-lane replay's model of it.
  const double issued = mean_of(
      queries, [](const QueryRecord& q) { return static_cast<double>(q.outcome.replay.issued); });
  const double hits = mean_of(
      queries, [](const QueryRecord& q) { return static_cast<double>(q.outcome.replay.hits); });
  layer["prefetch.issued"] = {issued, "count"};
  layer["prefetch.hit_ratio"] = {issued > 0.0 ? hits / issued : 0.0, "ratio"};
  layer["prefetch.late_hits"] = {
      mean_of(queries,
              [](const QueryRecord& q) { return static_cast<double>(q.outcome.replay.late_hits); }),
      "count"};
  layer["trace.overhead_share"] = {1.0 - region.rate() / untraced_rate, "ratio"};
  return result;
}

}  // namespace perfbench
