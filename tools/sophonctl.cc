// sophonctl — command-line front end for the SOPHON library. `sophonctl
// help` lists every command and flag; docs/CLI.md walks through them.
//
// Every command prints a short report; gen-profiles/decide write JSON
// artifacts the other commands (and external tooling) can consume.
//
// Commands and their flags are declared in one table (commands() below):
// `sophonctl help` renders it, and every invocation validates its flags,
// and the mode each flag needs, against it — so the table is the single
// source of truth the doc-drift linter (tools/check.sh --docs) checks
// docs/CLI.md against.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/adapt/adapt.h"
#include "core/adapt/loop.h"
#include "core/decision.h"
#include "core/policy.h"
#include "core/profiler.h"
#include "core/serialize.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "obs/critpath/critpath.h"
#include "obs/critpath/whatif.h"
#include "obs/ledger.h"
#include "obs/metrics_table.h"
#include "obs/replay_trace.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pipeline/extra_ops.h"
#include "prefetch/replay.h"
#include "shard/format.h"
#include "shard/pack.h"
#include "shard/planner.h"
#include "sim/trainer.h"
#include "dataset/calibrate.h"
#include "storage/disk_store.h"
#include "util/table.h"
#include "util/telemetry.h"

using namespace sophon;
namespace critpath = sophon::obs::critpath;

namespace {

/// Flag bag with typed, defaulted lookups. Accepts "--key value",
/// "--key=value" and bare boolean switches ("--report", stored as "1").
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      // One map assignment per flag: assigning a literal into the map slot
      // trips GCC 12's false -Wrestrict at -O3.
      std::string key = argv[i] + 2;
      std::string value = "1";  // a bare --flag
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value = argv[++i];
      }
      values_[key] = std::move(value);
    }
  }

  [[nodiscard]] bool flag(const std::string& key) const { return values_.contains(key); }

  [[nodiscard]] std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::string required(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

  [[nodiscard]] long integer(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

  /// integer(key, fallback); exits 2 with a message when it is below `min`.
  [[nodiscard]] long integer_at_least(const std::string& key, long fallback, long min) const {
    const long value = integer(key, fallback);
    if (value < min) out_of_range(key, strf("at least %ld", min));
    return value;
  }

  /// number(key, fallback); exits 2 with a message when it is below `min`.
  [[nodiscard]] double number_at_least(const std::string& key, double fallback,
                                       double min) const {
    const double value = number(key, fallback);
    if (!(value >= min)) out_of_range(key, strf("at least %g", min));
    return value;
  }

  /// number(key, fallback); exits 2 with a message unless it is above 0.
  [[nodiscard]] double positive_number(const std::string& key, double fallback) const {
    const double value = number(key, fallback);
    if (!(value > 0.0)) out_of_range(key, "greater than 0");
    return value;
  }

  /// number(key, 0); exits 2 with a message unless it lies in [0, 1].
  [[nodiscard]] double probability(const std::string& key) const {
    const double value = number(key, 0.0);
    if (!(value >= 0.0 && value <= 1.0)) out_of_range(key, "between 0 and 1");
    return value;
  }

  [[nodiscard]] const std::map<std::string, std::string>& values() const { return values_; }

 private:
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  [[noreturn]] void out_of_range(const std::string& key, const std::string& rule) const {
    std::fprintf(stderr, "--%s must be %s (got %s)\n", key.c_str(), rule.c_str(),
                 str(key, "").c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

dataset::DatasetProfile profile_for(const std::string& name, std::size_t samples) {
  if (name == "openimages") return dataset::openimages_profile(samples);
  if (name == "imagenet") return dataset::imagenet_profile(samples);
  std::fprintf(stderr, "unknown dataset '%s' (openimages|imagenet)\n", name.c_str());
  std::exit(2);
}

pipeline::Pipeline pipeline_for(const std::string& name) {
  if (name == "standard") return pipeline::Pipeline::standard();
  if (name == "validation") return pipeline::validation_pipeline();
  std::fprintf(stderr, "unknown pipeline '%s' (standard|validation)\n", name.c_str());
  std::exit(2);
}

/// Write `doc` to `path`; false, after a message, when that fails.
bool write_json(const Json& doc, const std::string& path) {
  if (core::save_json_file(doc, path)) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

/// The --dataset/--samples/--seed corpus, not yet generated: ingest and pack
/// cap its pixels first.
struct Corpus {
  dataset::DatasetProfile profile;
  std::uint64_t seed = 42;
  [[nodiscard]] dataset::Catalog generate() const {
    return dataset::Catalog::generate(profile, seed);
  }
};

Corpus corpus_from(const Flags& flags, long default_samples) {
  const auto name = flags.str("dataset", "openimages");
  const auto samples =
      static_cast<std::size_t>(flags.integer_at_least("samples", default_samples, 1));
  return {profile_for(name, samples), static_cast<std::uint64_t>(flags.integer("seed", 42))};
}

/// The --shard-budget-mib convention: 0 (or omitted) means unlimited.
Bytes shard_budget_from(const Flags& flags) {
  const long mib = flags.integer("shard-budget-mib", 0);
  return mib <= 0 ? Bytes(std::numeric_limits<std::int64_t>::max() / 2) : Bytes::mib(mib);
}

sim::ClusterConfig cluster_from(const Flags& flags) {
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(flags.positive_number("mbps", 500.0));
  cluster.storage_cores = static_cast<int>(flags.integer_at_least("storage-cores", 48, 0));
  cluster.compute_cores = static_cast<int>(flags.integer_at_least("compute-cores", 48, 1));
  cluster.storage_core_speed = flags.positive_number("storage-speed", 1.0);
  cluster.batch_size = static_cast<std::size_t>(flags.integer_at_least("batch-size", 256, 1));
  return cluster;
}

/// One simulated run: what simulate, whatif and trace schedule.
struct RunSpec {
  dataset::Catalog catalog;
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm{};
  core::OffloadPlan plan;
  /// The batch window unless --replay 1; the loader flags fill the lanes.
  prefetch::EpochParams params;

  [[nodiscard]] sim::FlowFn flow() const {
    return sim::plan_flow(catalog, pipe, cm, plan.assignment());
  }
  [[nodiscard]] Seconds gpu_epoch() const {
    return core::gpu_epoch_time(catalog.size(), params.cluster.batch_size,
                                params.gpu_batch_time);
  }
  /// The run on worker lanes with prefetch `depth`.
  [[nodiscard]] prefetch::EpochParams lanes(std::size_t depth) const {
    auto lanes = params;
    lanes.discipline = prefetch::Discipline::kWorkerReplay;
    lanes.replay.prefetch.depth = depth;
    return lanes;
  }
};

/// The run the corpus, cluster, --plan, GPU and loader flags describe, its
/// numbers range-checked before the corpus is built; nullopt, after a
/// message, when the --plan file is unreadable, the wrong size, or offloads
/// a prefix longer than the pipeline.
std::optional<RunSpec> spec_from(const Flags& flags, long default_samples) {
  const auto corpus = corpus_from(flags, default_samples);
  prefetch::EpochParams params;
  params.seed = corpus.seed;
  params.epoch_index = static_cast<std::size_t>(flags.integer_at_least("epoch", 0, 0));
  params.cluster = cluster_from(flags);
  params.replay.workers = static_cast<std::size_t>(flags.integer_at_least("workers", 4, 1));
  params.replay.prefetch.depth =
      static_cast<std::size_t>(flags.integer_at_least("prefetch-depth", 0, 0));
  params.replay.prefetch.bytes_budget =
      Bytes::mib(flags.integer_at_least("prefetch-budget-mib", 0, 0));
  if (flags.integer("replay", 0) != 0) params.discipline = prefetch::Discipline::kWorkerReplay;
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);
  params.gpu_batch_time = gpu.batch_time(params.cluster.batch_size);

  auto catalog = corpus.generate();
  params.num_samples = catalog.size();
  core::OffloadPlan plan(catalog.size());  // all raw without --plan
  if (const auto path = flags.str("plan", ""); !path.empty()) {
    const auto loaded = core::load_json_file(path);
    auto parsed = loaded ? core::plan_from_json(*loaded) : std::nullopt;
    if (!parsed || parsed->size() != catalog.size()) {
      std::fprintf(stderr, "plan %s missing or wrong size\n", path.c_str());
      return std::nullopt;
    }
    plan = std::move(*parsed);
  }
  RunSpec spec{.catalog = std::move(catalog), .plan = std::move(plan), .params = params};
  const auto& prefixes = spec.plan.assignment();
  if (const auto deepest = std::max_element(prefixes.begin(), prefixes.end());
      deepest != prefixes.end() && *deepest > spec.pipe.size()) {
    std::fprintf(stderr, "plan %s offloads a %d-op prefix of a %zu-op pipeline\n",
                 flags.str("plan", "").c_str(), *deepest, spec.pipe.size());
    return std::nullopt;
  }
  return spec;
}

/// The fault flags (see docs/ARCHITECTURE.md, "Fault model"): one injector
/// and the retry policy both simulate modes replay it under.
struct FaultSpec {
  net::FaultInjector injector;
  net::RetryPolicy retry;
};

FaultSpec faults_from(const Flags& flags) {
  net::FaultProfile profile;
  profile.transient_fail_prob = flags.probability("transient-fail");
  profile.permanent_fail_prob = flags.probability("permanent-fail");
  profile.corrupt_prob = flags.probability("corrupt");
  profile.offload_only = flags.integer("fail-offload-only", 1) != 0;
  profile.latency_spike_prob = flags.probability("latency-spike");
  profile.bandwidth_dip_prob = flags.probability("bandwidth-dip");
  profile.seed =
      static_cast<std::uint64_t>(flags.integer("fault-seed", flags.integer("seed", 42)));
  net::RetryPolicy retry;
  retry.max_attempts = static_cast<std::uint32_t>(flags.integer_at_least("retries", 3, 0)) + 1;
  retry.seed = profile.seed;
  return {net::FaultInjector{profile}, retry};
}

int cmd_gen_profiles(const Flags& flags) {
  const auto corpus = corpus_from(flags, 40000);
  const auto out = flags.required("out");

  const auto catalog = corpus.generate();
  const auto profiles =
      core::profile_stage2(catalog, pipeline::Pipeline::standard(), pipeline::CostModel{});
  if (!write_json(core::profiles_to_json(profiles), out)) return 1;
  const auto beneficial = std::count_if(profiles.begin(), profiles.end(),
                                        [](const core::SampleProfile& p) { return p.benefits(); });
  std::printf("wrote %zu profiles to %s (%td beneficial, dataset %s at rest)\n",
              profiles.size(), out.c_str(), beneficial,
              human_bytes(catalog.total_encoded()).c_str());
  return 0;
}

int cmd_decide(const Flags& flags) {
  const auto in = flags.required("profiles");
  const auto out = flags.required("out");
  const auto loaded = core::load_json_file(in);
  if (!loaded) {
    std::fprintf(stderr, "cannot read %s\n", in.c_str());
    return 1;
  }
  const auto profiles = core::profiles_from_json(*loaded);
  if (!profiles) {
    std::fprintf(stderr, "%s is not a stage-2 profile artifact\n", in.c_str());
    return 1;
  }
  const auto cluster = cluster_from(flags);
  const Seconds t_g(flags.positive_number("tg-seconds", 14.0));
  const auto result = core::decide_offloading(*profiles, cluster, t_g);
  if (!write_json(core::plan_to_json(result.plan), out)) return 1;
  std::printf(
      "plan: %zu of %zu samples offloaded (%zu beneficial)\n"
      "predicted: T_Net %.1fs -> %.1fs, T_CS %.1fs, epoch %.1fs -> %.1fs\nwrote %s\n",
      result.offloaded, profiles->size(), result.beneficial_candidates,
      result.baseline.t_net.value(), result.final_cost.t_net.value(),
      result.final_cost.t_cs.value(), result.baseline.predicted_epoch_time().value(),
      result.final_cost.predicted_epoch_time().value(), out.c_str());
  return 0;
}

/// The --adapt path of simulate: a multi-epoch run under a bandwidth
/// schedule, with the online replanner checking drift at every boundary.
int cmd_simulate_adaptive(const Flags& flags, const RunSpec& spec, const FaultSpec& faults) {
  MetricsRegistry metrics;
  core::adapt::RunOptions options;
  // An explicit --plan is the run's initial plan; without one the run
  // starts from the greedy decision.
  if (flags.flag("plan")) {
    options.initial_plan = std::make_shared<const core::OffloadPlan>(spec.plan);
  }
  options.epochs = static_cast<std::size_t>(flags.integer_at_least("epochs", 10, 1));
  options.adapt = flags.integer("adapt", 1) != 0;
  options.adapt_options.drift_threshold = flags.number_at_least("drift-threshold", 0.2, 0.0);
  options.adapt_options.replan_cooldown =
      static_cast<std::size_t>(flags.integer_at_least("replan-cooldown", 2, 1));
  options.adapt_options.min_improvement = flags.number_at_least("min-improvement", 0.05, 0.0);
  options.adapt_options.metrics = &metrics;

  const double drop_factor = flags.positive_number("bw-drop-factor", 1.0);
  const auto drop_epoch = static_cast<std::size_t>(flags.integer_at_least("bw-drop-epoch", 0, 0));
  const Bandwidth planned_bw = spec.params.cluster.bandwidth;
  if (drop_factor != 1.0) {
    options.bandwidth_at = [planned_bw, drop_factor, drop_epoch](std::size_t epoch) {
      return epoch >= drop_epoch ? Bandwidth::bits_per_sec(planned_bw.bps() / drop_factor)
                                 : planned_bw;
    };
  }
  if (faults.injector.enabled()) options.faults = &faults.injector;
  options.retry = faults.retry;

  // Every table row is pre-registered, so the final exposition lists the
  // full vocabulary.
  obs::register_known_metrics(metrics);
  options.telemetry.metrics = &metrics;

  // The traffic ledger is opt-in (--ledger-out): when absent the run loop
  // carries a null pointer and spends nothing on attribution.
  const auto ledger_out = flags.str("ledger-out", "");
  std::unique_ptr<obs::TrafficLedger> ledger;
  if (!ledger_out.empty()) {
    ledger = std::make_unique<obs::TrafficLedger>(obs::TrafficLedger::Options{.metrics = &metrics});
    options.telemetry.ledger = ledger.get();
  }

  const auto result =
      core::adapt::run_adaptive(spec.catalog, spec.pipe, spec.cm, spec.params, options);
  TextTable table({"epoch", "link", "gen", "offloaded", "epoch time", "traffic", "decision"});
  for (const auto& row : result.rows) {
    const auto& drift = row.decision.drift;
    const auto outcome = std::string(core::adapt::replan_outcome_name(row.decision.outcome));
    const std::string decision = options.adapt ? strf("%s (drift %.2f %s)", outcome.c_str(),
                                                      drift.max_drift,
                                                      std::string(drift.worst).c_str())
                                               : "static";
    table.add_row({strf("%zu", row.epoch), strf("%.0f Mbps", row.actual_mbps),
                   strf("%llu", static_cast<unsigned long long>(row.plan_generation)),
                   strf("%zu", row.offloaded), strf("%.1f s", row.epoch_time.value()),
                   human_bytes(row.traffic), decision});
  }
  std::printf("%s", table.render().c_str());
  std::printf("re-plans accepted: %zu | final plan offloads %zu of %zu samples\n",
              result.replans, result.final_plan->offloaded_count(), spec.catalog.size());
  if (ledger != nullptr) {
    const auto exported = ledger->export_state();
    std::printf("%s", obs::render_traffic_report(exported).c_str());
    if (!write_json(exported.to_json(), ledger_out)) return 1;
    std::printf("wrote traffic ledger to %s\n", ledger_out.c_str());
  }
  if (options.adapt) std::printf("%s", metrics.expose().c_str());
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const auto faults = faults_from(flags);
  auto loaded = spec_from(flags, 40000);
  if (!loaded) return 1;
  RunSpec& spec = *loaded;
  // Link faults (latency spikes, bandwidth dips) apply in both modes.
  if (faults.injector.enabled()) spec.params.cluster.link_faults = &faults.injector;
  if (flags.flag("adapt")) return cmd_simulate_adaptive(flags, spec, faults);
  const auto& catalog = spec.catalog;
  const auto& cluster = spec.params.cluster;

  // Materialization what-if: spend a disk budget on deterministic prefixes,
  // then re-run the offload decision over the adjusted profiles (materialised
  // samples carry near-zero t_cs, so the greedy picks them first). The flows
  // below charge the shard-read cost instead of live prefix CPU for them.
  std::vector<core::SampleProfile> adjusted;  // non-empty iff materialization on
  if (const long budget_mib = flags.integer("shard-budget-mib", -1); budget_mib >= 0) {
    const auto profiles = core::profile_stage2(catalog, spec.pipe, spec.cm);
    const Seconds gpu_epoch = spec.gpu_epoch();
    if (flags.str("plan", "").empty()) {
      spec.plan = core::decide_offloading(profiles, cluster, gpu_epoch).plan;
    }
    const auto mat = shard::plan_materialization(profiles, spec.plan,
                                                 spec.pipe.deterministic_prefix(),
                                                 shard_budget_from(flags));
    adjusted = shard::adjusted_profiles(profiles, mat);
    const auto baseline = core::evaluate_plan(profiles, spec.plan, cluster, gpu_epoch);
    const auto redecided = core::decide_offloading(adjusted, cluster, gpu_epoch);
    std::printf("materialized %zu of %zu samples (%s on disk, saves %.1f s/epoch storage CPU)\n",
                mat.materialized, catalog.size(), human_bytes(mat.total_bytes).c_str(),
                mat.cpu_saved.value());
    std::printf(
        "re-rank: offloaded %zu -> %zu | predicted epoch %.1f s -> %.1f s | "
        "T_CS %.1f s -> %.1f s | T_Net %.1f s -> %.1f s\n",
        spec.plan.offloaded_count(), redecided.plan.offloaded_count(),
        baseline.predicted_epoch_time().value(),
        redecided.final_cost.predicted_epoch_time().value(), baseline.t_cs.value(),
        redecided.final_cost.t_cs.value(), baseline.t_net.value(),
        redecided.final_cost.t_net.value());
    spec.plan = redecided.plan;
  }

  sim::FlowFn flow = spec.flow();
  if (!adjusted.empty()) {
    // A materialized prefix costs its adjusted profile, not live prefix CPU.
    flow = [&adjusted, planned = std::move(flow)](std::size_t idx) {
      sim::SampleFlow f = planned(idx);
      if (f.stage > 0) {
        f.storage_cpu = Seconds(0.0);
        for (std::size_t j = 0; j < f.stage; ++j) f.storage_cpu += adjusted[idx].op_costs[j];
      }
      return f;
    };
  }
  sim::FaultReplayStats replay;
  if (faults.injector.enabled()) {
    flow = sim::faulty_flow(flow, sim::plan_flow(catalog, spec.pipe, spec.cm, {}),
                            faults.injector, faults.retry, spec.params.epoch_index, &replay);
  }

  // Every view below schedules this one flow through the one dispatcher:
  // the headline on the batch window, the rest on worker lanes.
  const auto stats = prefetch::run_epoch(flow, spec.params).epoch;
  std::printf("epoch %.1f s | traffic %s | GPU util %.1f%% | offloaded %zu | storage CPU %.1fs\n",
              stats.epoch_time.value(), human_bytes(stats.traffic).c_str(),
              100.0 * stats.gpu_utilization, stats.offloaded_samples,
              stats.storage_cpu_busy.value());
  if (faults.injector.enabled()) {
    std::printf("faults: %llu retries | %zu degraded | %zu failed | %s wasted | %.2fs backoff\n",
                static_cast<unsigned long long>(replay.retries), replay.degraded, replay.failed,
                human_bytes(replay.wasted_traffic).c_str(), replay.backoff.value());
    MetricsRegistry metrics;
    metrics.counter("sophon_fetch_retries").increment(replay.retries);
    metrics.counter("sophon_degraded_samples").increment(replay.degraded);
    metrics.counter("sophon_fetch_failures").increment(replay.failed);
    metrics.gauge("sophon_fetch_backoff_seconds").set(replay.backoff.value());
    std::printf("%s", metrics.expose().c_str());
  }

  // Optional clairvoyant-prefetch comparison: the same flows on worker
  // lanes, demand vs. prefetch (see src/prefetch/).
  const std::size_t depth = spec.params.replay.prefetch.depth;
  if (depth > 0) {
    const auto demand = prefetch::run_epoch(flow, spec.lanes(0));
    const auto prefetched = prefetch::run_epoch(flow, spec.lanes(depth));
    const double speedup =
        demand.epoch.epoch_time.value() / prefetched.epoch.epoch_time.value();
    std::printf(
        "prefetch (depth %zu, %zu workers): epoch %.1f s -> %.1f s (%.2fx) | "
        "traffic %s -> %s\n",
        depth, spec.params.replay.workers, demand.epoch.epoch_time.value(),
        prefetched.epoch.epoch_time.value(), speedup,
        human_bytes(demand.epoch.traffic).c_str(), human_bytes(prefetched.epoch.traffic).c_str());
    const auto& ps = prefetched.prefetch;
    const auto n = [](std::uint64_t count) { return static_cast<unsigned long long>(count); };
    std::printf(
        "prefetch stats: %llu issued | %llu hits (%llu late) | %llu demand | "
        "%llu deprioritized | stall %.1fs -> %.1fs | link inflight peak %llu\n",
        n(ps.issued), n(ps.hits), n(ps.late_hits), n(ps.demand_fetches),
        n(ps.skipped_deprioritized), demand.prefetch.worker_stall.value(),
        ps.worker_stall.value(), n(ps.max_inflight));
  }

  // Recorded run: schedule the epoch once on worker lanes with recording
  // on; the Chrome trace, the stall attribution and the critical path are
  // all views of that one record.
  const auto trace_out = flags.str("trace-out", "");
  const auto critpath_out = flags.str("critpath-out", "");
  const bool want_report = flags.flag("report");
  if (trace_out.empty() && !want_report && critpath_out.empty()) return 0;
  const auto params = spec.lanes(depth);
  const auto traced = prefetch::record_epoch(flow, params);

  const obs::SampleCostFn costs = [&](std::uint32_t idx) {
    obs::SampleOpCosts detail;
    detail.prefix = static_cast<std::int32_t>(spec.plan.prefix(idx));
    for (std::size_t i = spec.plan.prefix(idx); i < spec.pipe.size(); ++i) {
      detail.compute_ops.emplace_back(std::string(spec.pipe.op(i).name()),
                                      spec.pipe.op_cost(catalog.sample(idx).raw, i, spec.cm));
    }
    return detail;
  };
  auto trace = obs::build_replay_trace(traced.record, costs);

  // Critical-path analysis of the recorded epoch: decompose the blame
  // vector, rank the stock what-if scenarios, and overlay the path as a
  // highlighted track in the Chrome trace.
  if (!critpath_out.empty()) {
    const auto whatif = critpath::project(
        critpath::critical_path(traced.record, traced.epoch.epoch_time), flow, params,
        critpath::default_scenarios(params));
    const auto& analysis = whatif.baseline;
    std::printf("%s%s", analysis.render().c_str(), whatif.render().c_str());
    const std::uint32_t critpath_track = trace.track("critical-path");
    for (const auto& segment : analysis.path) {
      trace.add_virtual_span(critpath_track, obs::SpanCategory::kOther,
                             critpath::resource_name(segment.via), segment.begin, segment.end,
                             obs::SpanArgs{.sample = segment.sample, .position = segment.position});
    }
    Json doc = analysis.to_json();
    doc.set("whatif", whatif.to_json());
    if (!write_json(doc, critpath_out)) return 1;
    std::printf("wrote critical-path analysis to %s\n", critpath_out.c_str());
  }

  if (!trace_out.empty()) {
    if (!write_json(obs::chrome_trace_json(trace), trace_out)) return 1;
    std::printf("wrote %zu spans + %zu flows to %s\n", trace.spans.size(), trace.flows.size(),
                trace_out.c_str());
  }
  if (want_report) {
    auto report = obs::EpochReport::build(trace, traced.epoch.epoch_time);
    const auto predicted =
        core::evaluate_plan(core::profile_stage2(catalog, spec.pipe, spec.cm), spec.plan,
                            cluster, spec.gpu_epoch());
    report.set_predicted(obs::EpochReport::Costs{predicted.t_g, predicted.t_cc, predicted.t_cs,
                                                 predicted.t_net});
    std::printf("%s", report.render().c_str());
    if (const auto out = flags.str("report-out", ""); !out.empty()) {
      if (!write_json(report.to_json(), out)) return 1;
      std::printf("wrote stall report to %s\n", out.c_str());
    }
  }
  return 0;
}

/// Analyze one epoch, decompose the critical path, rank the stock what-if
/// scenarios, and (by default) validate every projection against a real
/// simulator re-run under the perturbed config.
int cmd_whatif(const Flags& flags) {
  const double tolerance = flags.number_at_least("tolerance", 0.05, 0.0);
  const auto spec = spec_from(flags, 40000);
  if (!spec) return 1;
  const auto& params = spec->params;
  const auto flow = spec->flow();

  // Schedule the baseline once: its record is both the analyzed critical
  // path and, through its own epoch time, the observed run.
  const auto recorded = prefetch::record_epoch(flow, params);
  const auto report = critpath::project(
      critpath::critical_path(recorded.record, recorded.epoch.epoch_time), flow, params,
      critpath::default_scenarios(params));
  std::printf("%s%s", report.baseline.render().c_str(), report.render().c_str());

  Json doc = report.to_json();
  std::size_t validated = report.ranked.size();  // all, unless validation finds otherwise
  if (flags.integer("validate", 1) != 0) {
    // Every projection must match a real simulator re-run under the
    // perturbed config.
    validated = 0;
    Json verdicts = Json::array();
    for (const auto& projection : report.ranked) {
      const Seconds actual = prefetch::run_epoch(flow, projection.params).epoch.epoch_time;
      const double reference = std::max(actual.value(), 1e-12);
      const double error =
          std::fabs(projection.projected_epoch_time.value() - actual.value()) / reference;
      const bool ok = error <= tolerance;
      std::printf("  %-22s projected %9.3f s | simulated %9.3f s | error %.2e %s\n",
                  projection.name.c_str(), projection.projected_epoch_time.value(),
                  actual.value(), error, ok ? "OK" : "FAIL");
      Json verdict = Json::object();
      verdict.set("name", projection.name);
      verdict.set("simulated_epoch_time_seconds", actual.value());
      verdict.set("rel_error", error);
      verdict.set("ok", ok);
      verdicts.push_back(std::move(verdict));
      validated += ok ? 1 : 0;
    }
    std::printf("what-if validated: %zu of %zu scenarios within %.0f%%\n", validated,
                report.ranked.size(), 100.0 * tolerance);
    Json validation = Json::object();
    validation.set("tolerance", tolerance);
    validation.set("validated", static_cast<std::int64_t>(validated));
    validation.set("total", static_cast<std::int64_t>(report.ranked.size()));
    validation.set("scenarios", std::move(verdicts));
    doc.set("validation", std::move(validation));
  }

  if (const auto out = flags.str("out", ""); !out.empty()) {
    if (!write_json(doc, out)) return 1;
    std::printf("wrote what-if report to %s\n", out.c_str());
  }
  return validated == report.ranked.size() ? 0 : 1;
}

/// Schema-check a Chrome trace-event document with the in-repo JSON parser:
/// structural validity plus the event fields Perfetto needs. --strict
/// additionally requires the sample-lifecycle span categories.
int cmd_validate_trace(const Flags& flags) {
  const auto in = flags.required("in");
  const auto loaded = core::load_json_file(in);
  if (!loaded) {
    std::fprintf(stderr, "cannot read or parse %s\n", in.c_str());
    return 1;
  }
  if (!loaded->is_object() || !loaded->has("traceEvents") ||
      !loaded->at("traceEvents").is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", in.c_str());
    return 1;
  }
  const auto& events = loaded->at("traceEvents");
  std::map<std::string, std::size_t> categories;
  std::map<std::string, std::size_t> time_bases;
  // Flow-event pairing: each id must appear exactly once as a start ("s")
  // and once as a finish ("f") — a dangling arrow is a malformed trace.
  std::map<std::int64_t, std::pair<std::size_t, std::size_t>> flow_phases;
  std::size_t complete = 0;
  std::size_t metadata = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events.at(i);
    const auto fail = [&](const std::string& what) {
      std::fprintf(stderr, "%s: event %zu %s\n", in.c_str(), i, what.c_str());
      return 1;
    };
    if (!event.is_object()) return fail("is not an object");
    for (const char* key : {"name", "ph", "pid", "tid"}) {
      if (!event.has(key)) return fail("lacks a required field");
    }
    // Every field read below must have the type it is read as.
    for (const char* key : {"ph", "bp", "tb", "cat"}) {
      if (event.has(key) && !event.at(key).is_string()) {
        return fail(strf("has a non-string %s", key));
      }
    }
    for (const char* key : {"ts", "dur"}) {
      if (event.has(key) && !event.at(key).is_number()) {
        return fail(strf("has a non-number %s", key));
      }
    }
    if (event.has("id") && !event.at("id").is_integer()) return fail("has a non-integer id");
    const auto& ph = event.at("ph").as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    if (ph == "s" || ph == "f") {
      if (!event.has("id")) return fail("flow event lacks an id");
      if (!event.has("ts")) return fail("lacks ts");
      auto& [starts, finishes] = flow_phases[event.at("id").as_int()];
      if (ph == "s") {
        ++starts;
      } else {
        if (!event.has("bp") || event.at("bp").as_string() != "e") {
          return fail("flow finish is not bound to the enclosing slice (bp != e)");
        }
        ++finishes;
      }
      continue;
    }
    if (ph != "X") return fail("has unsupported phase");
    if (!event.has("ts") || !event.has("dur")) return fail("lacks ts/dur");
    if (event.at("dur").as_number() < 0.0) return fail("has negative duration");
    if (event.has("tb")) {
      const auto& tb = event.at("tb").as_string();
      if (tb != "virtual" && tb != "steady") return fail("has an unknown time base");
      ++time_bases[tb];
    }
    if (event.has("cat")) ++categories[event.at("cat").as_string()];
    ++complete;
  }
  for (const auto& [id, phases] : flow_phases) {
    if (phases.first != 1 || phases.second != 1) {
      std::fprintf(stderr, "%s: flow id %lld has %zu start(s) and %zu finish(es), want 1+1\n",
                   in.c_str(), static_cast<long long>(id), phases.first, phases.second);
      return 1;
    }
  }
  if (flags.integer("strict", 1) != 0) {
    // Counts are read with find, not operator[], which would insert zero
    // entries that the OK line then lists as categories the trace lacks.
    const auto count = [](const std::map<std::string, std::size_t>& counts, const char* key) {
      const auto it = counts.find(key);
      return it == counts.end() ? std::size_t{0} : it->second;
    };
    for (const char* required : {"preprocess", "transfer"}) {
      if (count(categories, required) == 0) {
        std::fprintf(stderr, "%s: no '%s' spans\n", in.c_str(), required);
        return 1;
      }
    }
    if (count(categories, "fetch") == 0 && count(categories, "staging_wait") == 0) {
      std::fprintf(stderr, "%s: no fetch or staging_wait spans\n", in.c_str());
      return 1;
    }
    // The "two time bases" invariant (docs/OBSERVABILITY.md): one file is
    // either a virtual-time replay or a steady-clock recording, never both.
    // Events without a "tb" marker (older exports) don't count either way.
    const std::size_t virtual_spans = count(time_bases, "virtual");
    const std::size_t steady_spans = count(time_bases, "steady");
    if (virtual_spans > 0 && steady_spans > 0) {
      std::fprintf(stderr,
                   "%s: mixed time bases (%zu virtual, %zu steady spans in one file)\n",
                   in.c_str(), virtual_spans, steady_spans);
      return 1;
    }
  }
  std::printf("trace OK: %zu spans, %zu thread names, %zu flows", complete, metadata,
              flow_phases.size());
  for (const auto& [category, count] : categories) {
    std::printf(" | %s %zu", category.c_str(), count);
  }
  for (const auto& [base, count] : time_bases) {
    std::printf(" | tb:%s %zu", base.c_str(), count);
  }
  std::printf("\n");
  return 0;
}

/// Recursive numeric comparison of two JSON bench artifacts. Numbers must
/// agree within the relative tolerance, everything else exactly; candidate
/// keys missing from the baseline are ignored (new fields are not a
/// regression).
bool bench_compare_value(const std::string& path, const Json& baseline, const Json& candidate,
                         double tolerance, std::size_t& mismatches) {
  const auto report = [&](const std::string& what) {
    std::fprintf(stderr, "  %s: %s\n", path.empty() ? "(root)" : path.c_str(), what.c_str());
    ++mismatches;
    return false;
  };
  if (baseline.is_number() && candidate.is_number()) {
    const double want = baseline.as_number();
    const double got = candidate.as_number();
    const double scale = std::max({std::fabs(want), std::fabs(got), 1e-12});
    if (std::fabs(want - got) / scale > tolerance) {
      return report(strf("%.6g -> %.6g (%.1f%% off, tolerance %.1f%%)", want, got,
                         100.0 * std::fabs(want - got) / scale, 100.0 * tolerance));
    }
    return true;
  }
  if (baseline.type() != candidate.type()) return report("type changed");
  if (baseline.is_object()) {
    bool ok = true;
    for (const auto& [key, value] : baseline.items()) {
      const std::string child = path.empty() ? key : path + "." + key;
      if (!candidate.has(key)) {
        report("missing from candidate");
        ok = false;
        continue;
      }
      ok = bench_compare_value(child, value, candidate.at(key), tolerance, mismatches) && ok;
    }
    return ok;
  }
  if (baseline.is_array()) {
    if (baseline.size() != candidate.size()) return report("array length changed");
    bool ok = true;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      ok = bench_compare_value(path + strf("[%zu]", i), baseline.at(i), candidate.at(i),
                               tolerance, mismatches) &&
           ok;
    }
    return ok;
  }
  if (!(baseline == candidate)) return report("value changed");
  return true;
}

/// Compare a freshly produced BENCH_*.json against the committed baseline.
/// Backs tools/check.sh --bench-regress.
int cmd_bench_compare(const Flags& flags) {
  const auto baseline_path = flags.required("baseline");
  const auto candidate_path = flags.required("candidate");
  const double tolerance = flags.number_at_least("tolerance", 0.05, 0.0);
  const auto baseline = core::load_json_file(baseline_path);
  const auto candidate = core::load_json_file(candidate_path);
  if (!baseline || !candidate) {
    std::fprintf(stderr, "cannot read %s\n", (!baseline ? baseline_path : candidate_path).c_str());
    return 1;
  }
  std::size_t mismatches = 0;
  if (!bench_compare_value("", *baseline, *candidate, tolerance, mismatches)) {
    std::fprintf(stderr, "bench-compare: %zu field(s) regressed (%s vs %s)\n", mismatches,
                 candidate_path.c_str(), baseline_path.c_str());
    return 1;
  }
  std::printf("bench-compare OK: %s within %.0f%% of %s\n", candidate_path.c_str(),
              100.0 * tolerance, baseline_path.c_str());
  return 0;
}

int cmd_evaluate(const Flags& flags) {
  core::RunConfig config;
  const auto corpus =
      corpus_from(flags, flags.str("dataset", "openimages") == "imagenet" ? 90000 : 40000);
  config.cluster = cluster_from(flags);
  const auto results = core::run_all_policies(corpus.generate(), pipeline::Pipeline::standard(),
                                              pipeline::CostModel{}, config);
  TextTable table({"policy", "epoch time", "traffic", "offloaded"});
  for (const auto& r : results) {
    table.add_row({r.name, strf("%.1f s", r.stats.epoch_time.value()),
                   human_bytes(r.stats.traffic), strf("%zu", r.stats.offloaded_samples)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_trace(const Flags& flags) {
  const auto spec = spec_from(flags, 8000);
  if (!spec) return 1;
  const auto traced = prefetch::record_epoch(spec->flow(), spec->params);
  std::printf("epoch %.1f s | traffic %s | mean per-sample latency %s\n",
              traced.epoch.epoch_time.value(), human_bytes(traced.epoch.traffic).c_str(),
              human_seconds(obs::mean_latency(traced.record)).c_str());
  if (const auto out = flags.str("out", ""); !out.empty()) {
    if (!write_json(obs::timeline_json(traced.record), out)) return 1;
    std::printf("wrote %zu timeline records to %s\n", traced.record.visits().size(),
                out.c_str());
  }
  return 0;
}

int cmd_calibrate(const Flags& flags) {
  const auto samples = static_cast<std::size_t>(flags.integer_at_least("samples", 5, 1));
  const auto repeats = static_cast<int>(flags.integer_at_least("repeats", 3, 1));
  std::vector<dataset::SampleMeta> corpus;
  for (std::size_t i = 0; i < samples; ++i) {
    dataset::SampleMeta meta;
    meta.id = i;
    const int w = 320 + static_cast<int>(i) * 160;
    meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, w * 3 / 4, 3);
    meta.texture = 0.15 + 0.7 * static_cast<double>(i) / static_cast<double>(samples);
    corpus.push_back(meta);
  }
  dataset::CalibrationOptions options;
  options.repeats = repeats;
  const auto result = dataset::calibrate_cost_model(corpus, options);
  const auto& c = result.coefficients;
  const std::pair<const char*, double> fitted[] = {
      {"decode_ns_per_byte", c.decode_ns_per_byte},
      {"decode_ns_per_pixel", c.decode_ns_per_pixel},
      {"crop_ns_per_src_pixel", c.crop_ns_per_src_pixel},
      {"resize_ns_per_out_pixel", c.resize_ns_per_out_pixel},
      {"flip_ns_per_pixel", c.flip_ns_per_pixel},
      {"to_tensor_ns_per_element", c.to_tensor_ns_per_element},
      {"normalize_ns_per_element", c.normalize_ns_per_element}};
  std::printf("fitted coefficients (median relative error %.0f%%):\n",
              100.0 * result.median_relative_error());
  for (const auto& [name, value] : fitted) std::printf("  %-25s %.2f\n", name, value);
  if (const auto out = flags.str("out", ""); !out.empty()) {
    Json json = Json::object();
    json.set("kind", "sophon.cost_coefficients");
    json.set("version", 1);
    for (const auto& [name, value] : fitted) json.set(name, value);
    if (!write_json(json, out)) return 1;
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_ingest(const Flags& flags) {
  auto corpus = corpus_from(flags, 64);
  const auto dir = flags.required("dir");
  // Ingest is real materialisation; keep images modest unless overridden.
  corpus.profile.max_pixels =
      flags.number_at_least("max-pixels", 1.5e6, corpus.profile.min_pixels);
  const auto catalog = corpus.generate();
  storage::DiskStore store{dir};
  const auto written = store.ingest_catalog(catalog, corpus.seed, corpus.profile.quality);
  std::printf("ingested %zu blobs (%s) into %s\n", written,
              human_bytes(store.stored_bytes()).c_str(), dir.c_str());
  return 0;
}

/// Plan a materialization and pack the shard file: profile the corpus, run
/// the offload decision, greedily select deterministic prefixes by
/// materialization efficiency under the byte budget, execute them, write
/// the shard.
int cmd_pack(const Flags& flags) {
  auto corpus = corpus_from(flags, 512);
  const auto out = flags.required("out");
  const auto cluster = cluster_from(flags);
  // Packing is real materialisation (like ingest); keep images modest
  // unless overridden.
  corpus.profile.max_pixels =
      flags.number_at_least("max-pixels", 1.5e6, corpus.profile.min_pixels);
  const auto catalog = corpus.generate();
  const auto pipe = pipeline_for(flags.str("pipeline", "standard"));
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const Seconds t_g(flags.positive_number("tg-seconds", 14.0));
  const auto decision = core::decide_offloading(profiles, cluster, t_g);
  const auto budget = shard_budget_from(flags);
  const auto plan = shard::plan_materialization(profiles, decision.plan,
                                                pipe.deterministic_prefix(), budget);
  const auto stats =
      shard::pack_catalog(catalog, corpus.seed, corpus.profile.quality, pipe, cm, plan, out);
  if (!stats) {
    std::fprintf(stderr, "cannot write shard %s\n", out.c_str());
    return 1;
  }
  std::printf("packed %zu of %zu samples (deterministic prefix <= %zu of %zu ops) into %s\n",
              stats->entries, catalog.size(), pipe.deterministic_prefix(), pipe.size(),
              out.c_str());
  std::printf("shard %s (payloads %s) | storage CPU saved %.2f s/epoch | "
              "one-time pack cost %.2f s\n",
              human_bytes(stats->file_bytes).c_str(), human_bytes(stats->payload_bytes).c_str(),
              plan.cpu_saved.value(), stats->modeled_cpu.value());
  return 0;
}


/// Open a shard, re-verify every entry's crc32, and summarise the contents
/// per materialisation stage. Non-zero exit on a malformed file or any
/// failed checksum.
int cmd_inspect_shard(const Flags& flags) {
  const auto in = flags.required("in");
  const auto reader = shard::ShardReader::open(in);
  if (!reader) {
    std::fprintf(stderr, "%s is not a valid shard (bad magic/version/index)\n", in.c_str());
    return 1;
  }
  std::map<unsigned, std::pair<std::size_t, std::int64_t>> by_stage;  // stage -> count, bytes
  std::size_t corrupt = 0;
  for (const auto& entry : reader->entries()) {
    if (!reader->read_verified(entry)) {
      ++corrupt;
      std::fprintf(stderr, "entry %llu: crc mismatch\n",
                   static_cast<unsigned long long>(entry.sample_id));
      continue;
    }
    auto& [count, bytes] = by_stage[entry.stage];
    ++count;
    bytes += static_cast<std::int64_t>(entry.length);
  }
  TextTable table({"stage", "entries", "payload"});
  for (const auto& [stage, agg] : by_stage) {
    table.add_row({strf("%u", stage), strf("%zu", agg.first), human_bytes(Bytes(agg.second))});
  }
  std::printf("%s", table.render().c_str());
  std::printf("%zu entries, %s on disk, %zu corrupt\n", reader->size(),
              human_bytes(reader->file_bytes()).c_str(), corrupt);
  if (corrupt > 0) return 1;
  std::printf("all checksums OK\n");
  return 0;
}

std::optional<obs::LedgerExport> load_ledger(const std::string& path) {
  const auto doc = core::load_json_file(path);
  auto exported = doc ? obs::LedgerExport::from_json(*doc) : std::nullopt;
  if (!exported) {
    std::fprintf(stderr, "%s is not a valid traffic-ledger export\n", path.c_str());
  }
  return exported;
}

int cmd_traffic_report(const Flags& flags) {
  const auto exported = load_ledger(flags.required("in"));
  if (!exported) return 1;
  std::printf("%s", obs::render_traffic_report(*exported).c_str());
  return 0;
}

int cmd_traffic_diff(const Flags& flags) {
  const auto a = load_ledger(flags.required("a"));
  const auto b = load_ledger(flags.required("b"));
  if (!a || !b) return 1;
  const auto diff = obs::diff_ledgers(*a, *b);
  std::printf("%s", obs::render_traffic_diff(diff).c_str());
  if (flags.flag("expect-zero") && !diff.identical()) {
    std::fprintf(stderr, "expected byte-identical ledgers, total delta %lld bytes\n",
                 static_cast<long long>(diff.total_delta()));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Command table: the single source of truth for dispatch, help output, and
// flag validation. tools/check.sh --docs diffs `sophonctl help` against
// docs/CLI.md, so a flag added here without a docs entry fails CI.

/// The mode of its command a flag needs: simulate's --adapt run or its
/// single-epoch run, whatif's --replay 1. Outside it the flag exits 2
/// instead of being ignored.
enum Mode : std::uint8_t { kAnyMode, kNeedsAdapt, kNoAdapt, kNeedsReplay };

/// Why `flags` may not carry a flag of `mode`; null when they may.
const char* mode_violation(Mode mode, const Flags& flags) {
  const bool adapt = flags.flag("adapt");
  if (mode == kNeedsAdapt && !adapt) return "requires --adapt";
  if (mode == kNoAdapt && adapt) return "cannot be combined with --adapt";
  if (mode == kNeedsReplay && flags.integer("replay", 0) == 0) return "requires --replay 1";
  return nullptr;
}

struct FlagSpec {
  const char* name;
  const char* arg;  // value placeholder, or "" for a boolean switch
  const char* help;
  Mode mode = kAnyMode;
};

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

const std::vector<FlagSpec> kClusterFlags = {
    {"mbps", "N", "inter-cluster link bandwidth in Mbps (default 500)"},
    {"storage-cores", "N", "storage-node preprocessing cores (default 48)"},
    {"compute-cores", "N", "compute-node preprocessing cores (default 48)"},
    {"storage-speed", "X", "storage core speed relative to a compute core (default 1.0)"},
    {"batch-size", "N", "training batch size (default 256)"},
};

const std::vector<FlagSpec> kCorpusFlags = {
    {"dataset", "NAME", "openimages | imagenet (default openimages)"},
    {"samples", "N", "catalog size"},
    {"seed", "N", "deterministic corpus/shuffle seed (default 42)"},
};

std::vector<FlagSpec> with_common(std::vector<FlagSpec> own, bool corpus, bool cluster) {
  std::vector<FlagSpec> all;
  if (corpus) all.insert(all.end(), kCorpusFlags.begin(), kCorpusFlags.end());
  if (cluster) all.insert(all.end(), kClusterFlags.begin(), kClusterFlags.end());
  all.insert(all.end(), own.begin(), own.end());
  return all;
}

const std::vector<CommandSpec>& commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"gen-profiles", "run the stage-2 profiler and write the per-sample profile artifact",
       with_common({{"out", "FILE", "profile JSON artifact to write (required)"}}, true, false),
       cmd_gen_profiles},
      {"decide", "run the greedy offloading decision over a profile artifact",
       with_common({{"profiles", "FILE", "stage-2 profile artifact from gen-profiles (required)"},
                    {"out", "FILE", "offload plan JSON to write (required)"},
                    {"tg-seconds", "X", "T_G, the GPU epoch time in seconds (default 14)"}},
                   false, true),
       cmd_decide},
      {"simulate", "simulate training epochs under a plan, faults, prefetch, or --adapt",
       with_common(
           {{"epoch", "N", "epoch index for the single-epoch run (default 0)", kNoAdapt},
            {"plan", "FILE",
             "offload plan from decide (default: no offloading; under --adapt, the "
             "greedy plan)"},
            {"transient-fail", "P", "per-attempt transient fetch failure probability"},
            {"permanent-fail", "P", "per-sample permanent fetch failure probability"},
            {"corrupt", "P", "per-attempt payload corruption probability"},
            {"fail-offload-only", "0|1", "restrict faults to offloaded fetches (default 1)"},
            {"latency-spike", "P", "per-transfer link latency spike probability"},
            {"bandwidth-dip", "P", "per-transfer link bandwidth dip probability"},
            {"fault-seed", "N", "fault replay seed (default: --seed)"},
            {"retries", "N", "retry budget per failed fetch (default 3)"},
            {"prefetch-depth", "N", "enable prefetch comparison at this depth", kNoAdapt},
            {"workers", "N", "loader workers for prefetch/traced replay (default 4)", kNoAdapt},
            {"prefetch-budget-mib", "N", "staging-buffer byte budget (0 = unbounded)", kNoAdapt},
            {"trace-out", "FILE", "write a Chrome trace of the replayed epoch", kNoAdapt},
            {"report", "", "print the epoch stall-attribution report", kNoAdapt},
            {"report-out", "FILE", "write the stall report JSON", kNoAdapt},
            {"critpath-out", "FILE",
             "write the critical-path analysis + ranked what-if "
             "scenarios JSON (adds a critical-path trace track)",
             kNoAdapt},
            {"adapt", "0|1", "multi-epoch adaptive run (0 = static multi-epoch baseline)"},
            {"epochs", "N", "epochs for the --adapt run (default 10)", kNeedsAdapt},
            {"drift-threshold", "X", "re-plan when drift exceeds this (default 0.2)", kNeedsAdapt},
            {"replan-cooldown", "N", "min epochs between accepted re-plans (default 2)",
             kNeedsAdapt},
            {"min-improvement", "X", "relative-improvement floor for a re-plan (default 0.05)",
             kNeedsAdapt},
            {"bw-drop-factor", "X", "divide link bandwidth by this mid-run (default 1)",
             kNeedsAdapt},
            {"bw-drop-epoch", "N", "epoch at which the bandwidth drop hits (default 0)",
             kNeedsAdapt},
            {"ledger-out", "FILE",
             "attribute every link byte to a cause and write the "
             "traffic-ledger export (--adapt runs)",
             kNeedsAdapt},
            {"shard-budget-mib", "N",
             "materialize deterministic prefixes under this disk budget and re-rank "
             "(0 = unlimited)",
             kNoAdapt}},
           true, true),
       cmd_simulate},
      {"evaluate", "compare all offloading policies on one corpus",
       with_common({}, true, true), cmd_evaluate},
      {"calibrate", "fit cost-model coefficients against materialised samples",
       {{"samples", "N", "synthetic calibration corpus size (default 5)"},
        {"repeats", "N", "timing repeats per op (default 3)"},
        {"out", "FILE", "write fitted coefficients JSON"}},
       cmd_calibrate},
      {"ingest", "materialise a synthetic corpus into an on-disk blob store",
       with_common({{"dir", "DIR", "target directory (required)"},
                    {"max-pixels", "N", "cap per-image pixel count (default 1.5e6)"}},
                   true, false),
       cmd_ingest},
      {"pack", "plan a stage materialization and write the packed shard file",
       with_common({{"out", "FILE", "shard file to write (required)"},
                    {"pipeline", "NAME", "standard | validation (default standard)"},
                    {"shard-budget-mib", "N", "disk budget for the shard (0 = unlimited)"},
                    {"tg-seconds", "X", "T_G, the GPU epoch time in seconds (default 14)"},
                    {"max-pixels", "N", "cap per-image pixel count (default 1.5e6)"}},
                   true, true),
       cmd_pack},
      {"inspect-shard", "verify a packed shard's checksums and summarise its contents",
       {{"in", "FILE", "shard file to inspect (required)"}}, cmd_inspect_shard},
      {"trace", "simulate one epoch and export per-sample timeline records",
       with_common({{"plan", "FILE", "offload plan from decide (default: no offloading)"},
                    {"out", "FILE", "write timeline JSON"}},
                   true, true),
       cmd_trace},
      {"whatif", "re-time an epoch under perturbed resources and rank validated scenarios",
       with_common({{"plan", "FILE", "offload plan from decide (default: no offloading)"},
                    {"epoch", "N", "epoch index to analyze (default 0)"},
                    {"replay", "0|1",
                     "worker-level replay discipline instead of the batch-window trainer "
                     "(default 0)"},
                    {"workers", "N", "loader workers for --replay 1 (default 4)", kNeedsReplay},
                    {"prefetch-depth", "N", "prefetch depth for --replay 1 (default 0)",
                     kNeedsReplay},
                    {"prefetch-budget-mib", "N",
                     "staging byte budget for --replay 1 (0 = unbounded)", kNeedsReplay},
                    {"validate", "0|1",
                     "re-run the simulator under each scenario and check the projection "
                     "(default 1)"},
                    {"tolerance", "X", "max relative projection error per scenario (default 0.05)"},
                    {"out", "FILE", "write the what-if report JSON"}},
                   true, true),
       cmd_whatif},
      {"validate-trace", "schema-check a Chrome trace produced by simulate --trace-out",
       {{"in", "FILE", "trace JSON to validate (required)"},
        {"strict", "0|1", "require span coverage and a single time base (default 1)"}},
       cmd_validate_trace},
      {"bench-compare", "compare a bench artifact against a committed baseline",
       {{"baseline", "FILE", "committed BENCH_*.json (required)"},
        {"candidate", "FILE", "freshly produced artifact to check (required)"},
        {"tolerance", "X", "max relative drift per numeric field (default 0.05)"}},
       cmd_bench_compare},
      {"traffic-report", "render a traffic-ledger export: per-cause, per-stage, plan savings",
       {{"in", "FILE", "ledger JSON from simulate --ledger-out (required)"}},
       cmd_traffic_report},
      {"traffic-diff", "compare two traffic-ledger exports, causes ranked by byte delta",
       {{"a", "FILE", "baseline ledger export (required)"},
        {"b", "FILE", "candidate ledger export (required)"},
        {"expect-zero", "", "fail unless the two ledgers are byte-identical"}},
       cmd_traffic_diff},
  };
  return kCommands;
}

const CommandSpec* find_command(const std::string& name) {
  for (const auto& spec : commands()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void print_command_help(const CommandSpec& spec, std::FILE* out) {
  std::fprintf(out, "sophonctl %s — %s\n", spec.name, spec.summary);
  for (const auto& flag : spec.flags) {
    const std::string left =
        std::string("--") + flag.name + (flag.arg[0] == '\0' ? "" : std::string(" ") + flag.arg);
    std::fprintf(out, "  %-26s %s\n", left.c_str(), flag.help);
  }
}

int cmd_help(const std::string& topic) {
  if (!topic.empty()) {
    const auto* spec = find_command(topic);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown command '%s'\n", topic.c_str());
      return 2;
    }
    print_command_help(*spec, stdout);
    return 0;
  }
  std::printf("usage: sophonctl <command> [flags]\n\n");
  for (const auto& spec : commands()) {
    print_command_help(spec, stdout);
    std::printf("\n");
  }
  std::printf("run 'sophonctl help <command>' for a single command\n");
  return 0;
}

/// Reject flags the command's spec does not declare — typos fail loudly
/// instead of silently falling back to defaults — and flags the selected
/// mode does not read.
bool validate_flags(const CommandSpec& spec, const Flags& flags) {
  bool ok = true;
  for (const auto& [key, value] : flags.values()) {
    if (key == "help") continue;
    const auto flag = std::find_if(spec.flags.begin(), spec.flags.end(),
                                   [&key](const FlagSpec& f) { return key == f.name; });
    const char* wrong_mode = nullptr;
    if (flag == spec.flags.end()) {
      std::fprintf(stderr, "unknown flag --%s for 'sophonctl %s' (see: sophonctl help %s)\n",
                   key.c_str(), spec.name, spec.name);
      ok = false;
    } else if ((wrong_mode = mode_violation(flag->mode, flags)) != nullptr) {
      std::fprintf(stderr, "--%s %s\n", key.c_str(), wrong_mode);
      ok = false;
    }
  }
  return ok;
}

void usage() {
  std::string names;
  for (const auto& spec : commands()) names += std::string(spec.name) + " | ";
  std::fprintf(stderr, "usage: sophonctl <command> [flags]\ncommands: %shelp\n", names.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "help" || command == "--help" || command == "-h") {
    return cmd_help(argc > 2 ? argv[2] : "");
  }
  const auto* spec = find_command(command);
  if (spec == nullptr) {
    usage();
    return 2;
  }
  const Flags flags(argc, argv, 2);
  if (flags.flag("help")) {
    print_command_help(*spec, stdout);
    return 0;
  }
  if (!validate_flags(*spec, flags)) return 2;
  return spec->run(flags);
}
