#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/adapt/adapt.h"
#include "core/adapt/loop.h"
#include "core/profiler.h"
#include "loader/loader.h"
#include "net/wire.h"
#include "obs/replay_trace.h"
#include "obs/report.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon::core::adapt {
namespace {

// A small OpenImages-like corpus plus its stage-2 profiles: big enough for
// the greedy to have real choices, small enough for tight test loops.
struct Fixture {
  dataset::Catalog catalog =
      dataset::Catalog::generate(dataset::openimages_profile(600), 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  std::vector<SampleProfile> profiles = profile_stage2(catalog, pipe, cm);

  // At 8 Gbps the network is not predominant and the greedy offloads
  // nothing — the plan with the most to lose when the link degrades.
  sim::ClusterConfig planned = [] {
    sim::ClusterConfig c;
    c.bandwidth = Bandwidth::mbps(8000.0);
    return c;
  }();
  Seconds gpu_epoch_time{3.0};

  AdaptiveReplanner replanner(AdaptOptions options = {}) {
    return AdaptiveReplanner(profiles, planned, gpu_epoch_time, options);
  }

  // The run_adaptive spec: the planned cluster, one second per GPU batch.
  obs::critpath::EpochParams spec() const {
    return {.cluster = planned, .gpu_batch_time = Seconds(1.0), .num_samples = catalog.size()};
  }

  // The observation a perfectly calibrated epoch would report.
  static EpochObservation faithful(const AdaptiveReplanner& r) {
    EpochObservation obs;
    obs.observed = r.predicted();
    // Traffic consistent with the predicted t_net under the calibrated link.
    obs.traffic = Bytes(static_cast<std::int64_t>(
        r.calibrated().bandwidth.bytes_per_sec() * r.predicted().t_net.value()));
    obs.epoch_time = r.predicted().predicted_epoch_time();
    return obs;
  }
};

TEST(AdaptObserve, FoldsEpochStatsIntoCostComponents) {
  sim::EpochStats stats;
  stats.gpu_busy = Seconds(10.0);
  stats.compute_cpu_busy = Seconds(96.0);   // 48 cores -> 2 s
  // Scaled busy time, as the simulator records it: 24 s of work at speed
  // 0.5 is 48 s of busy time, over 48 cores -> 1 s.
  stats.storage_cpu_busy = Seconds(48.0);
  stats.traffic = Bytes::mib(500);
  stats.epoch_time = Seconds(12.0);
  stats.samples = 1000;
  sim::ClusterConfig actual;
  actual.storage_core_speed = 0.5;
  actual.bandwidth = Bandwidth::mbps(500.0);
  sim::FaultReplayStats faults;
  faults.retries = 7;
  faults.degraded = 3;

  const auto obs = observe_epoch(stats, actual, &faults);
  EXPECT_DOUBLE_EQ(obs.observed.t_g.value(), 10.0);
  EXPECT_DOUBLE_EQ(obs.observed.t_cc.value(), 2.0);
  EXPECT_DOUBLE_EQ(obs.observed.t_cs.value(), 1.0);
  EXPECT_DOUBLE_EQ(obs.observed.t_net.value(),
                   actual.bandwidth.transfer_time(stats.traffic).value());
  EXPECT_EQ(obs.retries, 7u);
  EXPECT_EQ(obs.degraded, 3u);
  EXPECT_DOUBLE_EQ(obs.degraded_rate(), 0.003);
}

// The EpochReport feedback path: trace a recorded worker-lane epoch, fold the
// trace into a report, and observe it. Every component, the traffic and the
// epoch time are the report's own values.
TEST(AdaptObserve, FoldsReportIntoCostComponents) {
  Fixture f;
  obs::critpath::EpochParams params;
  params.cluster = f.planned;
  params.cluster.bandwidth = Bandwidth::mbps(100.0);
  params.cluster.storage_cores = 4;
  params.gpu_batch_time = Seconds(0.05);
  params.num_samples = f.catalog.size();
  params.discipline = obs::critpath::Discipline::kWorkerReplay;
  params.replay.workers = 4;
  const auto plan = OffloadPlan::uniform(f.catalog.size(), 2);
  const auto flow = sim::plan_flow(f.catalog, f.pipe, f.cm, plan.assignment());
  const auto recorded = obs::critpath::record_epoch(flow, params);

  const auto report = obs::EpochReport::build(obs::build_replay_trace(recorded.record, {}),
                                              recorded.epoch.epoch_time);
  const auto costs = report.observed();
  ASSERT_GT(costs.t_cs.value(), 0.0);
  ASSERT_GT(costs.t_net.value(), 0.0);

  const auto obs = observe_report(report, recorded.epoch.traffic);
  EXPECT_EQ(obs.observed.t_g, costs.t_g);
  EXPECT_EQ(obs.observed.t_cc, costs.t_cc);
  EXPECT_EQ(obs.observed.t_cs, costs.t_cs);
  EXPECT_EQ(obs.observed.t_net, costs.t_net);
  EXPECT_EQ(obs.traffic, recorded.epoch.traffic);
  EXPECT_EQ(obs.epoch_time, report.wall());
  EXPECT_EQ(obs.epoch_time, recorded.epoch.epoch_time);
}

TEST(AdaptDrift, NormalisesByPredictedEpochTime) {
  EpochCostVector predicted;
  predicted.t_g = Seconds(4.0);
  predicted.t_net = Seconds(10.0);  // predominant -> denominator
  auto observed = predicted;
  observed.t_net = Seconds(15.0);
  const auto drift = measure_drift(predicted, observed);
  EXPECT_DOUBLE_EQ(drift.t_net, 0.5);
  EXPECT_DOUBLE_EQ(drift.max_drift, 0.5);
  EXPECT_EQ(drift.worst, "t_net");
  EXPECT_FALSE(drift.bottleneck_shifted);

  observed.t_g = Seconds(20.0);  // now the GPU dominates
  const auto shifted = measure_drift(predicted, observed);
  EXPECT_EQ(shifted.worst, "t_g");
  EXPECT_TRUE(shifted.bottleneck_shifted);
}

TEST(AdaptCalibrate, RefitsBandwidthAndStorageSpeedFromMeasurements) {
  sim::ClusterConfig planned;
  planned.bandwidth = Bandwidth::mbps(1000.0);
  planned.storage_core_speed = 1.0;
  EpochCostVector predicted;
  predicted.t_cs = Seconds(2.0);
  EpochObservation obs;
  obs.traffic = Bytes(250'000'000);  // 2 Gbit
  obs.observed.t_net = Seconds(8.0);  // -> 250 Mbps effective
  obs.observed.t_cs = Seconds(4.0);   // storage cores half as fast as planned

  const auto calibrated = calibrate_cluster(planned, predicted, obs);
  EXPECT_NEAR(calibrated.bandwidth.bps(), 250e6, 1e-3);
  EXPECT_NEAR(calibrated.storage_core_speed, 0.5, 1e-12);
  // Knobs the observation says nothing about stay as planned.
  EXPECT_EQ(calibrated.storage_cores, planned.storage_cores);
  EXPECT_EQ(calibrated.batch_size, planned.batch_size);
}

TEST(AdaptReplanner, ZeroDriftIsANoOp) {
  Fixture f;
  auto r = f.replanner();
  const auto before = r.plan();
  for (std::size_t epoch = 0; epoch < 5; ++epoch) {
    r.begin_epoch(epoch);
    const auto decision = r.end_epoch(Fixture::faithful(r));
    EXPECT_EQ(decision.outcome, ReplanOutcome::kNoDrift);
  }
  EXPECT_EQ(r.plan(), before) << "plan lease must be untouched with zero drift";
  EXPECT_EQ(r.generation(), 0u);
}

TEST(AdaptReplanner, DriftExactlyAtThresholdDoesNotTrigger) {
  Fixture f;
  // Perturb t_net and compute the exact drift that perturbation registers.
  auto probe = f.replanner();
  auto observation = Fixture::faithful(probe);
  observation.observed.t_net = observation.observed.t_net + Seconds(2.0);
  const double exact = measure_drift(probe.predicted(), observation.observed).max_drift;
  ASSERT_GT(exact, 0.0);

  AdaptOptions at;
  at.drift_threshold = exact;  // trigger requires strictly-greater drift
  auto r_at = f.replanner(at);
  r_at.begin_epoch(0);
  EXPECT_EQ(r_at.end_epoch(observation).outcome, ReplanOutcome::kNoDrift);
  EXPECT_EQ(r_at.generation(), 0u);

  AdaptOptions below;
  below.drift_threshold = exact * 0.999;
  auto r_below = f.replanner(below);
  r_below.begin_epoch(0);
  EXPECT_NE(r_below.end_epoch(observation).outcome, ReplanOutcome::kNoDrift);
}

// A degraded link: the same traffic took 4x longer than predicted. The
// first boundary must replan; an immediate repeat must hit the cooldown;
// once the cooldown expires the replanner may act again.
TEST(AdaptReplanner, CooldownSuppressesBackToBackReplans) {
  Fixture f;
  AdaptOptions options;
  options.replan_cooldown = 3;
  options.min_improvement = 0.0;
  auto r = f.replanner(options);

  auto degraded = [&] {
    auto obs = Fixture::faithful(r);
    obs.observed.t_net = obs.observed.t_net * 4.0;
    obs.observed.t_net = std::max(obs.observed.t_net, Seconds(20.0));
    return obs;
  };

  r.begin_epoch(0);
  ASSERT_EQ(r.end_epoch(degraded()).outcome, ReplanOutcome::kReplanned);
  EXPECT_EQ(r.generation(), 1u);

  // Pretend the link degraded *again* right away: drift re-fires, but the
  // cooldown holds the plan.
  r.begin_epoch(1);
  const auto suppressed = r.end_epoch(degraded());
  EXPECT_EQ(suppressed.outcome, ReplanOutcome::kSuppressedCooldown);
  EXPECT_EQ(r.generation(), 1u);
  r.begin_epoch(2);
  EXPECT_EQ(r.end_epoch(degraded()).outcome, ReplanOutcome::kSuppressedCooldown);

  // Epoch 3 is `cooldown` epochs after the accepted re-plan: eligible again.
  r.begin_epoch(3);
  const auto eligible = r.end_epoch(degraded());
  EXPECT_NE(eligible.outcome, ReplanOutcome::kSuppressedCooldown);
}

// The improvement floor keeps the plan but re-anchors the prediction to the
// measured coefficients, so a persistent-but-unfixable condition stops
// registering as drift instead of firing forever.
TEST(AdaptReplanner, ImprovementFloorReanchorsPrediction) {
  Fixture f;
  AdaptOptions options;
  options.min_improvement = 2.0;  // no candidate can promise a 200% win
  auto r = f.replanner(options);
  const auto before = r.plan();

  auto obs = Fixture::faithful(r);
  obs.observed.t_net = obs.observed.t_net + Seconds(30.0);
  r.begin_epoch(0);
  EXPECT_EQ(r.end_epoch(obs).outcome, ReplanOutcome::kSuppressedImprovement);
  EXPECT_EQ(r.plan(), before);
  EXPECT_EQ(r.generation(), 0u);

  // The same conditions again: now explained by the re-anchored prediction.
  r.begin_epoch(1);
  EXPECT_EQ(r.end_epoch(obs).outcome, ReplanOutcome::kNoDrift);
}

TEST(AdaptReplanner, BeginEndPairingIsEnforced) {
  Fixture f;
  auto r = f.replanner();
  EXPECT_THROW(r.end_epoch(Fixture::faithful(r)), ContractViolation);
  r.begin_epoch(0);
  EXPECT_THROW(r.begin_epoch(1), ContractViolation);
}

// Oscillating link: the bandwidth flips between healthy and degraded every
// epoch. Hysteresis must keep the plan from thrashing — re-plans stay rare
// and accepted swaps honour the cooldown spacing.
TEST(AdaptLoop, OscillatingBandwidthDoesNotThrash) {
  Fixture f;
  RunOptions options;
  options.epochs = 12;
  options.adapt_options.replan_cooldown = 2;
  options.bandwidth_at = [](std::size_t epoch) {
    return Bandwidth::mbps(epoch % 2 == 0 ? 8000.0 : 2000.0);
  };
  const auto result = run_adaptive(f.catalog, f.pipe, f.cm, f.spec(), options);

  EXPECT_LE(result.replans, 2u) << "oscillation must not swap the plan every flip";
  std::size_t last_swap = 0;
  bool swapped_before = false;
  for (const auto& row : result.rows) {
    if (row.decision.outcome == ReplanOutcome::kReplanned) {
      if (swapped_before) {
        EXPECT_GE(row.epoch - last_swap, options.adapt_options.replan_cooldown)
            << "accepted re-plans closer than the cooldown";
      }
      last_swap = row.epoch;
      swapped_before = true;
    }
  }
  // The loop converges: the tail of the run stops churning decisions.
  EXPECT_NE(result.rows.back().decision.outcome, ReplanOutcome::kReplanned);
}

TEST(AdaptLoop, StaticAndAdaptiveAgreeUntilConditionsDrift) {
  Fixture f;
  RunOptions options;
  options.epochs = 6;
  options.bandwidth_at = [](std::size_t epoch) {
    return Bandwidth::mbps(epoch >= 3 ? 250.0 : 8000.0);
  };
  auto static_options = options;
  static_options.adapt = false;
  const auto adaptive = run_adaptive(f.catalog, f.pipe, f.cm, f.spec(), options);
  const auto fixed = run_adaptive(f.catalog, f.pipe, f.cm, f.spec(), static_options);
  ASSERT_EQ(adaptive.rows.size(), fixed.rows.size());
  // Identical until (and including) the epoch that observes the drift...
  for (std::size_t e = 0; e <= 3; ++e) {
    EXPECT_EQ(adaptive.rows[e].epoch_time.value(), fixed.rows[e].epoch_time.value()) << e;
    EXPECT_EQ(adaptive.rows[e].traffic.count(), fixed.rows[e].traffic.count()) << e;
  }
  // ...then the swapped plan pulls the adaptive run ahead.
  EXPECT_EQ(adaptive.replans, 1u);
  EXPECT_LT(adaptive.rows[5].epoch_time.value(), fixed.rows[5].epoch_time.value());
  EXPECT_LT(adaptive.rows[5].traffic.count(), fixed.rows[5].traffic.count());
}


// The plan-swap safety property, on the real fetch path: a loader holding
// the previous plan's lease keeps producing tensors bit-identical to that
// plan even after the replanner swaps in a new plan mid-epoch.
TEST(AdaptLoader, ReplanWhilePrefetchInFlightKeepsLeasedPlanConsistent) {
  auto profile = dataset::openimages_profile(24);
  profile.min_pixels = 6e4;
  profile.max_pixels = 2.5e5;
  const auto catalog = dataset::Catalog::generate(profile, 42);
  const pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};

  // Initial plan: a hand-built mixed prefix assignment, leased to the
  // replanner so plan() hands out shared ownership of this exact object.
  auto initial = std::make_shared<const OffloadPlan>([&] {
    OffloadPlan plan(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      plan.set(i, static_cast<std::uint8_t>(i % 3 == 0 ? 2 : 0));
    }
    return plan;
  }());

  sim::ClusterConfig planned;
  planned.bandwidth = Bandwidth::mbps(8000.0);
  AdaptOptions adapt_options;
  adapt_options.min_improvement = 0.0;
  AdaptiveReplanner replanner(profile_stage2(catalog, pipe, cm), planned, Seconds(3.0),
                              adapt_options, initial);
  ASSERT_EQ(replanner.plan().get(), initial.get());

  // Reference tensors for the *initial* plan, via the storage server's own
  // fetch path (the same oracle loader_prefetch_test uses).
  std::map<std::uint64_t, image::Tensor> reference;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    net::FetchRequest req;
    req.sample_id = i;
    req.epoch = 5;
    req.directive.prefix_len = initial->prefix(i);
    const auto resp = server.fetch(req);
    auto payload = net::deserialize_sample(resp.payload);
    auto tensor = pipe.run_seeded(std::move(*payload), resp.stage, pipe.size(),
                                  storage::augmentation_seed(42, 5, i));
    reference.emplace(i, std::get<image::Tensor>(std::move(tensor)));
  }

  // Epoch 5 runs with prefetching over the leased plan.
  const auto lease = replanner.plan();
  loader::DataLoader::Options loader_options;
  loader_options.num_workers = 4;
  loader_options.queue_capacity = 8;
  loader_options.seed = 42;
  loader_options.epoch = 5;
  loader_options.prefetch.depth = 16;
  loader::DataLoader loader(server, pipe, *lease, catalog.size(), loader_options);
  loader.start();

  // Mid-epoch (prefetch credits in flight), the replanner observes a badly
  // degraded link and swaps the plan.
  replanner.begin_epoch(5);
  std::size_t count = 0;
  bool swapped = false;
  while (const auto item = loader.next()) {
    EXPECT_EQ(item->tensor, reference.at(item->sample_id)) << "sample " << item->sample_id;
    ++count;
    if (!swapped && count == catalog.size() / 2) {
      auto obs = Fixture::faithful(replanner);
      obs.observed.t_net = obs.observed.t_net + Seconds(100.0);
      obs.traffic = Bytes::mib(100);
      const auto decision = replanner.end_epoch(obs);
      ASSERT_EQ(decision.outcome, ReplanOutcome::kReplanned);
      swapped = true;
    }
  }
  EXPECT_EQ(count, catalog.size());
  ASSERT_TRUE(swapped);
  // The swap installed a fresh object; the lease this epoch ran on is the
  // original plan, untouched.
  EXPECT_NE(replanner.plan().get(), lease.get());
  EXPECT_EQ(lease.get(), initial.get());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(lease->prefix(i), i % 3 == 0 ? 2u : 0u);
  }
}

}  // namespace
}  // namespace sophon::core::adapt
