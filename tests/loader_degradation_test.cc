// Graceful degradation of the DataLoader under injected fetch faults: the
// epoch must complete with bit-identical tensors while a struggling storage
// node costs traffic savings, never correctness — and a genuinely dead path
// must surface as an error from next(), not a hang.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "loader/loader.h"
#include "net/fault.h"
#include "net/resilience.h"
#include "net/wire.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/check.h"

namespace sophon::loader {
namespace {

struct Fixture {
  dataset::DatasetProfile profile = [] {
    auto p = dataset::openimages_profile(24);
    p.min_pixels = 6e4;
    p.max_pixels = 2.5e5;  // small images keep the threads fast
    return p;
  }();
  dataset::Catalog catalog = dataset::Catalog::generate(profile, 42);
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cm;
  storage::DatasetStore store{catalog, 42, profile.quality};
  storage::StorageServer server{store, pipe, cm, {.seed = 42}};

  core::OffloadPlan mixed_plan() {
    core::OffloadPlan plan(catalog.size());
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      plan.set(i, static_cast<std::uint8_t>(i % 3 == 0 ? 2 : 0));
    }
    return plan;
  }

  net::RetryPolicy retry_policy() {
    net::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff = Seconds::millis(0.1);
    policy.sleep = false;
    policy.seed = 42;
    return policy;
  }

  /// Single-threaded fault-free reference tensors keyed by sample id.
  std::map<std::uint64_t, image::Tensor> reference(const core::OffloadPlan& plan,
                                                   std::size_t epoch) {
    std::map<std::uint64_t, image::Tensor> out;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      net::FetchRequest req;
      req.sample_id = i;
      req.epoch = epoch;
      req.directive.prefix_len = plan.prefix(i);
      const auto resp = server.fetch(req);
      auto payload = net::deserialize_sample(resp.payload);
      auto tensor = pipe.run_seeded(std::move(*payload), resp.stage, pipe.size(),
                                    storage::augmentation_seed(42, epoch, i));
      out.emplace(i, std::get<image::Tensor>(std::move(tensor)));
    }
    return out;
  }
};

TEST(LoaderDegradation, TenPercentTransientFaultsEpochStillCompletes) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/0);

  net::FaultProfile fault_profile;
  fault_profile.transient_fail_prob = 0.10;  // the acceptance scenario
  fault_profile.seed = 42;
  const net::FaultInjector faults(fault_profile);
  net::FaultyStorageService faulty(f.server, faults);
  MetricsRegistry metrics;
  net::ResilientStorageService resilient(faulty, f.retry_policy(), &metrics);

  DataLoader loader(resilient, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 4,
                     .queue_capacity = 8,
                     .seed = 42,
                     .epoch = 0,
                     .metrics = &metrics});
  loader.start();
  std::vector<bool> seen(f.catalog.size(), false);
  std::size_t count = 0;
  while (const auto item = loader.next()) {
    EXPECT_FALSE(seen[item->sample_id]);
    seen[item->sample_id] = true;
    EXPECT_EQ(item->tensor, reference.at(item->sample_id)) << "sample " << item->sample_id;
    ++count;
  }
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_GT(resilient.retries(), 0u);  // 10% of attempts did fail
  const auto text = metrics.expose();
  EXPECT_NE(text.find("sophon_fetch_retries_total"), std::string::npos) << text;
  EXPECT_NE(text.find("sophon_degraded_samples_total"), std::string::npos) << text;
}

TEST(LoaderDegradation, PermanentOffloadFailuresDemoteToRawFetch) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/1);

  net::FaultProfile fault_profile;
  fault_profile.permanent_fail_prob = 0.5;
  fault_profile.offload_only = true;  // the raw read path stays healthy
  fault_profile.seed = 7;
  const net::FaultInjector faults(fault_profile);

  // The injector is deterministic, so the degraded set is known up front.
  std::size_t expected_degraded = 0;
  for (std::size_t i = 0; i < f.catalog.size(); ++i) {
    if (plan.prefix(i) > 0 &&
        faults.fetch_fault(i, 1, 0, true) == net::FaultKind::kPermanent) {
      ++expected_degraded;
    }
  }
  ASSERT_GT(expected_degraded, 0u) << "scenario must actually degrade something";

  net::FaultyStorageService faulty(f.server, faults);
  MetricsRegistry metrics;
  net::ResilientStorageService resilient(faulty, f.retry_policy(), &metrics);
  DataLoader loader(resilient, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 4,
                     .queue_capacity = 8,
                     .seed = 42,
                     .epoch = 1,
                     .metrics = &metrics});
  loader.start();
  std::size_t count = 0;
  std::size_t degraded_items = 0;
  while (const auto item = loader.next()) {
    // Degraded samples are fetched raw, so cut-invariant augmentation must
    // still reproduce the identical tensor.
    EXPECT_EQ(item->tensor, reference.at(item->sample_id)) << "sample " << item->sample_id;
    if (item->degraded) ++degraded_items;
    ++count;
  }
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_EQ(degraded_items, expected_degraded);
  EXPECT_EQ(loader.degraded_samples(), expected_degraded);
  EXPECT_EQ(metrics.counter("sophon_degraded_samples").value(), expected_degraded);
}

TEST(LoaderDegradation, DeadRawPathSurfacesAsErrorNotHang) {
  Fixture f;
  const core::OffloadPlan no_off(f.catalog.size());  // raw fetches only

  net::FaultProfile fault_profile;
  fault_profile.permanent_fail_prob = 1.0;  // every sample's path is dead
  fault_profile.seed = 3;
  const net::FaultInjector faults(fault_profile);
  net::FaultyStorageService faulty(f.server, faults);
  net::ResilientStorageService resilient(faulty, f.retry_policy());

  DataLoader loader(resilient, f.pipe, no_off, f.catalog.size(),
                    {.num_workers = 2, .queue_capacity = 4, .seed = 42, .epoch = 0});
  loader.start();
  EXPECT_THROW(
      {
        while (loader.next()) {
        }
      },
      net::FetchError);
}

TEST(LoaderDegradation, FaultFreeResilientStackIsBitIdentical) {
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/2);

  const net::FaultInjector no_faults(net::FaultProfile{.seed = 42});
  net::FaultyStorageService faulty(f.server, no_faults);
  net::ResilientStorageService resilient(faulty, f.retry_policy());
  DataLoader loader(resilient, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 4, .queue_capacity = 8, .seed = 42, .epoch = 2});
  loader.start();
  std::size_t count = 0;
  while (const auto item = loader.next()) {
    EXPECT_EQ(item->tensor, reference.at(item->sample_id));
    EXPECT_FALSE(item->degraded);
    ++count;
  }
  EXPECT_EQ(count, f.catalog.size());
  EXPECT_EQ(resilient.retries(), 0u);
  EXPECT_EQ(loader.degraded_samples(), 0u);
}

TEST(LoaderDegradation, MixedFaultsKeepEverySampleBitIdentical) {
  // Transient faults the resilience layer absorbs plus permanent offload
  // faults that demote to raw: every sample still arrives exactly once with
  // its fault-free tensor.
  Fixture f;
  const auto plan = f.mixed_plan();
  const auto reference = f.reference(plan, /*epoch=*/0);
  net::FaultProfile fault_profile;
  fault_profile.transient_fail_prob = 0.10;
  fault_profile.permanent_fail_prob = 0.2;
  fault_profile.offload_only = true;
  fault_profile.seed = 11;
  const net::FaultInjector faults(fault_profile);
  net::FaultyStorageService faulty(f.server, faults);
  net::ResilientStorageService resilient(faulty, f.retry_policy());

  DataLoader loader(resilient, f.pipe, plan, f.catalog.size(),
                    {.num_workers = 4, .queue_capacity = 4, .seed = 42, .epoch = 0});
  loader.start();
  std::vector<bool> seen(f.catalog.size(), false);
  std::size_t count = 0;
  while (const auto item = loader.next()) {
    EXPECT_FALSE(seen[item->sample_id]);
    seen[item->sample_id] = true;
    EXPECT_EQ(item->tensor, reference.at(item->sample_id)) << "sample " << item->sample_id;
    ++count;
  }
  EXPECT_EQ(count, f.catalog.size());
}

}  // namespace
}  // namespace sophon::loader
