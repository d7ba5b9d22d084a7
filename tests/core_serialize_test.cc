#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/decision.h"
#include "core/profiler.h"
#include "dataset/catalog.h"
#include "pipeline/pipeline.h"

namespace sophon::core {
namespace {

std::vector<SampleProfile> make_profiles(std::size_t n = 500) {
  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(n), 42);
  return profile_stage2(catalog, pipeline::Pipeline::standard(), pipeline::CostModel{});
}

TEST(SerializeProfiles, RoundTripIsLossless) {
  const auto profiles = make_profiles();
  const auto json = profiles_to_json(profiles);
  const auto parsed = Json::parse(json.dump());
  ASSERT_TRUE(parsed.has_value());
  const auto back = profiles_from_json(*parsed);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ((*back)[i].sample_index, profiles[i].sample_index);
    EXPECT_EQ((*back)[i].stage_sizes, profiles[i].stage_sizes);
    EXPECT_EQ((*back)[i].min_stage, profiles[i].min_stage);
    EXPECT_EQ((*back)[i].reduction, profiles[i].reduction);
    ASSERT_EQ((*back)[i].op_costs.size(), profiles[i].op_costs.size());
    for (std::size_t c = 0; c < profiles[i].op_costs.size(); ++c) {
      EXPECT_DOUBLE_EQ((*back)[i].op_costs[c].value(), profiles[i].op_costs[c].value());
    }
    EXPECT_DOUBLE_EQ((*back)[i].efficiency(), profiles[i].efficiency());
  }
}

TEST(SerializeProfiles, RejectsWrongKindOrVersion) {
  auto json = profiles_to_json(make_profiles(10));
  json.set("kind", "something-else");
  EXPECT_FALSE(profiles_from_json(json).has_value());
  auto json2 = profiles_to_json(make_profiles(10));
  json2.set("version", 99);
  EXPECT_FALSE(profiles_from_json(json2).has_value());
  EXPECT_FALSE(profiles_from_json(Json(3)).has_value());
}

/// Parse `text`, which must be well-formed JSON.
Json parse(const std::string& text) {
  auto json = Json::parse(text);
  EXPECT_TRUE(json.has_value()) << text;
  return json.value_or(Json());
}

TEST(SerializeProfiles, RejectsFieldsOfTheWrongType) {
  // A hand-edited artifact is rejected, never read as a type it lacks.
  const auto profiles = [](const std::string& kind, const std::string& version,
                           const std::string& row) {
    return profiles_from_json(parse(R"({"kind": )" + kind + R"(, "version": )" + version +
                                    R"(, "samples": [)" + row + "]}"));
  };
  const std::string kind = R"("sophon.stage2_profiles")";
  const std::string good = R"({"index": 0, "stage_sizes": [10, 5], "op_costs_s": [0.5], )"
                           R"("min_stage": 1})";
  ASSERT_TRUE(profiles(kind, "1", good).has_value());
  EXPECT_FALSE(profiles("5", "1", good).has_value());
  EXPECT_FALSE(profiles(kind, R"("1")", good).has_value());
  EXPECT_FALSE(profiles(kind, "1.5", good).has_value());
  EXPECT_FALSE(profiles(kind, "1",
                        R"({"index": 0, "stage_sizes": [10, 5], "op_costs_s": ["x"], )"
                        R"("min_stage": 1})")
                   .has_value());
  EXPECT_FALSE(profiles(kind, "1",
                        R"({"index": "0", "stage_sizes": [10, 5], "op_costs_s": [0.5], )"
                        R"("min_stage": 1})")
                   .has_value());
  EXPECT_FALSE(profiles(kind, "1",
                        R"({"index": 0, "stage_sizes": [10, "5"], "op_costs_s": [0.5], )"
                        R"("min_stage": 1})")
                   .has_value());
  EXPECT_FALSE(profiles(kind, "1",
                        R"({"index": 0, "stage_sizes": [10, 5], "op_costs_s": [0.5], )"
                        R"("min_stage": 0.5})")
                   .has_value());
  // Values a plan cannot use: an index past the rows (a plan has one entry
  // per row), a negative size or cost.
  for (const char* bad : {R"("index": 1, "stage_sizes": [10, 5], "op_costs_s": [0.5])",
                          R"("index": -1, "stage_sizes": [10, 5], "op_costs_s": [0.5])",
                          R"("index": 0, "stage_sizes": [-10, 5], "op_costs_s": [0.5])",
                          R"("index": 0, "stage_sizes": [10, 5], "op_costs_s": [-0.5])"}) {
    EXPECT_FALSE(profiles(kind, "1", std::string("{") + bad + R"(, "min_stage": 1})").has_value())
        << bad;
  }
}

TEST(SerializePlan, RejectsFieldsOfTheWrongType) {
  const auto plan = [](const std::string& num_samples, const std::string& runs) {
    return plan_from_json(parse(R"({"kind": "sophon.offload_plan", "version": 1, )"
                                R"("num_samples": )" +
                                num_samples + R"(, "runs": )" + runs + "}"));
  };
  ASSERT_TRUE(plan("3", "[[1, 3]]").has_value());
  EXPECT_FALSE(plan("3", R"([["x", 3]])").has_value());
  EXPECT_FALSE(plan("3", R"([[1, "3"]])").has_value());
  EXPECT_FALSE(plan("3", "[[1.5, 3]]").has_value());
  EXPECT_FALSE(plan(R"("3")", "[[1, 3]]").has_value());
  EXPECT_FALSE(plan("1e300", "[[1, 3]]").has_value());
  EXPECT_FALSE(plan_from_json(parse(R"({"kind": 5, "version": 1, "num_samples": 3, )"
                                    R"("runs": [[1, 3]]})"))
                   .has_value());
}

TEST(SerializePlan, RoundTripIsLossless) {
  OffloadPlan plan(1000);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan.set(i, static_cast<std::uint8_t>(i % 7 == 0 ? 2 : (i % 13 == 0 ? 5 : 0)));
  }
  const auto json = plan_to_json(plan);
  const auto back = plan_from_json(json);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(back->prefix(i), plan.prefix(i));
  }
}

TEST(SerializePlan, RunLengthIsCompact) {
  // A uniform plan must serialise to a single run regardless of size.
  const auto plan = OffloadPlan::uniform(100000, 2);
  const auto json = plan_to_json(plan);
  EXPECT_EQ(json.at("runs").size(), 1u);
  EXPECT_LT(json.dump().size(), 200u);
}

TEST(SerializePlan, RejectsCorruptRuns) {
  const auto plan = OffloadPlan::uniform(10, 1);
  auto json = plan_to_json(plan);
  json.set("num_samples", 5);  // runs now overflow
  EXPECT_FALSE(plan_from_json(json).has_value());
  auto json2 = plan_to_json(plan);
  json2.set("num_samples", 20);  // runs now underflow
  EXPECT_FALSE(plan_from_json(json2).has_value());
}

TEST(SerializeFiles, SaveAndLoad) {
  const std::string path = "/tmp/sophon_serialize_test.json";
  const auto plan = OffloadPlan::uniform(64, 2);
  ASSERT_TRUE(save_json_file(plan_to_json(plan), path));
  const auto loaded = load_json_file(path);
  ASSERT_TRUE(loaded.has_value());
  const auto back = plan_from_json(*loaded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->offloaded_count(), 64u);
  std::remove(path.c_str());
}

TEST(SerializeFiles, LoadMissingFileFails) {
  EXPECT_FALSE(load_json_file("/tmp/definitely_not_here_sophon.json").has_value());
}

TEST(SerializeEndToEnd, SavedProfilesDriveTheSameDecision) {
  // The point of persistence: a restart loads yesterday's stage-2 profiles
  // and reaches the identical plan.
  const auto profiles = make_profiles(2000);
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(100.0);
  const auto original = decide_offloading(profiles, cluster, Seconds(1.0));

  const std::string path = "/tmp/sophon_profiles_roundtrip.json";
  ASSERT_TRUE(save_json_file(profiles_to_json(profiles), path));
  const auto restored = profiles_from_json(*load_json_file(path));
  ASSERT_TRUE(restored.has_value());
  const auto replayed = decide_offloading(*restored, cluster, Seconds(1.0));
  EXPECT_EQ(replayed.offloaded, original.offloaded);
  for (std::size_t i = 0; i < original.plan.size(); ++i) {
    EXPECT_EQ(replayed.plan.prefix(i), original.plan.prefix(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sophon::core
