#include "core/serialize.h"

#include <fstream>
#include <sstream>

namespace sophon::core {

namespace {
constexpr int kProfilesVersion = 1;
constexpr int kPlanVersion = 1;

/// `value` as an integer, or nullopt when it is not one (a hand-edited file
/// may hold a string, a fraction or 1e300 where an integer belongs).
std::optional<std::int64_t> integer(const Json& value) {
  if (!value.is_integer()) return std::nullopt;
  return value.as_int();
}

/// Whether `json` is an object whose "kind" and "version" name this artifact.
bool is_artifact(const Json& json, const char* kind, int version) {
  if (!json.is_object() || !json.has("kind") || !json.has("version")) return false;
  const Json& k = json.at("kind");
  return k.is_string() && k.as_string() == kind && integer(json.at("version")) == version;
}
}  // namespace

Json profiles_to_json(const std::vector<SampleProfile>& profiles) {
  Json root = Json::object();
  root.set("kind", "sophon.stage2_profiles");
  root.set("version", kProfilesVersion);
  Json rows = Json::array();
  for (const auto& p : profiles) {
    Json row = Json::object();
    row.set("index", static_cast<std::int64_t>(p.sample_index));
    Json sizes = Json::array();
    for (const auto s : p.stage_sizes) sizes.push_back(static_cast<std::int64_t>(s.count()));
    row.set("stage_sizes", std::move(sizes));
    Json costs = Json::array();
    for (const auto c : p.op_costs) costs.push_back(c.value());
    row.set("op_costs_s", std::move(costs));
    row.set("min_stage", static_cast<std::int64_t>(p.min_stage));
    rows.push_back(std::move(row));
  }
  root.set("samples", std::move(rows));
  return root;
}

std::optional<std::vector<SampleProfile>> profiles_from_json(const Json& json) {
  if (!is_artifact(json, "sophon.stage2_profiles", kProfilesVersion)) return std::nullopt;
  if (!json.has("samples") || !json.at("samples").is_array()) return std::nullopt;

  std::vector<SampleProfile> profiles;
  const auto& rows = json.at("samples");
  profiles.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows.at(i);
    if (!row.is_object() || !row.has("stage_sizes") || !row.has("op_costs_s") ||
        !row.has("min_stage") || !row.has("index")) {
      return std::nullopt;
    }
    const auto index = integer(row.at("index"));
    const auto min_stage = integer(row.at("min_stage"));
    const auto& sizes = row.at("stage_sizes");
    const auto& costs = row.at("op_costs_s");
    // A plan has one entry per row, so an index names a row.
    if (!index || *index < 0 || static_cast<std::size_t>(*index) >= rows.size() || !min_stage ||
        !sizes.is_array() || !costs.is_array() || sizes.size() != costs.size() + 1) {
      return std::nullopt;
    }
    SampleProfile p;
    p.sample_index = static_cast<std::uint32_t>(*index);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto size = integer(sizes.at(s));
      if (!size || *size < 0) return std::nullopt;
      p.stage_sizes.push_back(Bytes(*size));
    }
    for (std::size_t c = 0; c < costs.size(); ++c) {
      const Json& cost = costs.at(c);
      if (!cost.is_number() || !(cost.as_number() >= 0.0)) return std::nullopt;
      p.op_costs.push_back(Seconds(cost.as_number()));
    }
    if (*min_stage < 0 || static_cast<std::size_t>(*min_stage) >= p.stage_sizes.size()) {
      return std::nullopt;
    }
    p.min_stage = static_cast<std::uint32_t>(*min_stage);
    p.reduction = p.stage_sizes[0] - p.stage_sizes[p.min_stage];
    Seconds prefix;
    for (std::uint32_t s = 0; s < p.min_stage; ++s) prefix += p.op_costs[s];
    p.prefix_time = prefix;
    profiles.push_back(std::move(p));
  }
  return profiles;
}

Json plan_to_json(const OffloadPlan& plan) {
  Json root = Json::object();
  root.set("kind", "sophon.offload_plan");
  root.set("version", kPlanVersion);
  root.set("num_samples", static_cast<std::int64_t>(plan.size()));
  // Run-length encode [prefix, count] pairs over sample-id order.
  Json runs = Json::array();
  std::size_t i = 0;
  while (i < plan.size()) {
    const auto prefix = plan.prefix(i);
    std::size_t run = 1;
    while (i + run < plan.size() && plan.prefix(i + run) == prefix) ++run;
    Json pair = Json::array();
    pair.push_back(static_cast<std::int64_t>(prefix));
    pair.push_back(static_cast<std::int64_t>(run));
    runs.push_back(std::move(pair));
    i += run;
  }
  root.set("runs", std::move(runs));
  return root;
}

std::optional<OffloadPlan> plan_from_json(const Json& json) {
  if (!is_artifact(json, "sophon.offload_plan", kPlanVersion)) return std::nullopt;
  if (!json.has("num_samples") || !json.has("runs") || !json.at("runs").is_array()) {
    return std::nullopt;
  }
  const auto n = integer(json.at("num_samples"));
  if (!n || *n < 0) return std::nullopt;
  OffloadPlan plan(static_cast<std::size_t>(*n));
  std::size_t i = 0;
  const auto& runs = json.at("runs");
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const auto& pair = runs.at(r);
    if (!pair.is_array() || pair.size() != 2) return std::nullopt;
    const auto prefix = integer(pair.at(static_cast<std::size_t>(0)));
    const auto count = integer(pair.at(1));
    if (!prefix || !count || *prefix < 0 || *prefix > 255 || *count <= 0) return std::nullopt;
    if (i + static_cast<std::size_t>(*count) > plan.size()) return std::nullopt;
    for (std::int64_t k = 0; k < *count; ++k) {
      plan.set(i++, static_cast<std::uint8_t>(*prefix));
    }
  }
  if (i != plan.size()) return std::nullopt;
  return plan;
}

bool save_json_file(const Json& json, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << json.dump(2) << '\n';
  return static_cast<bool>(out);
}

std::optional<Json> load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Json::parse(buffer.str());
}

}  // namespace sophon::core
