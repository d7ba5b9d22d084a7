#include "shard/planner.h"

#include <algorithm>

#include "shard/format.h"
#include "util/check.h"

namespace sophon::shard {

std::vector<MaterializationCandidate> materialization_candidates(
    const std::vector<core::SampleProfile>& profiles, const core::OffloadPlan& plan,
    std::size_t deterministic_limit) {
  SOPHON_CHECK_MSG(plan.size() == profiles.size(), "plan/profiles size mismatch");
  std::vector<MaterializationCandidate> candidates;
  for (const auto& profile : profiles) {
    const std::size_t i = profile.sample_index;
    std::size_t target = plan.prefix(i);
    if (target == 0 && profile.benefits()) target = profile.min_stage;
    const std::size_t limit = std::min(target, deterministic_limit);
    if (limit == 0) continue;

    MaterializationCandidate best;
    Seconds saved;
    for (std::size_t m = 1; m <= limit; ++m) {
      saved += profile.op_costs[m - 1];
      if (saved.value() <= 0.0) continue;
      MaterializationCandidate c;
      c.sample_index = profile.sample_index;
      c.stage = static_cast<std::uint8_t>(m);
      // stage_sizes are framed wire sizes (profiler adds kFrameOverheadBytes),
      // which is exactly what the shard stores; add the index record on top.
      c.bytes = profile.stage_sizes[m] + Bytes(static_cast<std::int64_t>(kIndexEntryBytes));
      c.cpu_saved = saved;
      // Deeper wins ties: same seconds-per-byte, more seconds absolute.
      if (best.stage == 0 || c.efficiency() >= best.efficiency()) best = c;
    }
    if (best.stage != 0) candidates.push_back(best);
  }
  return candidates;
}

MaterializationPlan plan_materialization(const std::vector<core::SampleProfile>& profiles,
                                         const core::OffloadPlan& plan,
                                         std::size_t deterministic_limit, Bytes budget) {
  auto candidates = materialization_candidates(profiles, plan, deterministic_limit);
  std::sort(candidates.begin(), candidates.end(),
            [](const MaterializationCandidate& a, const MaterializationCandidate& b) {
              if (a.efficiency() != b.efficiency()) return a.efficiency() > b.efficiency();
              return a.sample_index < b.sample_index;  // deterministic order
            });

  MaterializationPlan result;
  result.stage.assign(profiles.size(), 0);
  for (const auto& c : candidates) {
    // The first entry also pays the fixed shard header.
    const Bytes header = result.materialized == 0
                             ? Bytes(static_cast<std::int64_t>(kHeaderBytes))
                             : Bytes(0);
    if (result.total_bytes + header + c.bytes > budget) break;
    result.total_bytes += header + c.bytes;
    result.cpu_saved += c.cpu_saved;
    result.stage[c.sample_index] = c.stage;
    ++result.materialized;
  }
  return result;
}

namespace {
// Serving a materialised prefix is not literally free: the server still
// crc-checks and copies the stored bytes. ~0.5 ns/byte keeps t_cs near-zero
// but positive, so SampleProfile::efficiency() ranks materialised samples
// *first* on the re-rank instead of dividing by zero and dropping to the
// back of the greedy order.
constexpr double kShardReadNsPerByte = 0.5;
}  // namespace

std::vector<core::SampleProfile> adjusted_profiles(std::vector<core::SampleProfile> profiles,
                                                   const MaterializationPlan& plan) {
  for (auto& profile : profiles) {
    const std::size_t m = plan.stage_of(profile.sample_index);
    if (m == 0) continue;
    SOPHON_CHECK(m <= profile.op_costs.size());
    for (std::size_t j = 0; j < m; ++j) profile.op_costs[j] = Seconds(0.0);
    profile.op_costs[m - 1] =
        Seconds::nanos(kShardReadNsPerByte * profile.stage_sizes[m].as_double());
    Seconds prefix;
    for (std::size_t j = 0; j < profile.min_stage; ++j) prefix += profile.op_costs[j];
    profile.prefix_time = prefix;
  }
  return profiles;
}

}  // namespace sophon::shard
