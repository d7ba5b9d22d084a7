// The stage-materialization planner: the space-domain mirror of SOPHON's
// offloading decision.
//
// Offloading spends storage CPU to save network bytes; every epoch pays the
// prefix cost again. Materialising a sample's deterministic prefix into a
// packed shard spends *disk bytes once* to save that storage CPU *every
// epoch*. The planner ranks candidates by materialization efficiency —
// storage-CPU-seconds saved per epoch per byte of disk — and greedily packs
// the budget, exactly the shape of the paper's §3.2 greedy with the axes
// swapped.
//
// Only deterministic prefixes are eligible: beyond
// Pipeline::deterministic_prefix() the ops draw per-(epoch, sample)
// augmentation streams, so a persisted result would replay epoch-0
// augmentations forever (paper §3.3's argument against caching). For the
// standard train pipeline that limits materialisation to the decoded image;
// for the fully deterministic validation pipeline any stage qualifies,
// including post-resize stages that also shrink the wire size.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "core/plan.h"
#include "util/units.h"

namespace sophon::shard {

/// One sample's best materialisation choice.
struct MaterializationCandidate {
  std::uint32_t sample_index = 0;
  std::uint8_t stage = 0;     // pipeline stage to persist at
  Bytes bytes;                // disk cost: framed payload + index record
  Seconds cpu_saved;          // storage CPU avoided per epoch

  /// Storage-CPU-seconds saved per epoch per byte of disk.
  [[nodiscard]] double efficiency() const {
    return bytes.count() > 0 ? cpu_saved.value() / bytes.as_double() : 0.0;
  }
};

/// The planner's output: a per-sample stage assignment (0 = live execution)
/// plus the totals the CLI and benches report.
struct MaterializationPlan {
  std::vector<std::uint8_t> stage;  // indexed by sample_index; 0 = not materialised
  Bytes total_bytes;                // on-disk footprint incl. header + index
  Seconds cpu_saved;                // per-epoch storage CPU removed
  std::size_t materialized = 0;

  [[nodiscard]] std::uint8_t stage_of(std::size_t sample_index) const {
    return sample_index < stage.size() ? stage[sample_index] : 0;
  }
};

/// Per-sample best candidates, unsorted. For each sample the eligible stages
/// are [1, min(target prefix, deterministic_limit)] where the target prefix
/// is the offload plan's directive. A sample the plan leaves on the compute
/// node but which would benefit from offloading (profile.benefits()) targets
/// its min-size stage: once its prefix is free, the decision engine will
/// usually pick it up on the re-rank. The stage with the best efficiency
/// wins, deeper on ties. Samples with nothing to save produce no candidate.
[[nodiscard]] std::vector<MaterializationCandidate> materialization_candidates(
    const std::vector<core::SampleProfile>& profiles, const core::OffloadPlan& plan,
    std::size_t deterministic_limit);

/// Greedy selection under a disk budget: candidates in descending efficiency
/// order, stopping at the first that would overflow. The stop-at-first-
/// overflow rule (the same shape as §3.2's stop rule) makes every selection
/// a prefix of one fixed order, so a larger budget always selects a superset
/// — storage CPU saved is monotone in the budget, which A16 asserts.
[[nodiscard]] MaterializationPlan plan_materialization(
    const std::vector<core::SampleProfile>& profiles, const core::OffloadPlan& plan,
    std::size_t deterministic_limit, Bytes budget);

/// The profiles as the decision engine should see them once the plan is
/// packed: materialised ops cost zero storage CPU (a shard read replaces
/// them), so t_cs of those samples collapses and the greedy re-rank offloads
/// more within the same storage-core budget — the composition the tentpole
/// requires.
[[nodiscard]] std::vector<core::SampleProfile> adjusted_profiles(
    std::vector<core::SampleProfile> profiles, const MaterializationPlan& plan);

}  // namespace sophon::shard
