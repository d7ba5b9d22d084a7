// What-if projection engine on top of the critical-path analyzer.
//
// analyze_epoch runs the simulators' own scheduling core, so re-running it on
// the same demands under perturbed resource parameters projects epoch times
// exactly as the simulator would compute them under that config (tests pin
// each projection against a simulator re-run). The engine evaluates a set of
// named single-knob scenarios (more link bandwidth, more storage cores,
// deeper prefetch, more workers, a faster GPU) and ranks them by projected
// speedup, answering the operator's real question: which knob is worth
// turning *next*.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/critpath/critpath.h"

namespace sophon::obs::critpath {

/// One perturbation: a name plus a pure edit of the epoch parameters.
struct Scenario {
  std::string name;
  std::string description;
  std::function<void(EpochParams&)> perturb;
};

/// The stock scenario set, discipline-aware: link ×2/×4, +2 storage cores,
/// deeper look-ahead (2× prefetch window or 2× prefetch depth), more
/// consumers (+2 compute cores or +2 workers), and a 2×-faster GPU.
[[nodiscard]] std::vector<Scenario> default_scenarios(const EpochParams& base);

/// Projected outcome of one scenario.
struct Projection {
  std::string name;
  std::string description;
  Seconds projected_epoch_time;
  /// baseline / projected; > 1 means the scenario helps.
  double speedup = 1.0;
  /// Blame vector of the *perturbed* schedule — shows where the bottleneck
  /// moves once this knob is turned.
  BlameVector blame;
  Resource bottleneck = Resource::kStart;
  /// The perturbed parameters, so a validator can re-run the real simulator
  /// under exactly this config.
  EpochParams params;
};

/// Baseline analysis plus scenarios ranked by speedup (descending, name
/// ascending on exact ties — deterministic).
struct WhatIfReport {
  Analysis baseline;
  std::vector<Projection> ranked;

  [[nodiscard]] std::string render() const;
  [[nodiscard]] Json to_json() const;
};

/// Analyze `demand` under every scenario. `observed_epoch_time` feeds the
/// baseline reconcile check (pass zero to skip).
[[nodiscard]] WhatIfReport project(const DemandFn& demand, const EpochParams& base,
                                   const std::vector<Scenario>& scenarios,
                                   Seconds observed_epoch_time = Seconds(0.0));

/// The same around an analyzed baseline: critical_path of a recorded `base`.
[[nodiscard]] WhatIfReport project(Analysis baseline, const DemandFn& demand,
                                   const EpochParams& base,
                                   const std::vector<Scenario>& scenarios);

}  // namespace sophon::obs::critpath
