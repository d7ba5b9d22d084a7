#include "obs/critpath/whatif.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sophon::obs::critpath {

std::vector<Scenario> default_scenarios(const prefetch::EpochParams& base) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(Scenario{
      "link_bandwidth_x2", "double the inter-cluster link bandwidth",
      [](prefetch::EpochParams& p) {
        p.cluster.bandwidth = Bandwidth::bits_per_sec(p.cluster.bandwidth.bps() * 2.0);
      }});
  scenarios.push_back(Scenario{
      "link_bandwidth_x4", "quadruple the inter-cluster link bandwidth",
      [](prefetch::EpochParams& p) {
        p.cluster.bandwidth = Bandwidth::bits_per_sec(p.cluster.bandwidth.bps() * 4.0);
      }});
  scenarios.push_back(Scenario{
      "storage_cores_plus2", "add two preprocessing cores on the storage node",
      [](prefetch::EpochParams& p) { p.cluster.storage_cores += 2; }});
  scenarios.push_back(Scenario{
      "gpu_2x_faster", "halve the GPU batch service time (next GPU model)",
      [](prefetch::EpochParams& p) { p.gpu_batch_time = p.gpu_batch_time * 0.5; }});
  if (base.discipline == prefetch::Discipline::kWorkerReplay) {
    scenarios.push_back(Scenario{
        "prefetch_depth_x2", "double the clairvoyant prefetch depth",
        [](prefetch::EpochParams& p) {
          p.replay.prefetch.depth = p.replay.prefetch.depth > 0 ? p.replay.prefetch.depth * 2 : 8;
        }});
    scenarios.push_back(Scenario{
        "workers_plus2", "add two loader worker lanes",
        [](prefetch::EpochParams& p) { p.replay.workers += 2; }});
  } else {
    scenarios.push_back(Scenario{
        "prefetch_window_x2", "double the batch look-ahead window",
        [](prefetch::EpochParams& p) { p.cluster.prefetch_batches *= 2; }});
    scenarios.push_back(Scenario{
        "compute_cores_plus2", "add two preprocessing cores on the compute node",
        [](prefetch::EpochParams& p) { p.cluster.compute_cores += 2; }});
  }
  return scenarios;
}

WhatIfReport project(const DemandFn& demand, const prefetch::EpochParams& base,
                     const std::vector<Scenario>& scenarios, Seconds observed_epoch_time) {
  return project(analyze_epoch(demand, base, observed_epoch_time), demand, base, scenarios);
}

WhatIfReport project(Analysis baseline, const DemandFn& demand,
                     const prefetch::EpochParams& base,
                     const std::vector<Scenario>& scenarios) {
  WhatIfReport report;
  report.baseline = std::move(baseline);
  const double baseline_time = report.baseline.epoch_time.value();

  report.ranked.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios) {
    prefetch::EpochParams perturbed = base;
    scenario.perturb(perturbed);
    const Analysis analysis = analyze_epoch(demand, perturbed);
    Projection projection;
    projection.name = scenario.name;
    projection.description = scenario.description;
    projection.projected_epoch_time = analysis.epoch_time;
    projection.speedup =
        analysis.epoch_time.value() > 0.0 ? baseline_time / analysis.epoch_time.value() : 1.0;
    projection.blame = analysis.blame;
    projection.bottleneck = analysis.bottleneck();
    projection.params = std::move(perturbed);
    report.ranked.push_back(std::move(projection));
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const Projection& a, const Projection& b) {
              if (a.speedup != b.speedup) return a.speedup > b.speedup;
              return a.name < b.name;
            });
  return report;
}

std::string WhatIfReport::render() const {
  std::string out;
  char line[224];
  std::snprintf(line, sizeof(line), "what-if: baseline epoch %.3f s, bottleneck %s\n",
                baseline.epoch_time.value(),
                std::string(resource_name(baseline.bottleneck())).c_str());
  out += line;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const Projection& p = ranked[i];
    std::snprintf(line, sizeof(line),
                  "  %zu. %-22s %.3f s  (%.2fx)  bottleneck -> %-11s  %s\n", i + 1,
                  p.name.c_str(), p.projected_epoch_time.value(), p.speedup,
                  std::string(resource_name(p.bottleneck)).c_str(), p.description.c_str());
    out += line;
  }
  return out;
}

Json WhatIfReport::to_json() const {
  Json doc = Json::object();
  doc.set("kind", "sophon.whatif");
  doc.set("version", 1);
  doc.set("baseline", baseline.to_json());
  Json list = Json::array();
  for (const Projection& p : ranked) {
    Json s = Json::object();
    s.set("name", p.name);
    s.set("description", p.description);
    s.set("projected_epoch_time_seconds", p.projected_epoch_time.value());
    s.set("speedup", p.speedup);
    s.set("bottleneck", std::string(resource_name(p.bottleneck)));
    s.set("blame", p.blame.to_json());
    list.push_back(std::move(s));
  }
  doc.set("scenarios", std::move(list));
  return doc;
}

}  // namespace sophon::obs::critpath
