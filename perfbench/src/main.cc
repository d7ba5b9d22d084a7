// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <real_linkbound|real_cpubound|plan_sim> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a summary, then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The same object is written to
// .bench_out/<workload>-seed<n>-trace<t>.json under the working directory;
// traced runs add the per-span self times and every span to it. Exits 1
// when a correctness check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using sophon::Json;

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (!(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

Json metrics_json(const std::map<std::string, perfbench::Metric>& metrics) {
  Json out = Json::object();
  for (const auto& [name, metric] : metrics) {
    Json m = Json::object();
    m.set("value", metric.value);
    m.set("unit", metric.unit);
    out.set(name, m);
  }
  return out;
}

/// Adds the span dump of a traced run: self time per span name, every span.
void add_spans(Json& file, const perfbench::SpanLog& log) {
  Json self = Json::object();
  for (const auto& [name, ms] : log.self_ms()) self.set(name, ms);
  Json spans = Json::array();
  for (const auto& r : log.records()) {
    Json s = Json::object();
    s.set("name", r.name);
    s.set("id", r.id);
    s.set("parent", r.parent);
    s.set("sample", r.sample);
    s.set("thread", static_cast<std::int64_t>(r.thread));
    s.set("start_us", r.start_s * 1e6);
    s.set("end_us", r.end_s * 1e6);
    spans.push_back(s);
  }
  file.set("self_ms", self);
  file.set("spans", spans);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <real_linkbound|real_cpubound|plan_sim> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }

  perfbench::SpanLog log(args.trace);
  perfbench::Result result;
  if (args.workload == "real_linkbound") {
    result = perfbench::run_real(perfbench::RealWorkload::kLinkBound, args, process_start, log);
  } else if (args.workload == "real_cpubound") {
    result = perfbench::run_real(perfbench::RealWorkload::kCpuBound, args, process_start, log);
  } else if (args.workload == "plan_sim") {
    result = perfbench::run_plan_sim(args, process_start, log);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (args.trace) {
    for (const auto& spec : perfbench::kPerLayerMetrics) {
      result.per_layer.try_emplace(spec.name, perfbench::Metric{0.0, spec.unit});
    }
  }
  const auto& metrics = args.trace ? result.per_layer : result.end_to_end;
  using Specs = std::span<const perfbench::MetricSpec>;
  const auto specs =
      args.trace ? Specs(perfbench::kPerLayerMetrics) : Specs(perfbench::kEndToEndMetrics);
  for (const auto& spec : specs) {
    const auto it = metrics.find(spec.name);
    if (it == metrics.end() || it->second.unit != spec.unit) {
      std::fprintf(stderr, "metric %s missing or has the wrong unit\n", spec.name);
      return 3;
    }
  }
  if (metrics.size() != specs.size()) {
    std::fprintf(stderr, "the run reported metrics outside the declared set\n");
    return 3;
  }

  Json line = Json::object();
  line.set("correct", result.correct());
  line.set("attempted", static_cast<std::int64_t>(result.attempted));
  line.set("failed", static_cast<std::int64_t>(result.failed));
  line.set("metrics", metrics_json(metrics));

  Json file = line;
  file.set("workload", args.workload);
  file.set("seed", static_cast<std::int64_t>(args.seed));
  if (args.trace) add_spans(file, log);
  const std::string out_dir = ".bench_out";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const auto path = out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                    "-trace" + (args.trace ? "1" : "0") + ".json";
  std::ofstream(path) << file.dump() << "\n";

  std::printf("%s\n", line.dump().c_str());
  return result.correct() ? 0 : 1;
}
