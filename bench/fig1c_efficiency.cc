// Figure 1c — offloading efficiency (size reduction per CPU second) across
// the OpenImages dataset.
//
// Paper: 24% of images have ratio 0 (smallest raw); the remaining 76% span
// a wide range, motivating prioritising high-efficiency samples when
// storage CPU is scarce.
#include <algorithm>

#include "bench_common.h"
#include "core/profiler.h"
#include "util/stats.h"

using namespace sophon;

int main() {
  bench::print_header("Figure 1c — offloading efficiency distribution (OpenImages)",
                      "24% of images have ratio 0; the rest vary widely, calling for "
                      "efficiency-ordered offloading");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog, pipe, cm);

  std::vector<double> all;       // MB saved per CPU-second
  std::vector<double> positive;  // the same, for samples that benefit
  for (const auto& p : profiles) {
    all.push_back(p.efficiency() / 1e6);
    if (p.benefits()) positive.push_back(all.back());
  }
  std::sort(all.begin(), all.end());
  const std::size_t zeros = profiles.size() - positive.size();

  std::printf("samples with ratio 0 (no benefit): %.1f%%\n\n",
              100.0 * static_cast<double>(zeros) / static_cast<double>(profiles.size()));

  TextTable table({"efficiency (MB/s of CPU)", "CDF"});
  constexpr int kPoints = 15;  // evenly spaced over the sample range
  for (int i = 0; i < kPoints; ++i) {
    const double x = all.front() + (all.back() - all.front()) * i / (kPoints - 1);
    const auto at_or_below = std::upper_bound(all.begin(), all.end(), x) - all.begin();
    table.add_row({strf("%.1f", x), strf("%.3f", static_cast<double>(at_or_below) /
                                                     static_cast<double>(all.size()))});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("quantiles of positive-efficiency samples:\n");
  TextTable q({"quantile", "MB saved per CPU-second"});
  for (const double quant : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    q.add_row({strf("p%.0f", quant * 100), strf("%.1f", percentile(positive, quant))});
  }
  std::printf("%s", q.render().c_str());
  return 0;
}
