// Figure 1d — GPU utilisation of three models under a constrained link.
//
// Paper (Finding #5): with a V100, ample CPUs and constrained storage
// bandwidth, ResNet50 reaches near-maximal GPU utilisation, while ResNet18
// idles ~65% of the time waiting on data — so offloading benefit depends on
// the model's compute intensity.
#include "bench_common.h"

using namespace sophon;

int main() {
  bench::print_header("Figure 1d — GPU utilisation by model (No-Off, V100, constrained link)",
                      "ResNet50 near-maximal; ResNet18 ~35% utilised (65% data-fetch idle); "
                      "compute-light models starve");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;

  TextTable table({"model", "GPU throughput (img/s)", "epoch time", "GPU util", "idle"});
  for (const auto net :
       {model::NetKind::kResNet50, model::NetKind::kResNet18, model::NetKind::kAlexNet}) {
    auto config = bench::paper_config();
    config.net = net;
    config.gpu = model::GpuKind::kV100;
    config.cluster.bandwidth = Bandwidth::gbps(1.0);
    const auto result = core::run_policy(core::PolicyKind::kNoOff, catalog, pipe, cm, config);
    const auto gpu = model::GpuModel::lookup(net, config.gpu);
    table.add_row({std::string(model::net_kind_name(net)),
                   strf("%.0f", gpu.images_per_second()),
                   human_seconds(result.stats.epoch_time),
                   strf("%.1f%%", 100.0 * result.stats.gpu_utilization),
                   strf("%.1f%%", 100.0 * (1.0 - result.stats.gpu_utilization))});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
