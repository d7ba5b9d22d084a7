// Paper-style evaluation runner: reproduce the §4 experiments at any scale
// from the command line.
//
//   ./build/examples/paper_evaluation [dataset] [storage_cores] [mbps] [samples]
//     dataset:       openimages | imagenet          (default openimages)
//     storage_cores: cores for offloaded work        (default 48)
//     mbps:          inter-cluster bandwidth         (default 500)
//     samples:       catalog size                    (default 40000 / 90000)
//
// Prints the Fig-3-style row set for all five policies under that
// configuration.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/policy.h"
#include "util/table.h"

using namespace sophon;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "openimages";
  const int storage_cores = argc > 2 ? std::atoi(argv[2]) : 48;
  const double mbps = argc > 3 ? std::atof(argv[3]) : 500.0;

  dataset::DatasetProfile profile;
  if (which == "imagenet") {
    profile = dataset::imagenet_profile(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 90000);
  } else if (which == "openimages") {
    profile = dataset::openimages_profile(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 40000);
  } else {
    std::fprintf(stderr, "unknown dataset '%s' (use openimages|imagenet)\n", which.c_str());
    return 1;
  }

  const auto catalog = dataset::Catalog::generate(profile, 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;

  core::RunConfig config;
  config.cluster.storage_cores = storage_cores;
  config.cluster.bandwidth = Bandwidth::mbps(mbps);
  config.net = model::NetKind::kAlexNet;
  config.gpu = model::GpuKind::kRtx6000;

  std::printf("dataset=%s  samples=%zu  total=%s  link=%s  storage_cores=%d\n\n",
              profile.name.c_str(), catalog.size(), human_bytes(catalog.total_encoded()).c_str(),
              human_bandwidth(config.cluster.bandwidth).c_str(), storage_cores);

  const auto results = core::run_all_policies(catalog, pipe, cm, config);
  const double base_time = results[0].stats.epoch_time.value();

  TextTable table({"policy", "epoch time", "speedup", "traffic", "offloaded", "GPU util"});
  for (const auto& r : results) {
    table.add_row({r.name, strf("%.1f s", r.stats.epoch_time.value()),
                   strf("%.2fx", base_time / r.stats.epoch_time.value()),
                   human_bytes(r.stats.traffic), strf("%zu", r.stats.offloaded_samples),
                   strf("%.1f%%", 100.0 * r.stats.gpu_utilization)});
  }
  std::printf("%s\n", table.render().c_str());
  for (const auto& r : results) {
    std::printf("%-10s %s\n", r.name.c_str(), r.decision.rationale.c_str());
  }
  return 0;
}
