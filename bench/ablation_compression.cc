// Ablation A3 — selective compression of offloaded payloads (paper §6
// future work).
//
// A sample offloaded at the post-crop stage travels as 224x224x3 raw pixels
// (~147 KiB). The storage node may SJPG-re-encode that payload before
// shipping and the compute node decode it on arrival, trading CPU on both
// sides for less traffic. Like offloading itself, this pays off only for
// some samples (smooth crops compress well, noisy ones barely), so the
// decision is again greedy by bytes saved per storage-CPU second while the
// network stays predominant. How much traffic does that recover, and at what
// storage-CPU price, across link speeds?
//
// The strategy lives next to the one bench that measures it, in
// compression_model.h. The bench self-checks its rate model against the real
// codec and the plan's properties, and prints "verified:" only when every
// check holds.
#include "bench_common.h"
#include "codec/sjpg.h"
#include "compression_model.h"
#include "core/profiler.h"
#include "dataset/synth.h"
#include "image/ops.h"

using namespace sophon;
using bench::CompressionModel;

namespace {

/// The rate model against the real codec: within 2x of an SJPG encode of a
/// 224x224 crop across the texture range; smooth below noisy; quality 50
/// below quality 90; CPU costs grow with pixels, encode above decode.
bool model_tracks_codec(const CompressionModel& model) {
  constexpr std::int64_t kCrop = 224 * 224;
  bool ok = true;
  for (const double texture : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    dataset::SampleMeta meta;
    meta.id = 3;
    meta.raw = pipeline::SampleShape::encoded(Bytes(1), 448, 448, 3);
    meta.texture = texture;
    const auto crop = image::resize_bilinear(dataset::generate_synthetic_image(meta, 11), 224, 224);
    const auto real = static_cast<std::int64_t>(codec::sjpg_encode(crop, model.quality).size());
    const auto estimate = model.estimate_compressed(kCrop, texture).count();
    ok = ok && estimate > real / 2 && estimate < real * 2;
  }
  CompressionModel high = model;
  high.quality = 90;
  CompressionModel low = model;
  low.quality = 50;
  return ok && model.estimate_compressed(kCrop, 0.1) < model.estimate_compressed(kCrop, 0.9) &&
         low.estimate_compressed(kCrop, 0.5) < high.estimate_compressed(kCrop, 0.5) &&
         model.encode_cost(1'000'000) > model.encode_cost(10'000) &&
         model.encode_cost(100'000) > model.decode_cost(100'000);
}

}  // namespace

int main() {
  bench::print_header("Ablation A3 — selective payload compression (OpenImages, §6 extension)",
                      "(future work in the paper: 'selectively compress preprocessed data')");

  const auto catalog = bench::openimages_catalog();
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);
  const CompressionModel model;

  // At every link speed: something is compressed, only offloaded payloads
  // are, a No-Off plan compresses nothing, the prediction trades storage CPU
  // for network time without a longer epoch, and the simulated epoch ships
  // less than SOPHON alone.
  bool plan_ok = true;
  bool predicted_ok = true;
  bool simulated_ok = true;

  TextTable table({"bandwidth", "variant", "epoch time", "traffic", "compressed", "storage CPU"});
  for (const double mbps : {250.0, 500.0, 1000.0}) {
    auto config = bench::paper_config(48);
    config.cluster.bandwidth = Bandwidth::mbps(mbps);
    const Seconds batch_time = gpu.batch_time(config.cluster.batch_size);
    const Seconds t_g = batch_time * static_cast<double>(
                                         (catalog.size() + config.cluster.batch_size - 1) /
                                         config.cluster.batch_size);

    const auto base = core::decide_offloading(profiles, config.cluster, t_g);
    const auto plain =
        sim::simulate_epoch(catalog, pipe, cm, config.cluster, batch_time,
                            base.plan.assignment(), 42, 0);
    table.add_row({human_bandwidth(config.cluster.bandwidth), "SOPHON",
                   strf("%.1f s", plain.epoch_time.value()), bench::gb(plain.traffic), "0",
                   strf("%.1f s", plain.storage_cpu_busy.value())});

    const auto compressed_plan = bench::decide_compression(catalog, pipe, base.plan,
                                                           base.final_cost, config.cluster, model);
    const auto flows =
        bench::compressed_flows(compressed_plan, base.plan, catalog, pipe, cm, model);
    const auto stats = sim::simulate_epoch_flows(catalog.size(), flows, config.cluster,
                                                 batch_time, 42, 0);
    table.add_row({human_bandwidth(config.cluster.bandwidth), "SOPHON + compression",
                   strf("%.1f s", stats.epoch_time.value()), bench::gb(stats.traffic),
                   strf("%zu", compressed_plan.compressed_count),
                   strf("%.1f s", stats.storage_cpu_busy.value())});

    const core::OffloadPlan no_off(catalog.size());
    const auto no_off_plan =
        bench::decide_compression(catalog, pipe, no_off,
                                  core::evaluate_plan(profiles, no_off, config.cluster, t_g),
                                  config.cluster, model);
    plan_ok = plan_ok && compressed_plan.compressed_count > 0 &&
              no_off_plan.compressed_count == 0;
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (compressed_plan.compress[i] && base.plan.prefix(i) == 0) plan_ok = false;
    }
    const auto& before = base.final_cost;
    const auto& after = compressed_plan.final_cost;
    predicted_ok = predicted_ok && after.t_net < before.t_net && after.t_cs >= before.t_cs &&
                   after.predicted_epoch_time() <= before.predicted_epoch_time();
    simulated_ok = simulated_ok && stats.traffic < plain.traffic &&
                   stats.epoch_time.value() <= plain.epoch_time.value() * 1.01;
  }
  std::printf("%s", table.render().c_str());

  const bool model_ok = model_tracks_codec(model);
  if (model_ok && plan_ok && predicted_ok && simulated_ok) {
    std::printf("verified: rate model within 2x of SJPG, only offloaded images compressed, "
                "predicted epoch no longer, SOPHON + compression ships less than SOPHON "
                "alone\n");
    return 0;
  }
  std::printf("FAILED: model=%d plan=%d predicted=%d simulated=%d\n", model_ok, plan_ok,
              predicted_ok, simulated_ok);
  return 1;
}
