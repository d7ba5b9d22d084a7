// The real byte path: a materialised ImageNet-like corpus served by the
// storage server through an emulated link to a multi-worker loader.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "codec/sjpg.h"
#include "core/decision.h"
#include "dataset/profile.h"
#include "loader/loader.h"
#include "net/rpc.h"
#include "net/wire.h"
#include "paced_link.h"
#include "plan_query.h"
#include "storage/dataset_store.h"
#include "storage/server.h"
#include "util/crc32.h"
#include "workloads.h"

namespace perfbench {

using namespace sophon;

namespace {

// Corpus: a kStrataSize-times larger parametric draw is cut into
// kCorpusSamples equal-count strata by pixel count, and each stratum
// contributes its median-size image. Every seed then gets different images
// with the profile's pixel and size mix, so per-epoch CPU and bytes barely
// move between seeds.
constexpr std::size_t kCorpusSamples = 96;
constexpr std::size_t kStrataSize = 64;
// Caps the large-photo tail so a decode costs tens of ms, not hundreds.
constexpr double kMaxPixels = 1.0e6;
constexpr unsigned kSetupThreads = 4;
// The traced region's per-sample wait p99 needs at least 1000 samples.
constexpr std::uint64_t kMinTracedSamples = 1000;
constexpr std::size_t kWarmupSamples = 16;
// Tensors of sample ids congruent to the epoch modulo this are checked
// against a single-threaded reference (one or two per epoch).
constexpr std::uint64_t kCheckStride = 64;
// Epoch index of the single-threaded layer pass (never loaded).
constexpr std::uint64_t kLayerPassEpoch = 1u << 20;

struct RealConfig {
  const char* name;
  double link_mbps;  // 0 = unpaced
  double latency_ms;
  std::size_t workers;
  std::size_t prefetch_depth;
};

// The two workers and the prefetcher each wait for their own transfer, so
// the link stays busy only when it is much slower than they are: at 12 Mbps
// it is busy 86-94% of the time under the SOPHON plan, depending on how
// fast the CPU happens to run.
constexpr RealConfig kLinkBoundConfig{"real_linkbound", 12.0, 1.0, 2, 16};
constexpr RealConfig kCpuBoundConfig{"real_cpubound", 0.0, 0.0, 3, 0};

// What the planner is told about the cluster. An unpaced link is described
// as a 100 Gbps one, which makes stage 1 find the workload CPU-bound.
sim::ClusterConfig planning_cluster(const RealConfig& config) {
  sim::ClusterConfig cluster;
  cluster.compute_cores = static_cast<int>(config.workers);
  cluster.storage_cores = 2;
  cluster.bandwidth = Bandwidth::mbps(config.link_mbps > 0.0 ? config.link_mbps : 1e5);
  cluster.link_latency = Seconds::millis(config.latency_ms);
  cluster.batch_size = 32;
  return cluster;
}

struct TensorCheck {
  std::uint64_t epoch = 0;
  std::uint64_t sample = 0;
  std::uint32_t crc = 0;
};

std::uint32_t tensor_crc(const image::Tensor& tensor) {
  const auto& values = tensor.data();
  return crc32(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(values.data()),
                                             values.size() * sizeof(float)));
}

/// One set-up instance of the real path. Heap-allocated and never moved:
/// the store, server and decorators borrow each other.
struct Testbed {
  pipeline::Pipeline pipe = pipeline::Pipeline::standard();
  pipeline::CostModel cost_model;
  dataset::Catalog catalog;  // from the real blobs' sizes and headers
  std::unique_ptr<storage::DatasetStore> store;
  std::unique_ptr<storage::StorageServer> server;
  // Fetch chain, loader side last. The TracedService layers record spans
  // only while the log is enabled.
  std::unique_ptr<TracedService> traced_storage;
  std::unique_ptr<PacedLink> link;
  std::unique_ptr<TracedService> traced_link;
  std::unique_ptr<net::MeteringStorageService> meter;
  std::unique_ptr<TracedService> traced_fetch;
  PlanSetting setting;
  SophonPlan plan;
  std::int64_t expected_epoch_bytes = 0;  // exact metered bytes of one epoch
  std::int64_t raw_epoch_bytes = 0;       // the same epoch fetched all-raw
};

/// Materialises the corpus through cold DatasetStore::get calls (each one
/// renders and SJPG-encodes an image), on kSetupThreads threads.
std::vector<std::vector<std::uint8_t>> materialize_corpus(std::uint64_t seed, SpanLog& log) {
  auto profile = dataset::imagenet_profile(kCorpusSamples * kStrataSize);
  profile.max_pixels = kMaxPixels;
  const auto pool = dataset::Catalog::generate(profile, seed);

  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pool.sample(a).raw.pixel_count() < pool.sample(b).raw.pixel_count();
  });
  std::vector<std::size_t> picked(kCorpusSamples);
  for (std::size_t s = 0; s < kCorpusSamples; ++s) {
    const auto stratum = order.begin() + static_cast<std::ptrdiff_t>(s * kStrataSize);
    std::stable_sort(stratum, stratum + kStrataSize, [&](std::size_t a, std::size_t b) {
      return pool.sample(a).raw.bytes < pool.sample(b).raw.bytes;
    });
    picked[s] = stratum[kStrataSize / 2];
  }

  storage::DatasetStore source(pool, seed, profile.quality);
  std::vector<std::vector<std::uint8_t>> blobs(kCorpusSamples);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < kCorpusSamples; i = next.fetch_add(1)) {
      const auto span = log.span("codec.encode", static_cast<std::int64_t>(i));
      blobs[i] = *source.get(picked[i]);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kSetupThreads; ++t) threads.emplace_back(worker);
  for (auto& thread : threads) thread.join();
  return blobs;
}

struct EpochRecord {
  std::uint64_t delivered = 0;
  std::uint64_t degraded = 0;
  std::int64_t metered_bytes = 0;
  prefetch::PrefetchScheduler::Stats prefetch;
  std::vector<double> waits_ms;
  std::vector<TensorCheck> checks;
  bool failed = false;  // the loader surfaced an error
};

/// Loads one epoch as a closed loop: the consumer asks for the next sample
/// only once the previous one has arrived.
EpochRecord run_epoch(Testbed& tb, const RealConfig& config, std::uint64_t seed,
                      std::uint64_t epoch, SpanLog& log,
                      std::size_t max_samples = SIZE_MAX) {
  EpochRecord rec;
  const auto before = tb.meter->traffic();
  {
    loader::DataLoader::Options options;
    options.num_workers = config.workers;
    options.queue_capacity = 16;
    options.seed = seed;
    options.epoch = epoch;
    options.prefetch.depth = config.prefetch_depth;
    loader::DataLoader loader(*tb.traced_fetch, tb.pipe, tb.plan.plan, tb.catalog.size(),
                              options);
    loader.start();
    rec.waits_ms.reserve(tb.catalog.size());
    try {
      for (;;) {
        std::optional<loader::LoadedSample> item;
        double wait_ms = 0.0;
        {
          auto span = log.span("loader.next");
          const auto asked = Clock::now();
          item = loader.next();
          wait_ms = seconds_since(asked) * 1e3;
          if (item) span.set_sample(static_cast<std::int64_t>(item->sample_id));
        }
        if (!item || rec.delivered == max_samples) break;
        rec.waits_ms.push_back(wait_ms);
        ++rec.delivered;
        if (item->sample_id % kCheckStride == epoch % kCheckStride) {
          rec.checks.push_back({epoch, item->sample_id, tensor_crc(item->tensor)});
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "epoch %llu failed: %s\n", static_cast<unsigned long long>(epoch),
                   e.what());
      rec.failed = true;
    }
    rec.degraded = loader.degraded_samples();
    if (const auto stats = loader.prefetch_stats()) rec.prefetch = *stats;
  }
  rec.metered_bytes = (tb.meter->traffic() - before).count();
  return rec;
}

std::unique_ptr<Testbed> set_up(const RealConfig& config, std::uint64_t seed, SpanLog& log) {
  auto tb = std::make_unique<Testbed>();
  auto blobs = materialize_corpus(seed, log);
  tb->catalog = dataset::Catalog::from_blobs(blobs);
  tb->store = std::make_unique<storage::DatasetStore>(
      tb->catalog, seed, dataset::imagenet_profile().quality);
  for (std::size_t i = 0; i < blobs.size(); ++i) tb->store->put(i, std::move(blobs[i]));

  tb->server = std::make_unique<storage::StorageServer>(
      *tb->store, tb->pipe, tb->cost_model, storage::StorageServer::Options{.seed = seed});
  tb->traced_storage = std::make_unique<TracedService>(*tb->server, log, "storage.fetch");
  PacedLink::Options link;
  link.bytes_per_second = config.link_mbps * 1e6 / 8.0;
  link.latency_seconds = config.latency_ms * 1e-3;
  tb->link = std::make_unique<PacedLink>(*tb->traced_storage, link);
  tb->traced_link = std::make_unique<TracedService>(*tb->link, log, "link.transfer");
  tb->meter = std::make_unique<net::MeteringStorageService>(*tb->traced_link);
  tb->traced_fetch = std::make_unique<TracedService>(*tb->meter, log, "net.fetch");

  tb->setting.catalog = &tb->catalog;
  tb->setting.pipeline = &tb->pipe;
  tb->setting.cost_model = &tb->cost_model;
  tb->setting.cluster = planning_cluster(config);
  tb->setting.gpu_batch_time = Seconds::millis(1.0);  // no GPU: never the bottleneck
  tb->setting.seed = seed;
  tb->setting.workers = config.workers;
  tb->setting.prefetch_depth = config.prefetch_depth;
  tb->plan = plan_sophon(tb->setting, log);

  for (std::size_t i = 0; i < tb->catalog.size(); ++i) {
    const auto raw_wire = static_cast<std::int64_t>(tb->store->get(i)->size()) +
                          net::kFrameOverheadBytes;
    const std::size_t prefix = tb->plan.plan.prefix(i);
    tb->raw_epoch_bytes += raw_wire;
    tb->expected_epoch_bytes +=
        prefix == 0 ? raw_wire
                    : net::wire_size(tb->pipe.shape_at(tb->catalog.sample(i).raw, prefix)).count();
  }

  // Warm-up: the first kWarmupSamples of epoch 0 (first-touch allocations,
  // thread start-up), untraced.
  const bool tracing = log.enabled();
  log.set_enabled(false);
  static_cast<void>(run_epoch(*tb, config, seed, 0, log, kWarmupSamples));
  log.set_enabled(tracing);
  return tb;
}

struct RegionOutcome {
  TimedRegion region;
  std::vector<EpochRecord> epochs;
  PacedLink::Stats link;
  std::uint64_t server_requests = 0;
  std::uint64_t server_offloaded = 0;
};

/// The timed closed loop: whole epochs until `seconds` have passed and at
/// least `min_samples` samples arrived.
RegionOutcome run_region(Testbed& tb, const RealConfig& config, std::uint64_t seed,
                         std::uint64_t first_epoch, double seconds, std::uint64_t min_samples,
                         SpanLog& log) {
  RegionOutcome out;
  tb.link->reset();
  tb.server->reset_counters();
  out.region.start();
  for (std::uint64_t epoch = first_epoch;; ++epoch) {
    out.epochs.push_back(run_epoch(tb, config, seed, epoch, log));
    out.region.add(out.epochs.back().delivered);
    if (out.epochs.back().failed) break;
    if (out.region.wall_seconds() >= seconds && out.region.items() >= min_samples) break;
  }
  out.region.stop();
  out.link = tb.link->stats();
  out.server_requests = tb.server->requests_served();
  out.server_offloaded = tb.server->offloaded_requests();
  return out;
}

const char* op_span_name(pipeline::OpKind kind) {
  switch (kind) {
    case pipeline::OpKind::kDecode:
      return "pipeline.decode";
    case pipeline::OpKind::kRandomResizedCrop:
      return "pipeline.crop";
    case pipeline::OpKind::kRandomHorizontalFlip:
      return "pipeline.flip";
    case pipeline::OpKind::kToTensor:
      return "pipeline.to_tensor";
    case pipeline::OpKind::kNormalize:
      return "pipeline.normalize";
  }
  return "pipeline.other";
}

/// Single-threaded pass over the corpus timing each layer in isolation:
/// SJPG decode, each op alone, and the wire encode/decode of the payload
/// the plan ships. Returns {decoded pixels, wire bytes serialised}.
std::pair<double, double> layer_pass(Testbed& tb, std::uint64_t seed, SpanLog& log) {
  double pixels = 0.0;
  double wire_bytes = 0.0;
  for (std::size_t i = 0; i < tb.catalog.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const auto& blob = *tb.store->get(i);
    {
      const auto span = log.span("codec.decode", id);
      const auto decoded = codec::sjpg_decode(blob);
      if (decoded) pixels += static_cast<double>(decoded->width()) * decoded->height();
    }
    const std::size_t prefix = tb.plan.plan.prefix(i);
    const auto stream = storage::augmentation_seed(seed, kLayerPassEpoch, i);
    pipeline::SampleData data = pipeline::EncodedBlob{blob};
    for (std::size_t k = 0; k <= tb.pipe.size(); ++k) {
      if (k == prefix) {
        net::FetchResponse response;
        response.sample_id = i;
        response.stage = static_cast<std::uint8_t>(prefix);
        {
          const auto span = log.span("net.serialize", id);
          response.payload = net::serialize_sample(data);
        }
        wire_bytes += static_cast<double>(response.payload.size());
        const auto span = log.span("net.unpack", id);
        static_cast<void>(net::unpack_response(response));
      }
      if (k == tb.pipe.size()) break;
      const auto span = log.span(op_span_name(tb.pipe.op(k).kind()), id);
      data = tb.pipe.run_seeded(std::move(data), k, k + 1, stream);
    }
  }
  return {pixels, wire_bytes};
}

}  // namespace

Result run_real(RealWorkload workload, const Args& args, Clock::time_point process_start,
                SpanLog& log) {
  const RealConfig& config =
      workload == RealWorkload::kLinkBound ? kLinkBoundConfig : kCpuBoundConfig;
  Result result;

  std::vector<double> setup_s;
  std::unique_ptr<Testbed> tb;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto begin = i == 0 ? process_start : Clock::now();
    tb.reset();
    tb = set_up(config, args.seed, log);
    setup_s.push_back(seconds_since(begin));
  }
  const std::size_t n = tb->catalog.size();

  // Tracing on: an untraced region first, for the overhead figure.
  double untraced_rate = 0.0;
  std::uint64_t next_epoch = 1;
  if (args.trace) {
    log.set_enabled(false);
    const auto plain = run_region(*tb, config, args.seed, next_epoch, args.seconds, 0, log);
    untraced_rate = plain.region.rate();
    next_epoch += plain.epochs.size();
    log.set_enabled(true);
  }
  const auto measured = run_region(*tb, config, args.seed, next_epoch, args.seconds,
                                   args.trace ? kMinTracedSamples : 0, log);
  const auto& region = measured.region;

  std::vector<double> waits_ms;
  std::vector<TensorCheck> checks;
  std::uint64_t degraded = 0;
  std::int64_t metered = 0;
  prefetch::PrefetchScheduler::Stats prefetch;
  for (const auto& e : measured.epochs) {
    waits_ms.insert(waits_ms.end(), e.waits_ms.begin(), e.waits_ms.end());
    checks.insert(checks.end(), e.checks.begin(), e.checks.end());
    degraded += e.degraded;
    metered += e.metered_bytes;
    prefetch.issued += e.prefetch.issued;
    prefetch.hits += e.prefetch.hits;
    prefetch.late_hits += e.prefetch.late_hits;
  }
  const auto epochs = static_cast<double>(measured.epochs.size());
  const double delivered = static_cast<double>(region.items());
  result.attempted = std::max<std::uint64_t>(region.items(), 1);
  result.failed += degraded;

  // --- Correctness, after the timed region. ---
  for (const auto& e : measured.epochs) {
    result.check(!e.failed, "an epoch surfaced a loader error");
    result.check(e.delivered == n, "an epoch delivered " + std::to_string(e.delivered) +
                                       " of " + std::to_string(n) + " samples");
    result.check(e.metered_bytes == tb->expected_epoch_bytes,
                 "metered " + std::to_string(e.metered_bytes) + " bytes in an epoch, expected " +
                     std::to_string(tb->expected_epoch_bytes));
  }
  for (const auto& c : checks) {
    auto reference = tb->pipe.run_seeded(pipeline::EncodedBlob{*tb->store->get(c.sample)}, 0,
                                         tb->pipe.size(),
                                         storage::augmentation_seed(args.seed, c.epoch, c.sample));
    result.check(tensor_crc(std::get<image::Tensor>(reference)) == c.crc,
                 "tensor of sample " + std::to_string(c.sample) + " in epoch " +
                     std::to_string(c.epoch) + " differs from the single-threaded reference");
  }
  result.check(!checks.empty(), "no tensor was checked");
  if (workload == RealWorkload::kLinkBound) {
    result.check(tb->expected_epoch_bytes < tb->raw_epoch_bytes,
                 "the SOPHON plan ships no fewer bytes than all-raw");
  } else {
    result.check(tb->plan.plan.offloaded_count() == 0, "the CPU-bound plan offloads samples");
  }

  const double metered_per_epoch = static_cast<double>(metered) / epochs;
  auto& e2e = result.end_to_end;
  e2e["samples_per_s"] = {region.rate(), "1/s"};
  e2e["wait_p50_ms"] = {median(waits_ms), "ms"};
  e2e["wait_p90_ms"] = {quantile(waits_ms, 0.9), "ms"};
  e2e["wire_mb_per_epoch"] = {metered_per_epoch / 1e6, "MB"};
  e2e["cpu_ms_per_sample"] = {region.cpu_seconds() * 1e3 / delivered, "ms"};
  e2e["setup_s"] = {median(setup_s), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  const double link_busy = measured.link.busy_seconds / region.wall_seconds();
  std::printf("%s seed %llu: set up in %.2f s; %llu samples in %zu epochs over %.2f s; "
              "link busy %.3f; offloaded %zu/%zu; %zu tensors checked\n",
              config.name, static_cast<unsigned long long>(args.seed), median(setup_s),
              static_cast<unsigned long long>(region.items()), measured.epochs.size(),
              region.wall_seconds(), link_busy, tb->plan.plan.offloaded_count(), n,
              checks.size());

  if (!args.trace) return result;

  // --- Per-layer metrics from the traced region and the passes after it. ---
  const auto [pixels, wire_bytes] = layer_pass(*tb, args.seed, log);
  QueryOutcome query;
  {
    // The model-side layers, asked about this corpus and plan.
    const auto span = log.span("plan.query");
    query = run_query(tb->setting, log);
  }
  auto& layer = result.per_layer;
  const auto p50 = [&](const char* span) { return median(log.durations_ms(span)); };
  const auto ratio = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
  layer["codec.decode_ns_per_px"] = {sum(log.durations_ms("codec.decode")) * 1e6 / pixels,
                                     "ns/px"};
  const auto encode_ms = log.durations_ms("codec.encode");
  layer["codec.encode_ms_per_sample"] = {ratio(sum(encode_ms), encode_ms.size()), "ms"};
  // Means, not medians: the flip runs on half the samples, so its median
  // jumps between ~0 and the cost of a flip from seed to seed.
  for (const char* op : {"pipeline.decode", "pipeline.crop", "pipeline.flip",
                         "pipeline.to_tensor", "pipeline.normalize"}) {
    layer[std::string(op) + "_ms"] = {sum(log.durations_ms(op)) / static_cast<double>(n), "ms"};
  }
  layer["net.serialize_ns_per_byte"] = {sum(log.durations_ms("net.serialize")) * 1e6 / wire_bytes,
                                        "ns/B"};
  layer["net.unpack_ns_per_byte"] = {sum(log.durations_ms("net.unpack")) * 1e6 / wire_bytes,
                                     "ns/B"};
  const auto fetch_ms = log.durations_ms("storage.fetch");
  layer["storage.fetch_ms_p50"] = {median(fetch_ms), "ms"};
  layer["storage.fetch_ms_p99"] = {quantile(fetch_ms, 0.99), "ms"};
  layer["storage.busy_ms_per_sample"] = {sum(fetch_ms) / delivered, "ms"};
  layer["storage.offloaded_share"] = {
      ratio(measured.server_offloaded, measured.server_requests), "ratio"};
  layer["link.busy_share"] = {link_busy, "ratio"};
  layer["link.queue_wait_ms_p50"] = {median(measured.link.queue_wait_seconds) * 1e3, "ms"};
  layer["link.mb_per_epoch"] = {static_cast<double>(measured.link.bytes) / epochs / 1e6, "MB"};
  layer["loader.stall_share"] = {sum(waits_ms) / 1e3 / region.wall_seconds(), "ratio"};
  layer["loader.wait_p99_ms"] = {quantile(waits_ms, 0.99), "ms"};
  layer["loader.degraded"] = {static_cast<double>(degraded), "count"};
  layer["prefetch.issued"] = {static_cast<double>(prefetch.issued) / epochs, "count"};
  layer["prefetch.hit_ratio"] = {ratio(prefetch.hits, prefetch.issued), "ratio"};
  layer["prefetch.late_hits"] = {static_cast<double>(prefetch.late_hits) / epochs, "count"};
  layer["core.stage1_ms"] = {p50("core.stage1"), "ms"};
  layer["core.stage2_ms"] = {p50("core.stage2"), "ms"};
  layer["core.decide_ms"] = {p50("core.decide"), "ms"};
  layer["core.offloaded_share"] = {tb->plan.plan.offloaded_fraction(), "ratio"};
  const double forecast_bytes =
      core::forecast_plan_traffic(tb->plan.profiles, tb->plan.plan).predicted.as_double();
  layer["core.forecast_error"] = {
      std::fabs(metered_per_epoch - forecast_bytes) / metered_per_epoch, "ratio"};
  layer["sim.simulate_epoch_ms"] = {p50("sim.simulate_epoch"), "ms"};
  layer["prefetch.replay_epoch_ms"] = {p50("prefetch.replay_epoch"), "ms"};
  layer["critpath.analyze_ms"] = {p50("critpath.analyze_epoch"), "ms"};
  layer["critpath.whatif_ms"] = {p50("critpath.project"), "ms"};
  layer["critpath.nodes"] = {static_cast<double>(query.critpath_nodes), "count"};
  layer["trace.overhead_share"] = {1.0 - region.rate() / untraced_rate, "ratio"};
  return result;
}

}  // namespace perfbench
