// M1 — codec micro-benchmarks: SJPG encode/decode throughput across texture
// and quality, the synthetic renderer that materialisation runs before the
// encoder and the two together, plus the pixel kernels the pipeline
// executes per sample and the compute-side suffix with and without its
// fused steps.
#include <benchmark/benchmark.h>

#include "codec/sjpg.h"
#include "dataset/synth.h"
#include "image/color.h"
#include "image/ops.h"
#include "pipeline/pipeline.h"
#include "util/rng.h"

namespace sophon {
namespace {

dataset::SampleMeta sample(int w, int h, double texture) {
  dataset::SampleMeta meta;
  meta.id = 1;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = texture;
  return meta;
}

image::Image synth(int w, int h, double texture) {
  return dataset::generate_synthetic_image(sample(w, h, texture), 42);
}

// Args: width, height, texture (percent), quality. 800x600 at quality 60
// is the perfbench corpus's quality on an image near its median size.
void BM_SjpgEncode(benchmark::State& state) {
  const auto w = static_cast<int>(state.range(0));
  const auto h = static_cast<int>(state.range(1));
  const auto img = synth(w, h, static_cast<double>(state.range(2)) / 100.0);
  const int quality = static_cast<int>(state.range(3));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto blob = codec::sjpg_encode(img, quality);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["bpp"] = static_cast<double>(bytes) * 8.0 / (static_cast<double>(w) * h);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * w * h * 3);
}
BENCHMARK(BM_SjpgEncode)
    ->Args({512, 384, 10, 95})
    ->Args({512, 384, 10, 55})
    ->Args({512, 384, 50, 95})
    ->Args({512, 384, 50, 55})
    ->Args({512, 384, 90, 95})
    ->Args({512, 384, 90, 55})
    ->Args({800, 600, 50, 60});

// The other half of materialising a sample: rendering it. Arg: texture
// (percent), which sets the wave count (2 + 4 x texture).
void BM_SynthRender(benchmark::State& state) {
  const double texture = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto img = synth(800, 600, texture);
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 800 * 600 * 3);
}
BENCHMARK(BM_SynthRender)->Arg(10)->Arg(50)->Arg(90);

// The whole materialisation layer, render plus encode, as every store and
// the shard packer run it. Args: width, height, texture (percent); quality
// 60 is the perfbench corpus's.
void BM_Materialize(benchmark::State& state) {
  const auto w = static_cast<int>(state.range(0));
  const auto h = static_cast<int>(state.range(1));
  const auto meta = sample(w, h, static_cast<double>(state.range(2)) / 100.0);
  for (auto _ : state) {
    auto blob = dataset::materialize_encoded(meta, 42, 60);
    benchmark::DoNotOptimize(blob);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * w * h * 3);
}
BENCHMARK(BM_Materialize)->Args({800, 600, 10})->Args({800, 600, 50})->Args({800, 600, 90});

// Args: width, height, quality. 800x600 at quality 60 is the perfbench
// corpus's quality on an image near its median size.
void BM_SjpgDecode(benchmark::State& state) {
  const auto w = static_cast<int>(state.range(0));
  const auto h = static_cast<int>(state.range(1));
  const auto blob = codec::sjpg_encode(synth(w, h, 0.5), static_cast<int>(state.range(2)));
  for (auto _ : state) {
    auto img = codec::sjpg_decode(blob);
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * w * h * 3);
}
BENCHMARK(BM_SjpgDecode)->Args({512, 384, 95})->Args({512, 384, 55})->Args({800, 600, 60});

// RandomResizedCrop's rects on an 800x600 image, drawn as the crop op draws
// them (area scale U[0.08, 1], aspect ratio [3/4, 4/3]).
std::vector<image::CropRect> crop_rects(int w, int h) {
  std::vector<image::CropRect> rects;
  for (std::uint64_t stream = 0; stream < 64; ++stream) {
    Rng rng(derive_seed(stream, 1));
    rects.push_back(image::sample_resized_crop_rect(w, h, rng));
  }
  return rects;
}

// The 800x600 q60 image decoded over RandomResizedCrop's rects in turn: only
// the rows down to a rect's bottom and the columns up to its right edge are
// rebuilt, and only the rect is merged to RGB.
void BM_SjpgDecodeRegion(benchmark::State& state) {
  const auto blob = codec::sjpg_encode(synth(800, 600, 0.5), 60);
  const auto rects = crop_rects(800, 600);
  std::size_t i = 0;
  for (auto _ : state) {
    auto img = codec::sjpg_decode(blob, rects[i++ % rects.size()]);
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 800 * 600 * 3);
}
BENCHMARK(BM_SjpgDecodeRegion);

// The compute side of a raw fetch: the standard five ops on the 800x600 q60
// blob, one run_seeded call per op (arg 0) or one call for all five (arg 1),
// which fuses Decode → RandomResizedCrop and ToTensor → Normalize.
void BM_LocalSuffix(benchmark::State& state) {
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::SampleData blob =
      pipeline::EncodedBlob{codec::sjpg_encode(synth(800, 600, 0.5), 60)};
  const bool fused = state.range(0) == 1;
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const auto seed = stream++ % 64;
    pipeline::SampleData data = blob;
    if (fused) {
      data = pipe.run_seeded(std::move(data), 0, pipe.size(), seed);
    } else {
      for (std::size_t k = 0; k < pipe.size(); ++k) {
        data = pipe.run_seeded(std::move(data), k, k + 1, seed);
      }
    }
    benchmark::DoNotOptimize(data);
  }
}
BENCHMARK(BM_LocalSuffix)->ArgName("fused")->Arg(0)->Arg(1);

// The decoder's last step: 4:2:0 planes of an 800x600 image back to RGB.
void BM_MergeYcbcr420(benchmark::State& state) {
  const auto planes = image::split_ycbcr_420(synth(800, 600, 0.5));
  for (auto _ : state) {
    auto img = image::merge_ycbcr_420(planes.y, planes.cb, planes.cr, 800, 600);
    benchmark::DoNotOptimize(img);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 800 * 600 * 3);
}
BENCHMARK(BM_MergeYcbcr420);

void BM_ResizeBilinear(benchmark::State& state) {
  const auto img = synth(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)), 0.5);
  for (auto _ : state) {
    auto out = image::resize_bilinear(img, 224, 224);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ResizeBilinear)->Arg(512)->Arg(1024)->Arg(2048);

void BM_HorizontalFlip(benchmark::State& state) {
  auto img = synth(224, 224, 0.5);
  for (auto _ : state) {
    img = image::horizontal_flip(std::move(img));  // in place, as the pipeline op flips
    benchmark::DoNotOptimize(img);
  }
}
BENCHMARK(BM_HorizontalFlip);

void BM_ToTensorNormalize(benchmark::State& state) {
  const auto img = synth(224, 224, 0.5);
  for (auto _ : state) {
    auto t = image::to_tensor(img);
    image::normalize(t, image::kImagenetMean, image::kImagenetStd);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ToTensorNormalize);

}  // namespace
}  // namespace sophon

BENCHMARK_MAIN();
