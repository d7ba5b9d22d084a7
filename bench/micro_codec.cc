// M1 — codec micro-benchmarks: SJPG encode/decode throughput across texture
// and quality, plus the pixel kernels the pipeline executes per sample.
#include <benchmark/benchmark.h>

#include "codec/sjpg.h"
#include "dataset/synth.h"
#include "image/color.h"
#include "image/ops.h"

namespace sophon {
namespace {

image::Image synth(int w, int h, double texture) {
  dataset::SampleMeta meta;
  meta.id = 1;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), w, h, 3);
  meta.texture = texture;
  return dataset::generate_synthetic_image(meta, 42);
}

void BM_SjpgEncode(benchmark::State& state) {
  const auto img = synth(512, 384, static_cast<double>(state.range(0)) / 100.0);
  const int quality = static_cast<int>(state.range(1));
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto blob = codec::sjpg_encode(img, quality);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["bpp"] = static_cast<double>(bytes) * 8.0 / (512.0 * 384.0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512 * 384 * 3);
}
BENCHMARK(BM_SjpgEncode)
    ->Args({10, 95})
    ->Args({10, 55})
    ->Args({50, 95})
    ->Args({50, 55})
    ->Args({90, 95})
    ->Args({90, 55});

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
