// Materialisation's working memory, measured by the allocations it makes.
// This binary replaces the global operator new/delete with a pair that
// records the largest single request while recording is on, so the
// replacement affects no other test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "dataset/synth.h"

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_largest{0};

void* allocate(std::size_t size) {
  if (g_recording.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// The largest single allocation `fn` makes.
template <typename Fn>
std::size_t largest_allocation(Fn&& fn) {
  g_largest = 0;
  g_recording = true;
  fn();
  g_recording = false;
  return g_largest;
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sophon::dataset {
namespace {

constexpr int kWidth = 1200;
constexpr int kHeight = 900;
constexpr std::size_t kRgbFrame = std::size_t{kWidth} * kHeight * 3;

SampleMeta large_textured_sample() {
  SampleMeta meta;
  meta.id = 3;
  meta.raw = pipeline::SampleShape::encoded(Bytes(1), kWidth, kHeight, 3);
  meta.texture = 0.9;
  return meta;
}

// The hook sees the frame when one is built, so the bound below is not
// met by an allocator that records nothing.
TEST(MaterializeMemory, RenderingAnImageAllocatesItsFrame) {
  const auto meta = large_textured_sample();
  const std::size_t largest =
      largest_allocation([&] { (void)generate_synthetic_image(meta, 7); });
  EXPECT_GE(largest, kRgbFrame);
}

// Materialisation renders row pairs into the 4:2:0 planes, so no buffer
// as large as the RGB frame is ever requested, at any quality.
TEST(MaterializeMemory, LargestAllocationIsBelowTheRgbFrame) {
  const auto meta = large_textured_sample();
  for (const int quality : {55, 95}) {
    const std::size_t largest =
        largest_allocation([&] { (void)materialize_encoded(meta, 7, quality); });
    EXPECT_LT(largest, kRgbFrame) << "quality " << quality;
    EXPECT_GE(largest, std::size_t{kWidth} * kHeight) << "quality " << quality;
  }
}

}  // namespace
}  // namespace sophon::dataset
