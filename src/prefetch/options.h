// Configuration for the clairvoyant prefetch subsystem.
//
// The compute node knows the entire future access sequence — the epoch order
// is a seeded shuffle computable before training starts — so a prefetcher
// can walk ahead of the training loop and have each sample's payload staged
// (or at least in flight) by the time a loader worker asks for it. These
// options bound how far ahead it runs: credits in samples (`depth`) and in
// staged bytes (`bytes_budget`) keep the buffer from ballooning, and the
// horizon (8 × depth) keeps the scheduler from racing arbitrarily far past
// consumption.
#pragma once

#include <cstddef>

#include "util/units.h"

namespace sophon::cache {
class LruCache;
}  // namespace sophon::cache

namespace sophon::prefetch {

struct PrefetchOptions {
  /// Maximum samples reserved-or-staged at once. 0 disables prefetching
  /// entirely (pure demand fetching).
  std::size_t depth = 0;

  /// Cap on bytes held in the staging buffer. 0 = unlimited. Enforced
  /// against committed payloads, so one in-flight fetch may overshoot.
  Bytes bytes_budget;

  /// Samples whose expected payload is at most this many bytes are fetched
  /// opportunistically (only when a credit is immediately free): their
  /// transfer is too small for look-ahead to hide anything worth the buffer
  /// slot. 0 disables the size-based rule.
  Bytes deprioritize_below = Bytes(4 * 1024);

  /// Treat samples with a nonzero offload directive as deprioritized when
  /// their exact payload size is unknown (the real fetch path has no
  /// catalog): the offload plan ships them as small post-crop tensors.
  bool deprioritize_offloaded = true;

  /// Optional raw-blob LRU on the compute node: samples resident in it are
  /// served locally, so prefetching them would fetch bytes the demand path
  /// never moves. Borrowed; keep it alive while prefetching.
  const cache::LruCache* cache = nullptr;

  /// How many epoch positions the scheduler may run ahead of the consumer's
  /// most recent claim. Bounds skip-marker bookkeeping even when admission
  /// rejects long runs of samples.
  [[nodiscard]] std::size_t effective_horizon() const { return depth * 8; }
};

}  // namespace sophon::prefetch
