// The storage server: SOPHON's near-storage execution engine.
//
// Design step (e): "the storage server processes these operations as
// instructed, sending back the partially processed data". The server reads
// the raw blob from its in-memory store, runs the directive's pipeline
// prefix with the epoch/sample-keyed augmentation streams, and replies with
// the framed payload. It also meters the modeled CPU seconds it spends —
// the quantity the decision engine budgets as T_CS.
//
// The server is the innermost StorageService: clients usually reach it
// through decorators (net::ResilientStorageService for retries,
// net::FaultyStorageService in fault drills) — see docs/ARCHITECTURE.md,
// "Life of an offloaded fetch".
#pragma once

#include <cstdint>
#include <mutex>

#include "net/rpc.h"
#include "shard/format.h"
#include "util/telemetry.h"
#include "pipeline/cost_model.h"
#include "pipeline/pipeline.h"
#include "storage/blob_source.h"

namespace sophon::storage {

/// Derive the per-(epoch, sample) augmentation stream seed. Both the storage
/// server and the compute-side loader use this, so a pipeline cut at any
/// stage reproduces exactly the augmentations of uncut local execution.
[[nodiscard]] std::uint64_t augmentation_seed(std::uint64_t base_seed, std::uint64_t epoch,
                                              std::uint64_t sample_id);

class StorageServer final : public net::StorageService {
 public:
  struct Options {
    std::uint64_t seed = 0;  // base seed shared with the compute node
    /// Optional telemetry: when set, the server reports
    /// sophon_server_fetch/_offload counters and the
    /// sophon_server_prefix_cpu duration into this registry (which must
    /// outlive the server).
    MetricsRegistry* metrics = nullptr;
    /// Optional packed shard of pre-materialised pipeline prefixes (see
    /// src/shard/). When a requested prefix is materialised at or below the
    /// directive's cut, the server serves the stored bytes (crc-verified)
    /// instead of re-running the prefix — and falls back to live execution
    /// when the check fails. Borrowed; must outlive the server.
    const shard::ShardReader* shard = nullptr;
  };

  /// Borrows the store and pipeline; the caller keeps them alive.
  StorageServer(BlobSource& store, const pipeline::Pipeline& pipeline,
                pipeline::CostModel cost_model, Options options);

  /// Thread-safe: concurrent fetches only share the store (itself locked)
  /// and the counters (guarded here).
  [[nodiscard]] net::FetchResponse fetch(const net::FetchRequest& request) override;

  /// Modeled single-core CPU seconds spent on offloaded prefixes so far.
  /// Shard-served stages cost nothing here — that saving is the whole point.
  [[nodiscard]] Seconds modeled_cpu_time() const;
  [[nodiscard]] std::uint64_t requests_served() const;
  [[nodiscard]] std::uint64_t offloaded_requests() const;

  /// Shard serving outcomes (zero when no shard is attached). Every fetch
  /// with a shard attached lands in exactly one bucket: hit (stored prefix
  /// shipped), corrupt (crc failed, live fallback), or miss.
  [[nodiscard]] std::uint64_t shard_hits() const;
  [[nodiscard]] std::uint64_t shard_misses() const;
  [[nodiscard]] std::uint64_t shard_corrupt() const;

  void reset_counters();

 private:
  BlobSource& store_;
  const pipeline::Pipeline& pipeline_;
  pipeline::CostModel cost_model_;
  Options options_;
  mutable std::mutex mutex_;
  Seconds cpu_time_;
  std::uint64_t requests_ = 0;
  std::uint64_t offloaded_ = 0;
  std::uint64_t shard_hits_ = 0;
  std::uint64_t shard_misses_ = 0;
  std::uint64_t shard_corrupt_ = 0;
};

}  // namespace sophon::storage
