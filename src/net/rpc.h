// In-process RPC: the stand-in for the paper's gRPC data-fetch path.
//
// The service interface is what a networked implementation would expose; an
// in-process call moves real bytes through the same request/response types,
// and the wire meter counts them, so examples and tests exercise the exact
// protocol the simulator models. Failure is part of the contract: a fetch
// may throw FetchError (transient or permanent), which the resilience layer
// (net/resilience.h) turns into retries and the loader turns into graceful
// degradation.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/message.h"
#include "util/units.h"

namespace sophon::net {

/// A failed fetch. `kind()` tells the caller whether retrying can help:
/// transient and corrupt errors are retryable; permanent, deadline and
/// exhausted errors are final for this request (the loader may still degrade
/// the directive and re-fetch raw).
class FetchError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kTransient,  // momentary failure (timeout, dropped connection)
    kPermanent,  // the request can never succeed as issued
    kCorrupt,    // response arrived but failed integrity validation
    kDeadline,   // per-request deadline exceeded while backing off
    kExhausted,  // retry budget spent on transient/corrupt errors
  };

  FetchError(Kind kind, const std::string& what) : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Whether an immediate retry of the same request could succeed.
  [[nodiscard]] bool retryable() const {
    return kind_ == Kind::kTransient || kind_ == Kind::kCorrupt;
  }

 private:
  Kind kind_;
};

/// The storage-side fetch service (implemented in src/storage). Decorators
/// compose around it: FaultyStorageService injects failures for testing,
/// ResilientStorageService adds retry/backoff/deadline on top of any inner
/// service.
class StorageService {
 public:
  virtual ~StorageService() = default;

  /// Serve one fetch, executing the directive's pipeline prefix. May throw
  /// FetchError when the service (or a fault-injecting decorator) fails.
  [[nodiscard]] virtual FetchResponse fetch(const FetchRequest& request) = 0;
};

/// Wire meter: a transparent decorator counting every response's payload
/// bytes exactly where they arrive client-side. Sits between the resilience
/// layer and any fault injector so corrupt/truncated responses are metered
/// at the size that actually crossed the wire — the ground truth the
/// traffic ledger reconciles against in the threaded (non-DES) path.
/// Thread-safe: loader workers and the prefetch scheduler share one meter.
class MeteringStorageService final : public StorageService {
 public:
  explicit MeteringStorageService(StorageService& inner);

  [[nodiscard]] FetchResponse fetch(const FetchRequest& request) override;

  /// Cumulative payload bytes of every response that arrived (including
  /// responses later judged corrupt and retried).
  [[nodiscard]] Bytes traffic() const;
  [[nodiscard]] std::uint64_t responses() const;

 private:
  StorageService& inner_;
  std::atomic<std::int64_t> traffic_{0};
  std::atomic<std::uint64_t> responses_{0};
};

}  // namespace sophon::net
