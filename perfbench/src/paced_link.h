// A bandwidth-paced link between the storage server and the loader.
//
// The library's in-process transport moves bytes instantly, so a real run
// is CPU-bound and never shows the link bottleneck SOPHON exists for. This
// decorator emulates the link: every response reserves the wire for
// bytes / bandwidth in arrival order (a FIFO token bucket with no burst),
// and the caller gets the response once its transmission has finished plus
// a fixed per-message latency. Transmissions never overlap and never
// overtake each other, so the link carries at most `bandwidth` bytes per
// second however many threads fetch through it.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "bench.h"
#include "net/rpc.h"

namespace perfbench {

class PacedLink final : public sophon::net::StorageService {
 public:
  struct Options {
    /// Link rate; 0 makes the link a passthrough that only counts bytes.
    double bytes_per_second = 0.0;
    /// Added to every paced message after its transmission ends.
    double latency_seconds = 0.0;
  };

  /// What crossed the link since construction or the last reset().
  struct Stats {
    std::uint64_t messages = 0;
    std::int64_t bytes = 0;
    double busy_seconds = 0.0;  // summed transmission time
    std::vector<double> queue_wait_seconds;  // per paced message
  };

  /// Borrows `inner`; keep it alive while the link is used.
  PacedLink(sophon::net::StorageService& inner, Options options);

  PacedLink(const PacedLink&) = delete;
  PacedLink& operator=(const PacedLink&) = delete;

  /// Thread-safe. Runs the inner fetch, then holds the caller until the
  /// response has crossed the emulated link.
  [[nodiscard]] sophon::net::FetchResponse fetch(
      const sophon::net::FetchRequest& request) override;

  [[nodiscard]] bool paced() const { return options_.bytes_per_second > 0.0; }
  [[nodiscard]] Stats stats() const;
  void reset();

 private:
  sophon::net::StorageService& inner_;
  Options options_;
  mutable std::mutex mutex_;
  Clock::time_point free_at_{};  // when the last reserved transmission ends
  Stats stats_;
};

}  // namespace perfbench
