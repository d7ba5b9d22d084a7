// Low-overhead span tracing for the sample lifecycle.
//
// A Tracer collects fixed-size SpanEvent records into per-thread lock-free
// ring buffers: recording a span is a handful of plain stores plus one
// release publish into the calling thread's own ring, and when tracing is
// disabled the whole path collapses to a single relaxed atomic load and a
// branch — instrumentation can stay compiled into the hot fetch and
// preprocessing loops at all times (bench/trace_overhead pins the cost).
//
// The ring records steady-clock time only: real-threaded code (loader
// workers, the prefetch scheduler, the resilience layer) stamps it through
// the RAII Span guard, one lane per thread. A simulated epoch never passes
// through the ring; its spans, in *virtual* simulation time, are built as a
// Trace value from the epoch's record (obs/replay_trace.h). Both views end
// as the same Trace — a real run's is Trace{tracer.drain(), tracer.labels()}
// — and one trace uses one time base, never both.
//
// Draining (drain()) requires the recording threads to have quiesced —
// joined, or otherwise happens-before the drain. That is the natural call
// point (after an epoch, after the loader's destructor) and keeps the
// writer side free of any reader synchronization.
//
// Export is Chrome trace-event JSON ("X" complete events, "M" thread
// metadata and "s"/"f" flow arrows), loadable by chrome://tracing and
// Perfetto.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/units.h"

namespace sophon::obs {

/// What a span's time was spent on — the attribution key the stall report
/// folds by, deliberately coarser than span names.
enum class SpanCategory : std::uint8_t {
  kFetch = 0,         ///< waiting on the storage service (incl. retries/backoff)
  kStagingWait = 1,   ///< blocked on a prefetched fetch still in flight
  kPreprocess = 2,    ///< compute-side pipeline op execution
  kStoragePrep = 3,   ///< storage-side pipeline prefix execution
  kCollate = 4,       ///< handing a finished sample to the consumer queue
  kTransfer = 5,      ///< bytes occupying the inter-cluster link
  kGpu = 6,           ///< GPU batch service
  kOther = 7,
  kRetry = 8,         ///< backoff before a fetch retry (resilience ladder)
};

[[nodiscard]] std::string_view span_category_name(SpanCategory category);

/// Per-sample annotations carried on a span. Negative values mean "unset"
/// and are omitted from the JSON export.
struct SpanArgs {
  std::int64_t sample = -1;    ///< catalog sample id
  std::int64_t position = -1;  ///< index in the epoch's visit order
  std::int64_t bytes = -1;     ///< bytes on the wire for this span
  std::int32_t prefix = -1;    ///< offload prefix depth of the directive
  std::int32_t retries = -1;   ///< fetch attempts beyond the first
  std::int8_t cache_hit = -1;  ///< served from the compute-local cache
  std::int8_t degraded = -1;   ///< fetched raw after an offloaded failure
  std::int8_t prefetched = -1; ///< staged by the clairvoyant scheduler
};

/// One recorded span. Fixed-size (the name is copied, truncating past
/// kNameCapacity - 1) so ring slots never allocate.
struct SpanEvent {
  static constexpr std::size_t kNameCapacity = 28;

  char name[kNameCapacity] = {};
  SpanCategory category = SpanCategory::kOther;
  /// True when timestamps are virtual simulation time (Trace::add_virtual_span);
  /// false for steady-clock nanoseconds (record/Span). Exported as the
  /// per-event "tb" field so validate-trace can enforce the one-base-per-file
  /// invariant.
  bool virtual_time = false;
  std::uint32_t track = 0;       ///< thread lane or virtual track
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  SpanArgs args;

  [[nodiscard]] Seconds duration() const {
    return Seconds(static_cast<double>(end_ns - begin_ns) / 1e9);
  }
};

/// Span collector. One instance usually serves the whole process (see
/// global_tracer()); tests may construct their own.
class Tracer {
 public:
  /// `capacity` is the per-thread ring size in spans; when a thread records
  /// more than that between drains, the oldest spans are overwritten and
  /// counted in dropped().
  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Master switch. Disabled (the default) makes every record call a
  /// relaxed load + branch; no buffers are touched or created.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Resize the ring used for *subsequently created* thread buffers (e.g.
  /// before enabling tracing for a large run). Existing buffers keep their
  /// size.
  void set_capacity(std::size_t capacity);

  /// Nanoseconds since the process's tracing epoch (steady clock).
  [[nodiscard]] static std::uint64_t now_ns();

  /// Record a real-time span on the calling thread's track. No-op while
  /// disabled.
  void record(SpanCategory category, std::string_view name, std::uint64_t begin_ns,
              std::uint64_t end_ns, const SpanArgs& args = {});

  /// Label the calling thread's lane (default "thread-N"). Cheap; call once
  /// at thread start (e.g. "worker-3").
  void set_thread_label(const std::string& label);

  /// Move out every recorded span, oldest first per track, and reset the
  /// rings. Requires recording threads to have quiesced (see file comment).
  [[nodiscard]] std::vector<SpanEvent> drain();

  /// (track id, label) for every thread lane seen so far.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::string>> labels() const;

  /// Spans overwritten by ring wrap-around since construction.
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  struct ThreadBuffer;

  ThreadBuffer& buffer_for_this_thread();

  const std::uint64_t id_;  // distinguishes tracers in the thread-local cache
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards buffers_, labels_, capacity_
  std::size_t capacity_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::uint32_t, std::string>> labels_;
  std::uint32_t next_track_ = 0;
};

/// The process-wide tracer every built-in instrumentation point records to.
[[nodiscard]] Tracer& global_tracer();

/// RAII span guard: stamps begin at construction, records at destruction.
/// When the tracer is disabled at construction the guard is inert (args
/// writes go to a dead member). Name must outlive the guard.
class Span {
 public:
  explicit Span(SpanCategory category, std::string_view name)
      : Span(global_tracer(), category, name) {}

  Span(Tracer& tracer, SpanCategory category, std::string_view name)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        category_(category),
        name_(name),
        begin_ns_(tracer_ != nullptr ? Tracer::now_ns() : 0) {}

  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(category_, name_, begin_ns_, Tracer::now_ns(), args_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Mutable annotations, filled in as the guarded scope learns them.
  [[nodiscard]] SpanArgs& args() { return args_; }

  /// Whether this guard will record (tracing was enabled at construction).
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  SpanCategory category_;
  std::string_view name_;
  std::uint64_t begin_ns_;
  SpanArgs args_;
};

/// A causal arrow between two spans, rendered by trace viewers as a flow
/// line: prefetch issue -> consumer claim, fetch retry -> eventual success.
/// `id` pairs the start and finish phases ("s"/"f") and must be unique per
/// flow within one trace.
struct TraceFlow {
  std::uint64_t id = 0;
  std::string name;            ///< flow family, e.g. "prefetch" or "retry"
  std::uint32_t from_track = 0;
  std::uint64_t from_ns = 0;   ///< start timestamp (same base as the spans)
  std::uint32_t to_track = 0;
  std::uint64_t to_ns = 0;     ///< finish timestamp; >= from_ns
};

/// One finished trace: spans, the labels of the tracks they lie on, and the
/// flow arrows between them. A simulated epoch's is built from its record
/// (obs/replay_trace.h); a real run's is Trace{tracer.drain(),
/// tracer.labels()}.
struct Trace {
  std::vector<SpanEvent> spans;
  std::vector<std::pair<std::uint32_t, std::string>> labels;  ///< (track id, label)
  std::vector<TraceFlow> flows = {};  // defaulted: Trace{spans, labels} is a whole trace

  /// The id of the track labeled `label`. On first use the label is added
  /// with an id one past the largest in use, so tracks are numbered in the
  /// order they are first asked for and never reuse a drained lane's id.
  std::uint32_t track(std::string_view label);

  /// Append a virtual-time span on `track`; `begin`/`end` are simulation
  /// seconds (clamped to begin >= 0, end >= begin). For simulated traces
  /// only: a drained steady-clock trace with a virtual span appended mixes
  /// time bases, which validate-trace --strict rejects.
  void add_virtual_span(std::uint32_t track, SpanCategory category, std::string_view name,
                        Seconds begin, Seconds end, const SpanArgs& args = {});
};

/// Chrome trace-event JSON document for `trace`: "M" thread-name metadata
/// per label, one "X" complete event per span (ts/dur in microseconds), and
/// one "s"/"f" pair per flow, bound by id, so the viewer draws the
/// issue->claim and retry->success arrows the critical-path analyzer
/// reasons over. Loadable by chrome://tracing and Perfetto.
[[nodiscard]] Json chrome_trace_json(const Trace& trace);

}  // namespace sophon::obs
