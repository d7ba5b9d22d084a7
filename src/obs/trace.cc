#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace sophon::obs {

std::string_view span_category_name(SpanCategory category) {
  switch (category) {
    case SpanCategory::kFetch:
      return "fetch";
    case SpanCategory::kStagingWait:
      return "staging_wait";
    case SpanCategory::kPreprocess:
      return "preprocess";
    case SpanCategory::kStoragePrep:
      return "storage_prep";
    case SpanCategory::kCollate:
      return "collate";
    case SpanCategory::kTransfer:
      return "transfer";
    case SpanCategory::kGpu:
      return "gpu";
    case SpanCategory::kRetry:
      return "retry";
    case SpanCategory::kOther:
      break;
  }
  return "other";
}

namespace {

/// Tracer ids only need to be unique per process lifetime.
std::atomic<std::uint64_t> g_next_tracer_id{1};

std::uint64_t process_epoch_ns() {
  static const std::uint64_t epoch = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return epoch;
}

void copy_name(char (&dst)[SpanEvent::kNameCapacity], std::string_view src) {
  const std::size_t n = std::min(src.size(), SpanEvent::kNameCapacity - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

/// Single-writer ring: only the owning thread writes slots and head_; any
/// reader must happen-after the writer's last record (enforced by drain()'s
/// quiescence contract, with the release/acquire pair on head_ ordering the
/// slot contents).
struct Tracer::ThreadBuffer {
  explicit ThreadBuffer(std::uint32_t track_id, std::size_t capacity)
      : track(track_id), slots(capacity) {}

  const std::uint32_t track;
  std::vector<SpanEvent> slots;
  std::atomic<std::uint64_t> head{0};      // spans ever written
  std::uint64_t drained = 0;               // spans handed out by drain()
  std::uint64_t dropped = 0;               // overwritten before a drain
};

Tracer::Tracer(std::size_t capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(std::max<std::size_t>(capacity, 8)) {
  process_epoch_ns();  // pin the time base before the first span
}

Tracer::~Tracer() = default;

void Tracer::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(capacity, 8);
}

std::uint64_t Tracer::now_ns() {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - process_epoch_ns();
}

namespace {

/// Per-thread cache of (tracer id → buffer) so the record path never locks
/// after a thread's first span on a given tracer. Entries are only ever
/// read by their owning thread; stale entries (destroyed tracer) are never
/// matched because tracer ids are unique.
struct TlsEntry {
  std::uint64_t tracer_id;
  void* buffer;
};
thread_local std::vector<TlsEntry> t_buffers;

}  // namespace

Tracer::ThreadBuffer& Tracer::buffer_for_this_thread() {
  for (const auto& entry : t_buffers) {
    if (entry.tracer_id == id_) return *static_cast<ThreadBuffer*>(entry.buffer);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint32_t track_id = next_track_++;
  labels_.emplace_back(track_id, "thread-" + std::to_string(track_id));
  buffers_.push_back(std::make_unique<ThreadBuffer>(track_id, capacity_));
  ThreadBuffer& buffer = *buffers_.back();
  t_buffers.push_back(TlsEntry{id_, &buffer});
  return buffer;
}

void Tracer::record(SpanCategory category, std::string_view name, std::uint64_t begin_ns,
                    std::uint64_t end_ns, const SpanArgs& args) {
  if (!enabled()) return;
  ThreadBuffer& buffer = buffer_for_this_thread();
  const std::uint64_t head = buffer.head.load(std::memory_order_relaxed);
  SpanEvent& slot = buffer.slots[head % buffer.slots.size()];
  copy_name(slot.name, name);
  slot.category = category;
  slot.virtual_time = false;
  slot.track = buffer.track;
  slot.begin_ns = begin_ns;
  slot.end_ns = end_ns;
  slot.args = args;
  buffer.head.store(head + 1, std::memory_order_release);
}

void Tracer::set_thread_label(const std::string& label) {
  const std::uint32_t track_id = buffer_for_this_thread().track;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, existing] : labels_) {
    if (id == track_id) {
      existing = label;
      return;
    }
  }
}

std::vector<SpanEvent> Tracer::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanEvent> out;
  for (const auto& buffer : buffers_) {
    const std::uint64_t head = buffer->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = buffer->slots.size();
    const std::uint64_t fresh = head - buffer->drained;
    const std::uint64_t keep = std::min(fresh, capacity);
    buffer->dropped += fresh - keep;
    for (std::uint64_t i = head - keep; i < head; ++i) {
      out.push_back(buffer->slots[i % capacity]);
    }
    buffer->drained = head;
  }
  std::stable_sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.begin_ns < b.begin_ns;
  });
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> Tracer::labels() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return labels_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    const std::uint64_t head = buffer->head.load(std::memory_order_acquire);
    const std::uint64_t fresh = head - buffer->drained;
    total += buffer->dropped + (fresh > buffer->slots.size() ? fresh - buffer->slots.size() : 0);
  }
  return total;
}

Tracer& global_tracer() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Trace::track(std::string_view label) {
  std::uint32_t id = 0;
  for (const auto& [used, existing] : labels) {
    if (existing == label) return used;
    id = std::max(id, used + 1);
  }
  labels.emplace_back(id, std::string(label));
  return id;
}

void Trace::add_virtual_span(std::uint32_t track, SpanCategory category, std::string_view name,
                             Seconds begin, Seconds end, const SpanArgs& args) {
  SpanEvent& span = spans.emplace_back();
  copy_name(span.name, name);
  span.category = category;
  span.virtual_time = true;
  span.track = track;
  span.begin_ns = static_cast<std::uint64_t>(std::max(0.0, begin.value()) * 1e9);
  span.end_ns = static_cast<std::uint64_t>(std::max(begin.value(), end.value()) * 1e9);
  span.args = args;
}

Json chrome_trace_json(const Trace& trace) {
  Json events = Json::array();
  for (const auto& [track, label] : trace.labels) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    meta.set("tid", static_cast<std::int64_t>(track));
    Json args = Json::object();
    args.set("name", label);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (const auto& span : trace.spans) {
    Json event = Json::object();
    event.set("name", std::string(span.name));
    event.set("cat", std::string(span_category_name(span.category)));
    event.set("ph", "X");
    event.set("pid", 0);
    event.set("tid", static_cast<std::int64_t>(span.track));
    event.set("ts", static_cast<double>(span.begin_ns) / 1e3);
    event.set("dur", static_cast<double>(span.end_ns - span.begin_ns) / 1e3);
    event.set("tb", span.virtual_time ? "virtual" : "steady");
    Json args = Json::object();
    if (span.args.sample >= 0) args.set("sample", span.args.sample);
    if (span.args.position >= 0) args.set("position", span.args.position);
    if (span.args.bytes >= 0) args.set("bytes", span.args.bytes);
    if (span.args.prefix >= 0) args.set("prefix", static_cast<std::int64_t>(span.args.prefix));
    if (span.args.retries >= 0) args.set("retries", static_cast<std::int64_t>(span.args.retries));
    if (span.args.cache_hit >= 0) args.set("cache_hit", span.args.cache_hit != 0);
    if (span.args.degraded >= 0) args.set("degraded", span.args.degraded != 0);
    if (span.args.prefetched >= 0) args.set("prefetched", span.args.prefetched != 0);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  for (const auto& flow : trace.flows) {
    Json start = Json::object();
    start.set("name", flow.name);
    start.set("cat", flow.name);
    start.set("ph", "s");
    start.set("id", static_cast<std::int64_t>(flow.id));
    start.set("pid", 0);
    start.set("tid", static_cast<std::int64_t>(flow.from_track));
    start.set("ts", static_cast<double>(flow.from_ns) / 1e3);
    events.push_back(std::move(start));
    Json finish = Json::object();
    finish.set("name", flow.name);
    finish.set("cat", flow.name);
    finish.set("ph", "f");
    finish.set("bp", "e");  // bind to the enclosing slice at the finish point
    finish.set("id", static_cast<std::int64_t>(flow.id));
    finish.set("pid", 0);
    finish.set("tid", static_cast<std::int64_t>(flow.to_track));
    finish.set("ts", static_cast<double>(flow.to_ns) / 1e3);
    events.push_back(std::move(finish));
  }
  Json doc = Json::object();
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(events));
  return doc;
}

}  // namespace sophon::obs
