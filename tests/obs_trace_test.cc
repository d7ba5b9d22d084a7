#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace sophon::obs {
namespace {

TEST(Tracer, DisabledRecordPathIsInert) {
  Tracer tracer;
  ASSERT_FALSE(tracer.enabled());
  tracer.record(SpanCategory::kFetch, "fetch", 0, 100);
  EXPECT_TRUE(tracer.drain().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, AddVirtualSpanCollectsVirtualSpans) {
  Trace trace;
  const std::uint32_t link = trace.track("link");
  const std::uint32_t gpu = trace.track("gpu");
  EXPECT_NE(link, gpu);
  SpanArgs args;
  args.sample = 7;
  args.bytes = 1024;
  trace.add_virtual_span(link, SpanCategory::kTransfer, "transfer", Seconds(0.5), Seconds(1.5),
                         args);
  trace.add_virtual_span(gpu, SpanCategory::kGpu, "gpu_batch", Seconds(2.0), Seconds(2.25));
  const auto& spans = trace.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "transfer");
  EXPECT_EQ(spans[0].track, link);
  EXPECT_EQ(spans[0].category, SpanCategory::kTransfer);
  EXPECT_TRUE(spans[0].virtual_time);
  EXPECT_EQ(spans[0].args.sample, 7);
  EXPECT_EQ(spans[0].args.bytes, 1024);
  EXPECT_DOUBLE_EQ(spans[0].duration().value(), 1.0);
  EXPECT_STREQ(spans[1].name, "gpu_batch");
  EXPECT_EQ(spans[1].track, gpu);
  EXPECT_DOUBLE_EQ(spans[1].duration().value(), 0.25);
}

TEST(Trace, TrackRegistrationIsIdempotent) {
  Trace trace;
  const auto a = trace.track("link");
  const auto b = trace.track("link");
  const auto c = trace.track("gpu");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::set<std::string> names;
  for (const auto& [id, label] : trace.labels) names.insert(label);
  EXPECT_TRUE(names.contains("link"));
  EXPECT_TRUE(names.contains("gpu"));
  EXPECT_EQ(trace.labels.size(), 2u);
}

TEST(Trace, TrackNumbersPastEveryTrackInUse) {
  // A drained trace keeps the tracer's lane ids; a new track must not reuse
  // one of them, and an existing label keeps its id.
  Trace trace;
  trace.labels = {{3, "worker-0"}, {1, "prefetcher"}};
  EXPECT_EQ(trace.track("critical-path"), 4u);
  EXPECT_EQ(trace.track("storage-0"), 5u);
  EXPECT_EQ(trace.track("prefetcher"), 1u);
  EXPECT_EQ(Trace{}.track("link"), 0u);
}

TEST(Tracer, SpanGuardStampsRealTime) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    Span span(tracer, SpanCategory::kPreprocess, "decode");
    ASSERT_TRUE(span.active());
    span.args().sample = 3;
  }
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "decode");
  EXPECT_EQ(spans[0].args.sample, 3);
  EXPECT_GE(spans[0].end_ns, spans[0].begin_ns);
}

TEST(Tracer, SpanGuardInertWhenDisabled) {
  Tracer tracer;
  {
    Span span(tracer, SpanCategory::kPreprocess, "decode");
    EXPECT_FALSE(span.active());
    span.args().sample = 3;  // writes to a dead member, never dereferences
  }
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(Tracer, ThreadLabelAppearsInLabels) {
  Tracer tracer;
  tracer.set_enabled(true);
  std::thread worker([&tracer] {
    tracer.set_thread_label("worker-0");
    Span span(tracer, SpanCategory::kFetch, "fetch");
  });
  worker.join();
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 1u);
  bool found = false;
  for (const auto& [id, label] : tracer.labels()) {
    if (id == spans[0].track && label == "worker-0") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Tracer, LongNamesTruncate) {
  Tracer tracer;
  tracer.set_enabled(true);
  const std::string long_name(100, 'x');
  tracer.record(SpanCategory::kOther, long_name, 0, 1);
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].name).size(), SpanEvent::kNameCapacity - 1);
}

TEST(SpanRing, WrapAroundKeepsNewestAndCountsDropped) {
  Tracer tracer(/*capacity=*/8);  // 8 is also the enforced minimum
  tracer.set_enabled(true);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tracer.record(SpanCategory::kOther, "s", i, i + 1);
  }
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 8u);
  // The eight newest survive, oldest first.
  EXPECT_EQ(spans[0].begin_ns, 12u);
  EXPECT_EQ(spans[7].begin_ns, 19u);
  EXPECT_EQ(tracer.dropped(), 12u);
}

TEST(SpanRing, DrainResetsBuffers) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(SpanCategory::kOther, "a", 0, 1);
  EXPECT_EQ(tracer.drain().size(), 1u);
  EXPECT_TRUE(tracer.drain().empty());
  tracer.record(SpanCategory::kOther, "b", 2, 3);
  const auto spans = tracer.drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "b");
}

TEST(Tracer, ChromeTraceJsonSchema) {
  Trace trace;
  const std::uint32_t link = trace.track("link");
  SpanArgs args;
  args.sample = 11;
  args.position = 4;
  args.bytes = 2048;
  args.prefetched = 1;
  trace.add_virtual_span(link, SpanCategory::kTransfer, "transfer", Seconds(1.0), Seconds(3.0),
                         args);
  trace.add_virtual_span(trace.track("gpu"), SpanCategory::kGpu, "gpu_batch", Seconds(3.0),
                         Seconds(3.5));
  const Json doc = chrome_trace_json(trace);

  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::size_t metadata = 0;
  std::size_t complete = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    ASSERT_TRUE(event.is_object());
    const std::string& ph = event.at("ph").as_string();
    ASSERT_TRUE(event.has("pid"));
    ASSERT_TRUE(event.has("tid"));
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.at("name").as_string(), "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    ASSERT_TRUE(event.has("ts"));
    ASSERT_TRUE(event.has("dur"));
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    ASSERT_TRUE(event.has("cat"));
  }
  EXPECT_EQ(complete, 2u);
  EXPECT_EQ(metadata, trace.labels.size());

  // The transfer span carries its per-sample args; ts/dur are microseconds.
  bool checked = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    if (event.at("ph").as_string() != "X" || event.at("name").as_string() != "transfer") continue;
    EXPECT_DOUBLE_EQ(event.at("ts").as_number(), 1.0e6);
    EXPECT_DOUBLE_EQ(event.at("dur").as_number(), 2.0e6);
    const Json& span_args = event.at("args");
    EXPECT_EQ(span_args.at("sample").as_int(), 11);
    EXPECT_EQ(span_args.at("position").as_int(), 4);
    EXPECT_EQ(span_args.at("bytes").as_int(), 2048);
    EXPECT_FALSE(span_args.has("retries"));  // unset args are omitted
    checked = true;
  }
  EXPECT_TRUE(checked);

  // The document round-trips through the in-repo parser.
  EXPECT_TRUE(Json::parse(doc.dump()).has_value());
}

TEST(Tracer, ChromeTraceJsonEmitsPairedFlowEvents) {
  Trace trace;
  const std::uint32_t prefetch = trace.track("prefetch");
  const std::uint32_t worker = trace.track("worker-0");
  trace.add_virtual_span(prefetch, SpanCategory::kOther, "prefetch_issue", Seconds(0.0),
                         Seconds(1.0));
  trace.add_virtual_span(worker, SpanCategory::kStagingWait, "staging_wait", Seconds(0.5),
                         Seconds(1.0));
  trace.add_virtual_span(worker, SpanCategory::kRetry, "retry_backoff", Seconds(2.0),
                         Seconds(2.5));
  trace.flows = {
      {1, "prefetch", prefetch, 0, worker, 1'000'000'000},
      {(std::uint64_t{1} << 32) + 0, "retry", worker, 2'500'000'000, worker, 3'000'000'000},
  };
  const Json doc = chrome_trace_json(trace);
  const Json& events = doc.at("traceEvents");

  // Every flow id appears exactly once as a start ("s") and once as a finish
  // ("f"), on the right tracks, finish bound to the enclosing slice.
  std::map<std::int64_t, std::pair<std::size_t, std::size_t>> phases;  // id -> (s, f)
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = events.at(i);
    const std::string& ph = event.at("ph").as_string();
    if (ph != "s" && ph != "f") continue;
    ASSERT_TRUE(event.has("id"));
    auto& [starts, finishes] = phases[event.at("id").as_int()];
    if (ph == "s") {
      ++starts;
    } else {
      ++finishes;
      EXPECT_EQ(event.at("bp").as_string(), "e");
    }
  }
  ASSERT_EQ(phases.size(), 2u);
  for (const auto& [id, counts] : phases) {
    EXPECT_EQ(counts.first, 1u) << "flow " << id;
    EXPECT_EQ(counts.second, 1u) << "flow " << id;
  }
  // Prefetch and retry flows occupy disjoint id spaces.
  EXPECT_TRUE(phases.contains(1));
  EXPECT_TRUE(phases.contains(static_cast<std::int64_t>(std::uint64_t{1} << 32)));
  EXPECT_TRUE(Json::parse(doc.dump()).has_value());
}

TEST(Tracer, CapacityAppliesToNewThreads) {
  Tracer tracer(8);
  tracer.set_enabled(true);
  tracer.set_capacity(32);  // new thread buffers pick this up
  std::thread t([&tracer] {
    for (std::uint64_t i = 0; i < 32; ++i) tracer.record(SpanCategory::kOther, "s", i, i + 1);
  });
  t.join();
  EXPECT_EQ(tracer.drain().size(), 32u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

}  // namespace
}  // namespace sophon::obs
