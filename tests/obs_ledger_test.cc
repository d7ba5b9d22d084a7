// TrafficLedger unit tests: the cause partition stays exact under record /
// reclassify, epoch boundaries close byte-exactly, the bounded top-K sample
// view keeps the heaviest samples, the JSON export round-trips losslessly
// (the property `sophonctl traffic-diff` depends on), and the diff/render
// helpers say what operators need to read.
#include <gtest/gtest.h>

#include <string>

#include "obs/ledger.h"
#include "util/telemetry.h"

namespace sophon::obs {
namespace {

TEST(TrafficCause, NamesRoundTripThroughTheTaxonomy) {
  for (std::size_t c = 0; c < kTrafficCauseCount; ++c) {
    const auto cause = static_cast<TrafficCause>(c);
    const auto back = traffic_cause_from_name(traffic_cause_name(cause));
    ASSERT_TRUE(back.has_value()) << traffic_cause_name(cause);
    EXPECT_EQ(*back, cause);
  }
  EXPECT_FALSE(traffic_cause_from_name("not-a-cause").has_value());
  EXPECT_FALSE(traffic_cause_from_name("").has_value());
}

TEST(TrafficLedger, RecordAccumulatesExactTotals) {
  TrafficLedger ledger;
  ledger.record(1, 0, TrafficCause::kDemand, Bytes(100));
  ledger.record(1, 2, TrafficCause::kPrefetch, Bytes(50));
  ledger.record(2, 2, TrafficCause::kDemand, Bytes(25));
  ledger.record(3, 1, TrafficCause::kControl, Bytes(7));

  EXPECT_EQ(ledger.total().count(), 182);
  EXPECT_EQ(ledger.total(TrafficCause::kDemand).count(), 125);
  EXPECT_EQ(ledger.total(TrafficCause::kDemand, 2).count(), 25);
  EXPECT_EQ(ledger.total(TrafficCause::kPrefetch, 2).count(), 50);
  EXPECT_EQ(ledger.total(TrafficCause::kControl).count(), 7);
  EXPECT_EQ(ledger.records(), 4u);

  // Zero-byte records are dropped, not counted.
  ledger.record(9, 0, TrafficCause::kDemand, Bytes(0));
  EXPECT_EQ(ledger.records(), 4u);
}

TEST(TrafficLedger, StagesAboveTheTableClampIntoTheLastBucket) {
  TrafficLedger ledger;
  ledger.record(1, 200, TrafficCause::kDemand, Bytes(10));
  EXPECT_EQ(ledger.total(TrafficCause::kDemand, kLedgerMaxStages - 1).count(), 10);
  // Querying with an over-range stage clamps the same way.
  EXPECT_EQ(ledger.total(TrafficCause::kDemand, 255).count(), 10);
}

TEST(TrafficLedger, ReclassifyMovesBytesWithoutChangingTheTotal) {
  TrafficLedger ledger;
  ledger.record(5, 2, TrafficCause::kPrefetch, Bytes(100));
  ledger.reclassify(5, 2, TrafficCause::kPrefetch, TrafficCause::kPrefetchWasted, Bytes(60));

  EXPECT_EQ(ledger.total().count(), 100);
  EXPECT_EQ(ledger.total(TrafficCause::kPrefetch).count(), 40);
  EXPECT_EQ(ledger.total(TrafficCause::kPrefetchWasted).count(), 60);
  EXPECT_EQ(ledger.total(TrafficCause::kPrefetchWasted, 2).count(), 60);

  const auto exported = ledger.export_state();
  ASSERT_EQ(exported.top_samples.size(), 1u);
  EXPECT_EQ(exported.top_samples[0].bytes, 100);
  EXPECT_EQ(exported.top_samples[0]
                .cause_bytes[static_cast<std::size_t>(TrafficCause::kPrefetchWasted)],
            60);
}

TEST(TrafficLedger, EndEpochClosesTheBooksByteExactly) {
  TrafficLedger ledger;
  ledger.record(1, 0, TrafficCause::kDemand, Bytes(100));
  const auto first = ledger.end_epoch(0, Bytes(100), /*plan_generation=*/7);
  EXPECT_TRUE(first.exact());
  EXPECT_EQ(first.ledger_bytes, 100);
  EXPECT_EQ(first.link_bytes, 100);

  // Second epoch: 10 bytes crossed the link that nobody attributed.
  ledger.record(2, 0, TrafficCause::kDemand, Bytes(50));
  const auto second = ledger.end_epoch(1, Bytes(60), /*plan_generation=*/7);
  EXPECT_FALSE(second.exact());
  EXPECT_EQ(second.unattributed_bytes, 10);

  const auto exported = ledger.export_state();
  ASSERT_EQ(exported.epochs.size(), 2u);
  EXPECT_EQ(exported.epochs[0].unattributed_bytes, 0);
  EXPECT_EQ(exported.epochs[1].unattributed_bytes, 10);
  // Epoch rows carry per-epoch deltas, not cumulative totals.
  EXPECT_EQ(exported.epochs[1].cause_bytes[static_cast<std::size_t>(TrafficCause::kDemand)], 50);
  EXPECT_EQ(exported.unattributed_bytes, 10);

  // Cumulative reconciliation agrees with the per-epoch residue.
  const auto cumulative = ledger.reconcile(Bytes(160));
  EXPECT_EQ(cumulative.unattributed_bytes, 10);
}

TEST(TrafficLedger, PlanForecastRidesTheEpochRowOfItsGeneration) {
  TrafficLedger ledger;
  ledger.note_plan_forecast(3, /*baseline=*/Bytes(1000), /*predicted=*/Bytes(400));
  ledger.record(1, 2, TrafficCause::kDemand, Bytes(400));
  ledger.end_epoch(0, Bytes(400), /*plan_generation=*/3);
  ledger.record(2, 2, TrafficCause::kDemand, Bytes(400));
  ledger.end_epoch(1, Bytes(400), /*plan_generation=*/9);  // no forecast noted

  const auto exported = ledger.export_state();
  ASSERT_EQ(exported.epochs.size(), 2u);
  EXPECT_EQ(exported.epochs[0].baseline_bytes, 1000);
  EXPECT_EQ(exported.epochs[0].predicted_bytes, 400);
  EXPECT_EQ(exported.epochs[1].baseline_bytes, -1);
  EXPECT_EQ(exported.epochs[1].predicted_bytes, -1);
}

TEST(TrafficLedger, PublishesGaugesAndRecordCounterAtEpochBoundaries) {
  MetricsRegistry metrics;
  TrafficLedger ledger({.top_k = 8, .metrics = &metrics});
  // Pre-registered: scrapes before the first epoch see explicit zeros.
  EXPECT_EQ(metrics.gauge("sophon_ledger_demand_bytes").value(), 0.0);
  EXPECT_EQ(metrics.counter("sophon_ledger_records").value(), 0u);

  ledger.record(1, 0, TrafficCause::kDemand, Bytes(100));
  ledger.record(1, 2, TrafficCause::kPrefetch, Bytes(50));
  ledger.reclassify(1, 2, TrafficCause::kPrefetch, TrafficCause::kPrefetchWasted, Bytes(50));
  ledger.end_epoch(0, Bytes(150), 0);

  EXPECT_EQ(metrics.gauge("sophon_ledger_demand_bytes").value(), 100.0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_prefetch_bytes").value(), 0.0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_prefetch_wasted_bytes").value(), 50.0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_attributed_bytes").value(), 150.0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_unattributed_bytes").value(), 0.0);
  EXPECT_EQ(metrics.counter("sophon_ledger_records").value(), 2u);

  // The records counter publishes deltas: a second boundary with no new
  // records must not double-count.
  ledger.end_epoch(1, Bytes(0), 0);
  EXPECT_EQ(metrics.counter("sophon_ledger_records").value(), 2u);

  // Over-attribution surfaces as the same absolute-residue gauge.
  ledger.record(2, 0, TrafficCause::kDemand, Bytes(40));
  ledger.end_epoch(2, Bytes(10), 0);
  EXPECT_EQ(metrics.gauge("sophon_ledger_unattributed_bytes").value(), 30.0);
}

TEST(TrafficLedger, TopKViewIsBoundedAndKeepsTheHeaviestSamples) {
  TrafficLedger ledger({.top_k = 4});
  // Enough distinct samples to force the amortized prune (capacity is
  // max(64, 4*top_k) and pruning triggers at twice that).
  constexpr std::size_t kSamples = 400;
  std::int64_t expected_total = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    ledger.record(i, 0, TrafficCause::kDemand, Bytes(static_cast<std::int64_t>(i + 1)));
    expected_total += static_cast<std::int64_t>(i + 1);
  }
  // Cause totals stay exact no matter what the sample view dropped.
  EXPECT_EQ(ledger.total().count(), expected_total);
  EXPECT_EQ(ledger.records(), kSamples);

  const auto exported = ledger.export_state();
  ASSERT_EQ(exported.top_samples.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(exported.top_samples[i].sample_id, kSamples - 1 - i);
    EXPECT_EQ(exported.top_samples[i].bytes, static_cast<std::int64_t>(kSamples - i));
  }
}

/// Touch every cause and a couple of epochs (the mutex member makes the
/// ledger unmovable, so callers hand one in).
void populate_ledger(TrafficLedger& ledger) {
  ledger.note_plan_forecast(1, Bytes(5000), Bytes(2000));
  ledger.record(1, 0, TrafficCause::kDemand, Bytes(1200));
  ledger.record(2, 2, TrafficCause::kPrefetch, Bytes(800));
  ledger.record(2, 2, TrafficCause::kShardHit, Bytes(300));
  ledger.record(3, 2, TrafficCause::kRetry, Bytes(150));
  ledger.record(4, 0, TrafficCause::kRawFallback, Bytes(90));
  ledger.reclassify(2, 2, TrafficCause::kPrefetch, TrafficCause::kPrefetchWasted, Bytes(100));
  ledger.end_epoch(0, Bytes(2540), 1);
  ledger.record(5, 3, TrafficCause::kShardCorruptRefetch, Bytes(60));
  ledger.end_epoch(1, Bytes(61), 1);  // 1 B residue, deliberately inexact
}

TEST(LedgerExport, JsonRoundTripIsLossless) {
  TrafficLedger ledger({.top_k = 8});
  populate_ledger(ledger);
  const LedgerExport exported = ledger.export_state();
  const Json doc = exported.to_json();

  const auto parsed = LedgerExport::from_json(doc);
  ASSERT_TRUE(parsed.has_value());
  // Re-serializing the parsed copy must reproduce the document bit-for-bit —
  // the invariant behind `traffic-diff A A` reporting zero.
  EXPECT_EQ(parsed->to_json(), doc);
  EXPECT_EQ(parsed->total(), exported.total());
  EXPECT_EQ(parsed->records, exported.records);
  EXPECT_EQ(parsed->unattributed_bytes, 1);
  ASSERT_EQ(parsed->epochs.size(), 2u);
  EXPECT_EQ(parsed->epochs[0].baseline_bytes, 5000);
  ASSERT_EQ(parsed->top_samples.size(), exported.top_samples.size());
  EXPECT_TRUE(diff_ledgers(*parsed, exported).identical());
}

TEST(LedgerExport, FromJsonRejectsForeignAndVersionSkewedDocs) {
  TrafficLedger ledger({.top_k = 8});
  populate_ledger(ledger);
  EXPECT_TRUE(LedgerExport::from_json(ledger.export_state().to_json()).has_value());

  Json wrong_kind = ledger.export_state().to_json();
  wrong_kind.set("kind", "sophon.trace");
  EXPECT_FALSE(LedgerExport::from_json(wrong_kind).has_value());

  Json wrong_version = ledger.export_state().to_json();
  wrong_version.set("schema_version", std::int64_t{2});
  EXPECT_FALSE(LedgerExport::from_json(wrong_version).has_value());

  EXPECT_FALSE(LedgerExport::from_json(Json::object()).has_value());
}

TEST(LedgerDiff, RanksCausesByAbsoluteByteDelta) {
  LedgerExport a;
  a.cause_bytes[static_cast<std::size_t>(TrafficCause::kDemand)] = 1000;
  LedgerExport b;
  b.cause_bytes[static_cast<std::size_t>(TrafficCause::kDemand)] = 400;
  b.cause_bytes[static_cast<std::size_t>(TrafficCause::kShardHit)] = 500;

  const LedgerDiff diff = diff_ledgers(a, b);
  ASSERT_EQ(diff.rows.size(), kTrafficCauseCount);
  EXPECT_EQ(diff.rows[0].cause, TrafficCause::kDemand);     // |-600| first
  EXPECT_EQ(diff.rows[0].delta(), -600);
  EXPECT_EQ(diff.rows[1].cause, TrafficCause::kShardHit);   // |+500| second
  EXPECT_EQ(diff.rows[1].delta(), 500);
  EXPECT_EQ(diff.total_delta(), -100);
  EXPECT_FALSE(diff.identical());

  EXPECT_TRUE(diff_ledgers(a, a).identical());
}

TEST(LedgerRender, ReportAndDiffMentionTheLoadBearingFacts) {
  TrafficLedger ledger({.top_k = 8});
  populate_ledger(ledger);
  const LedgerExport exported = ledger.export_state();
  const std::string report = render_traffic_report(exported);
  EXPECT_NE(report.find("traffic by cause"), std::string::npos);
  EXPECT_NE(report.find("traffic by pipeline stage"), std::string::npos);
  EXPECT_NE(report.find("plan savings per epoch"), std::string::npos);
  EXPECT_NE(report.find("heaviest samples"), std::string::npos);
  EXPECT_NE(report.find("prefetch-wasted"), std::string::npos);

  LedgerExport baseline;
  baseline.cause_bytes[static_cast<std::size_t>(TrafficCause::kDemand)] = exported.total();
  const std::string diff = render_traffic_diff(diff_ledgers(baseline, exported));
  EXPECT_NE(diff.find("shard-hit"), std::string::npos);
  EXPECT_EQ(diff.find("byte-identical"), std::string::npos);

  const std::string self_diff = render_traffic_diff(diff_ledgers(exported, exported));
  EXPECT_NE(self_diff.find("ledgers are byte-identical"), std::string::npos);
}

}  // namespace
}  // namespace sophon::obs
