// Observability layer: flight-recorder ring semantics, the metrics
// registry's determinism contract and quantile math, and run-manifest
// serialisation (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/anomaly.hpp"
#include "obs/events.hpp"
#include "obs/manifest.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"

namespace sdn::obs {
namespace {

Event At(std::int64_t t_ns, std::int64_t a = 0) {
  Event e;
  e.kind = EventKind::kCounter;
  e.label = "x";
  e.t_ns = t_ns;
  e.a = a;
  return e;
}

TEST(FlightRecorder, EmitsAndDrainsInTimeOrder) {
  FlightRecorder rec;
  rec.Emit(At(30));
  rec.Emit(At(10));
  rec.Emit(At(20));
  EXPECT_EQ(rec.total_emitted(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<Event> events = rec.Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_ns, 10);
  EXPECT_EQ(events[1].t_ns, 20);
  EXPECT_EQ(events[2].t_ns, 30);
}

TEST(FlightRecorder, WraparoundKeepsNewestAndCountsDrops) {
  FlightRecorder rec(/*capacity=*/4);
  for (std::int64_t i = 0; i < 10; ++i) rec.Emit(At(i, i));
  EXPECT_EQ(rec.total_emitted(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  const std::vector<Event> events = rec.Drain();
  ASSERT_EQ(events.size(), 4u);
  // Flight-recorder semantics: the most recent window survives.
  EXPECT_EQ(events.front().a, 6);
  EXPECT_EQ(events.back().a, 9);
}

TEST(FlightRecorder, JsonlCarriesManifestMetaAndEvents) {
  FlightRecorder rec;
  Event e = At(100, 7);
  e.kind = EventKind::kSketchMerge;
  e.round = 3;
  e.dur_ns = 50;
  rec.Emit(e);
  RunManifest manifest;
  manifest.Set("experiment", "unit-test");
  std::ostringstream os;
  rec.WriteJsonl(os, &manifest);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(out.find("\"experiment\":\"unit-test\""), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"meta\",\"emitted\":1,\"dropped\":0"),
            std::string::npos);
  EXPECT_NE(out.find("\"kind\":\"sketch_merge\""), std::string::npos);
  EXPECT_NE(out.find("\"round\":3"), std::string::npos);
  EXPECT_NE(out.find("\"dur_ns\":50"), std::string::npos);
  EXPECT_NE(out.find("\"a\":7"), std::string::npos);
}

TEST(FlightRecorder, JsonlEmitsCertifiedTOnlyWhenSet) {
  // kCheckerWindow carries certified-T in `c`; events that never set it
  // must not grow a noise field.
  FlightRecorder rec;
  Event window = At(10, 5);
  window.kind = EventKind::kCheckerWindow;
  window.c = 2;
  rec.Emit(window);
  rec.Emit(At(20, 1));  // c left at 0
  std::ostringstream os;
  rec.WriteJsonl(os, nullptr);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"kind\":\"checker_window\""), std::string::npos);
  EXPECT_NE(out.find("\"c\":2"), std::string::npos);
  EXPECT_EQ(out.find("\"c\":0"), std::string::npos);
}

TEST(FlightRecorder, ChromeTraceHasTracksSpansAndManifest) {
  FlightRecorder rec;
  Event phase;
  phase.kind = EventKind::kPhase;
  phase.label = "deliver";
  phase.t_ns = 1000;
  phase.dur_ns = 500;
  phase.round = 1;
  rec.Emit(phase);
  Event algo;
  algo.kind = EventKind::kAlgoPhase;
  algo.label = "disseminate";
  algo.t_ns = 1100;
  algo.a = 2;
  rec.Emit(algo);
  RunManifest manifest;
  manifest.Set("git_sha", "abc123");
  std::ostringstream os;
  rec.WriteChromeTrace(os, &manifest);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(out.find("\"name\":\"deliver\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"disseminate #2\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"otherData\": {\"git_sha\":\"abc123\"}"),
            std::string::npos);
  // Braces balance — a cheap structural check that the JSON closes.
  std::int64_t depth = 0;
  for (const char c : out) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(FlightRecorder, WriteToUnopenablePathReturnsFalse) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.WriteJsonl("/nonexistent-dir/trace.jsonl"));
  EXPECT_FALSE(rec.WriteChromeTrace("/nonexistent-dir/trace.json"));
}

TEST(Histogram, SummaryStatisticsAreExact) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty
  h.Observe(0);
  h.Observe(5);
  h.Observe(5);
  h.Observe(200);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 210);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 200);
}

TEST(Histogram, SingleValueQuantilesClampExactly) {
  Histogram h;
  h.Observe(5);
  EXPECT_EQ(h.Quantile(0.0), 5);
  EXPECT_EQ(h.Quantile(0.5), 5);
  EXPECT_EQ(h.Quantile(1.0), 5);
}

TEST(Histogram, QuantilesLandInTheRightLog2Bucket) {
  Histogram h;
  for (std::int64_t v = 1; v <= 100; ++v) h.Observe(v);
  const std::int64_t p50 = h.Quantile(0.50);
  const std::int64_t p95 = h.Quantile(0.95);
  // The true p50 is 50 (bucket 32..63); p95 is 95 (bucket 64..127, clamped
  // to max=100). Log-bucketed estimates must stay inside those buckets.
  EXPECT_GE(p50, 32);
  EXPECT_LE(p50, 63);
  EXPECT_GE(p95, 64);
  EXPECT_LE(p95, 100);
  EXPECT_LE(h.Quantile(1.0), 100);
  EXPECT_GE(h.Quantile(0.0), 1);
}

TEST(Registry, InstrumentsAreStableAndSnapshotted) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("msgs");
  c->Add(41);
  c->Increment();
  EXPECT_EQ(registry.GetCounter("msgs"), c);  // same name -> same instrument
  registry.GetGauge("hw_bits")->Set(256);
  Histogram* h = registry.GetHistogram("round_ns", /*deterministic=*/false);
  h->Observe(1000);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "msgs");  // insertion order
  const MetricSample* msgs = snap.Find("msgs");
  ASSERT_NE(msgs, nullptr);
  EXPECT_EQ(msgs->value, 42);
  EXPECT_EQ(snap.Find("hw_bits")->value, 256);
  EXPECT_EQ(snap.Find("round_ns")->count, 1);
  EXPECT_EQ(snap.Find("nope"), nullptr);
}

TEST(Registry, KindMismatchIsRejected) {
  MetricsRegistry registry;
  registry.GetCounter("x");
  EXPECT_THROW((void)registry.GetGauge("x"), util::CheckError);
  EXPECT_THROW((void)registry.GetHistogram("x"), util::CheckError);
}

TEST(Registry, DeterministicSubsetExcludesWallClockMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("merges")->Add(3);
  registry.GetHistogram("send_ns", /*deterministic=*/false)->Observe(123);
  const std::vector<MetricSample> det = registry.Snapshot().Deterministic();
  ASSERT_EQ(det.size(), 1u);
  EXPECT_EQ(det[0].name, "merges");
}

TEST(Registry, OneLineRendersCountersAndHistograms) {
  MetricsRegistry registry;
  registry.GetCounter("msgs")->Add(7);
  Histogram* h = registry.GetHistogram("lat");
  h->Observe(4);
  h->Observe(4);
  const std::string line = registry.Snapshot().OneLine();
  EXPECT_NE(line.find("msgs=7"), std::string::npos);
  EXPECT_NE(line.find("lat=p50:"), std::string::npos);
}

TEST(Manifest, CollectRecordsProvenanceKeys) {
  const RunManifest manifest = RunManifest::Collect();
  for (const char* key : {"sdn_version", "git_sha", "compiler", "build_type",
                          "hostname", "utc_time"}) {
    ASSERT_NE(manifest.Find(key), nullptr) << key;
    EXPECT_FALSE(manifest.Find(key)->empty()) << key;
  }
  // ISO-8601 UTC: "2026-08-06T...Z".
  const std::string& utc = *manifest.Find("utc_time");
  EXPECT_EQ(utc.size(), 20u);
  EXPECT_EQ(utc.back(), 'Z');
  EXPECT_EQ(utc[4], '-');
  EXPECT_EQ(utc[10], 'T');
}

TEST(Manifest, GitShaOverridePrecedenceAndLocalFallback) {
  // The SDN_GIT_SHA override (CI's pin of the exact commit under test)
  // wins over any local resolution, verbatim.
  ASSERT_EQ(setenv("SDN_GIT_SHA", "feedface0override", 1), 0);
  EXPECT_EQ(*RunManifest::Collect().Find("git_sha"), "feedface0override");
  ASSERT_EQ(unsetenv("SDN_GIT_SHA"), 0);
  // Without the override the sha resolves locally: the .git/HEAD walk,
  // then a cached `git rev-parse HEAD`. Run from anywhere inside this
  // repository that must produce a real 40-hex commit id — the historic
  // git_sha:"unknown" rows in recorded manifests were this fallback
  // missing, not an unknowable sha. ctest runs from the build tree, which
  // may lie outside the checkout, so this half runs from the source root.
  char old_cwd[4096];
  ASSERT_NE(getcwd(old_cwd, sizeof(old_cwd)), nullptr);
  ASSERT_EQ(chdir(SDN_SOURCE_DIR), 0) << SDN_SOURCE_DIR;
  const std::string sha = *RunManifest::Collect().Find("git_sha");
  ASSERT_EQ(chdir(old_cwd), 0) << old_cwd;
  EXPECT_EQ(sha.size(), 40u) << "resolved git_sha: " << sha;
  EXPECT_TRUE(std::all_of(sha.begin(), sha.end(), [](unsigned char c) {
    return std::isxdigit(c) != 0;
  })) << "resolved git_sha: " << sha;
}

TEST(Manifest, SetOverwritesAndSerialises) {
  RunManifest manifest;
  manifest.Set("experiment", "t1");
  manifest.Set("trials", 3);
  manifest.Set("experiment", "t1_count_vs_n");  // overwrite, keep position
  EXPECT_EQ(manifest.ToJson(),
            "{\"experiment\":\"t1_count_vs_n\",\"trials\":\"3\"}");
  const std::vector<std::string> lines = manifest.CommentLines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "# experiment=t1_count_vs_n");
  EXPECT_EQ(lines[1], "# trials=3");
}

TEST(Manifest, JsonEscapeHandlesQuotesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

AnomalyOptions TightOptions() {
  AnomalyOptions o;
  o.min_samples = 4;
  o.memory_jump_factor = 0.5;
  o.memory_jump_floor_bytes = 100;
  o.cooldown_rounds = 1;
  return o;
}

RoundSignals Signals(std::int64_t round, std::int64_t certified_T = -1) {
  RoundSignals s;
  s.round = round;
  s.certified_T = certified_T;
  return s;
}

TEST(AnomalyEngine, CooldownSuppressesImmediateRefire) {
  AnomalyEngine engine(TightOptions(), nullptr, nullptr);  // cooldown 1 round
  engine.Observe(Signals(1, /*certified_T=*/4), {});       // baseline
  engine.Observe(Signals(2, 3), {});                       // drop: fires
  EXPECT_EQ(engine.total_fired(), 1);
  // Round 3 drops again, but it is inside the cooldown.
  engine.Observe(Signals(3, 2), {});
  EXPECT_EQ(engine.total_fired(), 1);
  // Round 4 is past the cooldown and drops once more. Round 3's
  // suppressed sample still became the baseline, so the armed threshold
  // is 2, not 3.
  engine.Observe(Signals(4, 1), {});
  EXPECT_EQ(engine.total_fired(), 2);
  ASSERT_EQ(engine.records().size(), 2u);
  EXPECT_EQ(engine.records().back().round, 4);
  EXPECT_EQ(engine.records().back().value, 1);
  EXPECT_EQ(engine.records().back().threshold, 2);
}

TEST(AnomalyEngine, MemoryJumpFiresAboveHighWaterMarkAfterWarmup) {
  AnomalyEngine engine(TightOptions(), nullptr, nullptr);  // min_samples 4
  // Warm-up: a buffer sizing itself over its first samples is not a jump.
  const MemorySample first[] = {{"outbox", 1000}};
  const MemorySample high[] = {{"outbox", 3000}};
  engine.Observe(Signals(1), first);
  for (std::int64_t r = 2; r <= 4; ++r) engine.Observe(Signals(r), high);
  EXPECT_EQ(engine.total_fired(), 0);
  // Armed now. A level oscillating below the high-water mark is healthy:
  // 1000 -> 3000 is a step of 2000 > max(100, 0.5 x 1000), but it only
  // returns to the peak.
  engine.Observe(Signals(5), first);
  engine.Observe(Signals(6), high);
  EXPECT_EQ(engine.total_fired(), 0);
  const MemorySample jump[] = {{"outbox", 9000}};
  engine.Observe(Signals(7), jump);  // 9000 > 3000 + max(100, 0.5 x 3000)
  ASSERT_EQ(engine.records().size(), 1u);
  const AnomalyRecord& rec = engine.records().front();
  EXPECT_EQ(rec.rule, AnomalyRule::kMemoryJump);
  EXPECT_EQ(rec.value, 9000);
  EXPECT_EQ(rec.threshold, 4500);
  EXPECT_STREQ(rec.signal, "outbox");
  const MemorySample settle[] = {{"outbox", 9050}};
  engine.Observe(Signals(9), settle);  // small step, past cooldown: silent
  EXPECT_EQ(engine.total_fired(), 1);
}

TEST(AnomalyEngine, CertRegressionOnDropAndFirstBadWindow) {
  AnomalyEngine engine(TightOptions(), nullptr, nullptr);
  RoundSignals s = Signals(1);
  s.certified_T = 4;
  engine.Observe(s, {});  // baseline
  s = Signals(2);
  s.certified_T = -1;  // not sampled this round: rule must skip, not fire
  engine.Observe(s, {});
  EXPECT_EQ(engine.total_fired(), 0);
  s = Signals(3);
  s.certified_T = 2;  // drop vs the last sampled value
  engine.Observe(s, {});
  ASSERT_EQ(engine.records().size(), 1u);
  EXPECT_EQ(engine.records().front().rule, AnomalyRule::kCertRegression);
  EXPECT_EQ(engine.records().front().value, 2);
  EXPECT_EQ(engine.records().front().threshold, 4);
  s = Signals(5);
  s.certified_T = 2;
  s.first_bad_window = 7;
  engine.Observe(s, {});  // first bad window: one-shot latch
  EXPECT_EQ(engine.total_fired(), 2);
  EXPECT_STREQ(engine.records().back().signal, "tinterval_first_bad_window");
  s = Signals(7);
  s.certified_T = 2;
  s.first_bad_window = 7;
  engine.Observe(s, {});  // latched: no refire even past cooldown
  EXPECT_EQ(engine.total_fired(), 2);
}

TEST(AnomalyEngine, RecorderDropOnsetFiresOnceAtTransition) {
  AnomalyEngine engine(TightOptions(), nullptr, nullptr);
  RoundSignals s = Signals(1);
  s.recorder_dropped = 0;
  engine.Observe(s, {});
  EXPECT_EQ(engine.total_fired(), 0);
  s = Signals(3);
  s.recorder_dropped = 10;  // onset
  engine.Observe(s, {});
  EXPECT_EQ(engine.total_fired(), 1);
  EXPECT_EQ(engine.records().front().rule, AnomalyRule::kRecorderDropOnset);
  s = Signals(6);
  s.recorder_dropped = 500;  // keeps climbing: gauges carry it, no refire
  engine.Observe(s, {});
  EXPECT_EQ(engine.total_fired(), 1);
}

TEST(AnomalyEngine, RegistryCountersTrackFirings) {
  MetricsRegistry registry;
  AnomalyEngine engine(TightOptions(), &registry, nullptr);
  engine.Observe(Signals(1, /*certified_T=*/2), {});
  engine.Observe(Signals(2, 1), {});
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Find("anomalies_total")->value, 1);
  EXPECT_EQ(snap.Find("anomaly_cert_regression")->value, 1);
  EXPECT_EQ(snap.Find("anomaly_memory_jump")->value, 0);
  EXPECT_EQ(snap.Find("anomaly_recorder_drop_onset")->value, 0);
  // Whether the checker is sampled at all depends on the thread count, so
  // everything the anomaly plane registers stays out of the deterministic
  // subset.
  EXPECT_TRUE(registry.Snapshot().Deterministic().empty());
}

TEST(AnomalyEngine, DumpWritesRecorderWindowAndManifest) {
  const std::string dir = ::testing::TempDir();
  FlightRecorder recorder;
  recorder.Emit(At(10));
  AnomalyOptions options = TightOptions();
  options.dump_dir = dir;
  AnomalyEngine engine(options, nullptr, &recorder);
  RoundSignals s = Signals(9, /*certified_T=*/1);
  s.first_bad_window = 8;
  engine.Observe(s, {});
  ASSERT_EQ(engine.dumps_written(), 1);
  const std::string stem = dir + "/anomaly-9-cert_regression";
  std::ifstream jsonl(stem + ".jsonl");
  ASSERT_TRUE(jsonl.good()) << stem;
  std::stringstream body;
  body << jsonl.rdbuf();
  EXPECT_NE(body.str().find("\"anomaly_rule\":\"cert_regression\""),
            std::string::npos);
  EXPECT_NE(body.str().find("\"anomaly_round\":\"9\""), std::string::npos);
  EXPECT_NE(
      body.str().find("\"anomaly_signal\":\"tinterval_first_bad_window\""),
      std::string::npos);
  std::ifstream manifest(stem + ".manifest.json");
  EXPECT_TRUE(manifest.good()) << stem;
}

TEST(AnomalyEngine, DumpCountIsBounded) {
  const std::string dir = ::testing::TempDir();
  FlightRecorder recorder;
  AnomalyOptions options = TightOptions();
  options.dump_dir = dir;
  options.max_dumps = 1;
  options.cooldown_rounds = 0;
  AnomalyEngine engine(options, nullptr, &recorder);
  engine.Observe(Signals(1, /*certified_T=*/5), {});  // baseline
  for (std::int64_t r = 2; r <= 5; ++r) {
    engine.Observe(Signals(r * 2, 6 - r), {});  // certified-T 4, 3, 2, 1
  }
  EXPECT_EQ(engine.total_fired(), 4);
  EXPECT_EQ(engine.dumps_written(), 1);
}

TEST(OpenMetrics, NameMappingAndPrefix) {
  EXPECT_EQ(OpenMetricsName("round_ns"), "sdn_round_ns");
  EXPECT_EQ(OpenMetricsName("weird-name.x"), "sdn_weird_name_x");
}

TEST(OpenMetrics, RendersCountersGaugesSummariesAndEof) {
  MetricsRegistry registry;
  registry.GetCounter("msgs")->Add(7);
  registry.GetGauge("hw_bits")->Set(256);
  Histogram* h = registry.GetHistogram("round_ns", /*deterministic=*/false);
  h->Observe(100);
  h->Observe(200);
  const std::string out = RenderOpenMetrics(registry.Snapshot());
  EXPECT_NE(out.find("# TYPE sdn_msgs counter\nsdn_msgs_total 7\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE sdn_hw_bits gauge\nsdn_hw_bits 256\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE sdn_round_ns summary\n"), std::string::npos);
  EXPECT_NE(out.find("sdn_round_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(out.find("sdn_round_ns{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(out.find("sdn_round_ns_sum 300\n"), std::string::npos);
  EXPECT_NE(out.find("sdn_round_ns_count 2\n"), std::string::npos);
  // The format requires the EOF terminator as the final line.
  ASSERT_GE(out.size(), 6u);
  EXPECT_EQ(out.substr(out.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, MemoryAndAnomalySeriesCarryLabels) {
  MetricsRegistry registry;
  const std::vector<MemorySeries> memory = {{"outbox", 100, 200},
                                            {"with\"quote", 1, 2}};
  const std::vector<AnomalyRecord> anomalies = {
      {AnomalyRule::kCertRegression, 5, 1, 2, "certified_T"},
      {AnomalyRule::kCertRegression, 9, 0, 1, "certified_T"},
      {AnomalyRule::kMemoryJump, 7, 100, 10, "outbox"}};
  const std::string out =
      RenderOpenMetrics(registry.Snapshot(), memory, anomalies);
  EXPECT_NE(
      out.find("sdn_memory_bytes{subsystem=\"outbox\",stat=\"current\"} 100"),
      std::string::npos);
  EXPECT_NE(
      out.find("sdn_memory_bytes{subsystem=\"outbox\",stat=\"peak\"} 200"),
      std::string::npos);
  EXPECT_NE(out.find("subsystem=\"with\\\"quote\""), std::string::npos);
  EXPECT_NE(out.find("sdn_anomaly_records{rule=\"cert_regression\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("sdn_anomaly_records{rule=\"memory_jump\"} 1"),
            std::string::npos);
  // Rules that never fired do not emit empty series.
  EXPECT_EQ(out.find("rule=\"recorder_drop_onset\""), std::string::npos);
}

TEST(OpenMetrics, WriteToUnopenablePathReturnsFalse) {
  MetricsRegistry registry;
  EXPECT_FALSE(
      WriteOpenMetrics("/nonexistent-dir/metrics.txt", registry.Snapshot()));
}

TEST(Manifest, FakeTimeEnvOverridesUtcTimestampAndRoundTrips) {
  ASSERT_EQ(setenv("SDN_FAKE_TIME", "2026-01-02T03:04:05Z", 1), 0);
  const RunManifest faked = RunManifest::Collect();
  EXPECT_EQ(*faked.Find("utc_time"), "2026-01-02T03:04:05Z");
  // Round-trip: the injected stamp survives serialisation verbatim, so
  // manifest-comparing tests are reproducible byte for byte.
  EXPECT_NE(faked.ToJson().find("\"utc_time\":\"2026-01-02T03:04:05Z\""),
            std::string::npos);
  ASSERT_EQ(unsetenv("SDN_FAKE_TIME"), 0);
  const std::string real = *RunManifest::Collect().Find("utc_time");
  EXPECT_EQ(real.size(), 20u);  // back on the wall clock
  EXPECT_EQ(real.back(), 'Z');
}

TEST(Events, KindNamesAreStable) {
  EXPECT_STREQ(ToString(EventKind::kPhase), "phase");
  EXPECT_STREQ(ToString(EventKind::kAlgoPhase), "algo_phase");
  EXPECT_STREQ(ToString(EventKind::kBandwidthViolation),
               "bandwidth_violation");
}

}  // namespace
}  // namespace sdn::obs
