#include "net/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "adversary/factory.hpp"
#include "adversary/replay.hpp"
#include "adversary/streaming_trace.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "graph/tinterval.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::net {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/sdn_test_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<graph::Graph> SampleSequence(graph::NodeId n, int rounds,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::Graph> seq;
  for (int r = 0; r < rounds; ++r) {
    seq.push_back(graph::ConnectedGnp(n, 0.1, rng));
  }
  return seq;
}

TEST(Trace, SaveLoadRoundTrip) {
  const TempFile file("roundtrip.trace");
  const auto seq = SampleSequence(20, 12, 1);
  SaveTrace(file.path(), seq, 3);
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.interval, 3);
  EXPECT_EQ(trace.num_nodes(), 20);
  ASSERT_EQ(trace.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], seq[r]) << "round " << r;
  }
}

TEST(Trace, RoundTripPreservesTIntervalValidity) {
  const TempFile file("validity.trace");
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = 16;
  config.T = 3;
  const auto adv = adversary::MakeAdversary(config);
  class View final : public AdversaryView {
   public:
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(graph::NodeId) const override {
      return 0;
    }
    [[nodiscard]] graph::NodeId num_nodes() const override { return 16; }
  } view;
  std::vector<graph::Graph> seq;
  for (std::int64_t r = 1; r <= 20; ++r) {
    seq.push_back(adv->TopologyFor(r, view));
  }
  SaveTrace(file.path(), seq, 3);
  const Trace trace = LoadTrace(file.path());
  EXPECT_TRUE(graph::ValidateTInterval(trace.rounds, trace.interval,
                                       graph::ValidateMode::kEarlyExit)
                  .ok);
}

TEST(Trace, LoadedTraceDrivesReplayAdversary) {
  const TempFile file("replay.trace");
  const auto seq = SampleSequence(10, 5, 7);
  SaveTrace(file.path(), seq, 2);
  Trace trace = LoadTrace(file.path());
  adversary::ReplayAdversary replay(std::move(trace.rounds), trace.interval);
  EXPECT_EQ(replay.num_nodes(), 10);
  EXPECT_EQ(replay.recorded_rounds(), 5);
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  const TempFile file("comments.trace");
  {
    std::ofstream out(file.path());
    out << "# a comment\n\nsdn-trace 2\n# another\n"
        << "nodes 3 interval 1 keyframe 64\n"
        << "round 1 full 2\n0 1\n\n1 2\n";
  }
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.num_nodes(), 3);
  EXPECT_EQ(trace.rounds.front().num_edges(), 2);
}

TEST(Trace, EmptyGraphRoundsAllowed) {
  const TempFile file("empty.trace");
  std::vector<graph::Graph> seq = {graph::Graph(4), graph::Path(4)};
  SaveTrace(file.path(), seq, 1);
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.rounds[0].num_edges(), 0);
  EXPECT_EQ(trace.rounds[1].num_edges(), 3);
}

TEST(Trace, MalformedHeaderRejected) {
  const TempFile file("bad_header.trace");
  {
    std::ofstream out(file.path());
    out << "not-a-trace 1\n";
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

TEST(Trace, MissingFileRejected) {
  EXPECT_THROW(LoadTrace("/tmp/definitely_not_here.trace"), util::CheckError);
}

TEST(Trace, SaveRejectsEmptyOrRagged) {
  const TempFile file("invalid_save.trace");
  const std::vector<graph::Graph> empty;
  EXPECT_THROW(SaveTrace(file.path(), empty, 1), util::CheckError);
  const std::vector<graph::Graph> ragged = {graph::Graph(3), graph::Graph(4)};
  EXPECT_THROW(SaveTrace(file.path(), ragged, 1), util::CheckError);
}

std::vector<graph::Graph> AdversarySequence(graph::NodeId n, int T,
                                            std::int64_t rounds,
                                            std::uint64_t seed = 1) {
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = n;
  config.T = T;
  config.seed = seed;
  const auto adv = adversary::MakeAdversary(config);
  class View final : public AdversaryView {
   public:
    explicit View(graph::NodeId n) : n_(n) {}
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(graph::NodeId) const override {
      return 0;
    }
    [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

   private:
    graph::NodeId n_;
  } view(n);
  std::vector<graph::Graph> seq;
  for (std::int64_t r = 1; r <= rounds; ++r) {
    seq.push_back(adv->TopologyFor(r, view));
  }
  return seq;
}

TEST(TraceV2, DeltasRoundTripIdenticallyAndBeatFullLists) {
  // keyframe_every=1 writes every round as a full edge list.
  const TempFile full("all_keyframes.trace");
  const TempFile delta("deltas.trace");
  const auto seq = AdversarySequence(64, 3, 50);
  SaveTrace(full.path(), seq, 3, {.keyframe_every = 1});
  SaveTrace(delta.path(), seq, 3, {.keyframe_every = 16});
  const Trace a = LoadTrace(full.path());
  const Trace b = LoadTrace(delta.path());
  EXPECT_EQ(a.interval, b.interval);
  ASSERT_EQ(a.rounds.size(), seq.size());
  ASSERT_EQ(b.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(a.rounds[r], seq[r]) << "full round " << r;
    EXPECT_EQ(b.rounds[r], seq[r]) << "delta round " << r;
  }
  // Consecutive T-interval rounds share most edges, so the delta encoding
  // must come out strictly smaller than the full per-round lists.
  EXPECT_LT(std::filesystem::file_size(delta.path()),
            std::filesystem::file_size(full.path()));
}

TEST(TraceV2, KeyframeRoundsRestartExactly) {
  // keyframe_every=4 over 11 rounds: rounds 1, 5, 9 are full keyframes and
  // the rounds in between are reconstructed from deltas alone.
  const TempFile file("keyframes.trace");
  const auto seq = AdversarySequence(24, 2, 11, 9);
  SaveTrace(file.path(), seq, 2, {.keyframe_every = 4});
  {
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("round 1 full"), std::string::npos);
    EXPECT_NE(text.find("round 5 full"), std::string::npos);
    EXPECT_NE(text.find("round 9 full"), std::string::npos);
    EXPECT_NE(text.find("round 2 delta"), std::string::npos);
    EXPECT_EQ(text.find("round 5 delta"), std::string::npos);
  }
  const Trace trace = LoadTrace(file.path());
  ASSERT_EQ(trace.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], seq[r]) << "round " << r;
  }
}

TEST(TraceV2, RecorderStreamsSameFileAsSaveTrace) {
  const TempFile streamed("streamed.trace");
  const TempFile batch("batch.trace");
  const auto seq = AdversarySequence(16, 2, 9);
  {
    TraceRecorder recorder(streamed.path(), 16, 2, /*keyframe_every=*/4);
    for (const graph::Graph& g : seq) recorder.Push(g);
    EXPECT_EQ(recorder.rounds_written(), 9);
    recorder.Close();
  }
  SaveTrace(batch.path(), seq, 2, {.keyframe_every = 4});
  std::ifstream a(streamed.path());
  std::ifstream b(batch.path());
  const std::string sa((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);
}

/// Serial flood-max run over `adv` in which every node claims N =
/// `claimed_n` (at least adv.num_nodes()), so it decides at round
/// claimed_n - 1.
RunStats RunFloodMax(Adversary& adv, graph::NodeId claimed_n) {
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < adv.num_nodes(); ++u) {
    nodes.emplace_back(u, claimed_n, u);
  }
  EngineOptions opts;
  opts.threads = 1;
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), adv, opts);
  return engine.Run();
}

RunStats ReplayRunStats(std::vector<graph::Graph> rounds, int T) {
  adversary::ReplayAdversary replay(std::move(rounds), T);
  return RunFloodMax(replay, replay.num_nodes());
}

TEST(TraceV2, AnyKeyframeCadenceReplaysToIdenticalRunStats) {
  const TempFile full("replay_full.trace");
  const TempFile delta("replay_delta.trace");
  const auto seq = AdversarySequence(48, 2, 80);
  SaveTrace(full.path(), seq, 2, {.keyframe_every = 1});
  SaveTrace(delta.path(), seq, 2, {.keyframe_every = 8});
  const RunStats a = ReplayRunStats(LoadTrace(full.path()).rounds, 2);
  const RunStats b = ReplayRunStats(LoadTrace(delta.path()).rounds, 2);
  EXPECT_GT(a.rounds, 0);
  EXPECT_TRUE(a.all_decided);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.decide_round, b.decide_round);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.total_message_bits, b.total_message_bits);
  EXPECT_EQ(a.edges_processed, b.edges_processed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.tinterval_ok, b.tinterval_ok);
}

TEST(TraceV2, EngineRecordTraceMatchesRecordedTopologies) {
  const TempFile file("engine_record.trace");
  const graph::NodeId n = 32;
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = n;
  config.T = 2;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < n; ++u) nodes.emplace_back(u, n, u);
  std::vector<graph::Graph> recorded;
  TraceRecorder recorder(file.path(), n, 2, /*keyframe_every=*/8);
  EngineOptions opts;
  opts.threads = 1;
  opts.record_trace = &recorder;
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), *adv, opts);
  while (engine.Step()) recorded.push_back(engine.last_topology());
  const RunStats stats = engine.stats();
  recorder.Close();
  EXPECT_EQ(recorder.rounds_written(), stats.rounds);
  const Trace trace = LoadTrace(file.path());
  ASSERT_EQ(trace.rounds.size(), recorded.size());
  for (std::size_t r = 0; r < recorded.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], recorded[r]) << "round " << r;
  }
}

// ---------------------------------------------------------------------------
// Hostile input. Every consumer of the trace parser — the bare stream
// reader, LoadTrace, and an engine run over StreamingTraceAdversary — must
// end a malformed file in util::CheckError: never a crash, UB, or a foreign
// exception such as std::length_error.

/// A recording of 6 rounds on 5 nodes with keyframes at rounds 1 and 4
/// (exactly what TraceRecorder writes for it; the first test pins that).
constexpr const char* kRecorded =
    "sdn-trace 2\n"
    "nodes 5 interval 1 keyframe 3\n"
    "round 1 full 4\n"
    "0 1\n"
    "1 2\n"
    "2 3\n"
    "3 4\n"
    "round 2 delta 1 1\n"
    "+0 4\n"
    "-3 4\n"
    "round 3 delta 1 1\n"
    "+1 3\n"
    "-1 2\n"
    "round 4 full 4\n"
    "0 1\n"
    "1 3\n"
    "2 3\n"
    "2 4\n"
    "round 5 delta 1 0\n"
    "+0 4\n"
    "round 6 delta 0 1\n"
    "-0 4\n";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Rounds the bare reader yields before EOF.
std::int64_t DrainReader(const std::string& path) {
  TraceStreamReader reader(path);
  TraceStreamReader::Round record;
  while (reader.Next(record)) {
  }
  return reader.rounds_read();
}

/// Claiming N = n + 4 makes the run outlast the 6-round recording, so the
/// adversary consumes every record.
RunStats RunPastTheRecording(Adversary& adv) {
  return RunFloodMax(adv, adv.num_nodes() + 4);
}

RunStats RunStreaming(const std::string& path) {
  adversary::StreamingTraceAdversary adv(path);
  return RunPastTheRecording(adv);
}

void ExpectEveryConsumerRejects(const std::string& text,
                                const std::string& what) {
  SCOPED_TRACE(what);
  const TempFile file("hostile.trace");
  WriteText(file.path(), text);
  EXPECT_THROW(DrainReader(file.path()), util::CheckError);
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
  EXPECT_THROW(RunStreaming(file.path()), util::CheckError);
}

TEST(TraceHostile, RecordedTraceIsWhatTheRecorderWrites) {
  const TempFile file("recorded.trace");
  const TempFile again("rerecorded.trace");
  WriteText(file.path(), kRecorded);
  EXPECT_EQ(DrainReader(file.path()), 6);
  const Trace trace = LoadTrace(file.path());
  SaveTrace(again.path(), trace.rounds, trace.interval, {.keyframe_every = 3});
  std::ifstream in(again.path());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, kRecorded);
  EXPECT_TRUE(RunStreaming(file.path()).tinterval_ok);
}

TEST(TraceHostile, TruncationAtEveryLine) {
  const std::vector<std::string> lines = Lines(kRecorded);
  const Trace whole = [] {
    const TempFile file("whole.trace");
    WriteText(file.path(), kRecorded);
    return LoadTrace(file.path());
  }();
  for (std::size_t keep = 0; keep <= lines.size(); ++keep) {
    std::string text;
    std::int64_t complete = 0;  // round records that start within `keep`
    for (std::size_t i = 0; i < keep; ++i) {
      text += lines[i] + "\n";
      if (lines[i].rfind("round ", 0) == 0) ++complete;
    }
    // A cut exactly between two records leaves a shorter, well-formed
    // trace: the format carries no round count so it can be written
    // streamingly, and keyframes make such a file recoverable. It must
    // read back as exactly the recorded prefix.
    const bool at_record_boundary =
        keep >= 2 &&
        (keep == lines.size() || lines[keep].rfind("round ", 0) == 0);
    if (at_record_boundary && complete > 0) {
      SCOPED_TRACE("cut after line " + std::to_string(keep));
      const TempFile file("prefix.trace");
      WriteText(file.path(), text);
      EXPECT_EQ(DrainReader(file.path()), complete);
      const Trace prefix = LoadTrace(file.path());
      ASSERT_EQ(prefix.rounds.size(), static_cast<std::size_t>(complete));
      for (std::int64_t r = 0; r < complete; ++r) {
        EXPECT_EQ(prefix.rounds[static_cast<std::size_t>(r)],
                  whole.rounds[static_cast<std::size_t>(r)]);
      }
      // Streaming replay of the prefix == materialized replay of it.
      adversary::ReplayAdversary replay(prefix.rounds, prefix.interval);
      const RunStats materialized = RunPastTheRecording(replay);
      const RunStats streamed = RunStreaming(file.path());
      EXPECT_EQ(streamed.rounds, materialized.rounds);
      EXPECT_EQ(streamed.edges_processed, materialized.edges_processed);
      EXPECT_EQ(streamed.messages_delivered, materialized.messages_delivered);
      EXPECT_EQ(streamed.tinterval_ok, materialized.tinterval_ok);
      continue;
    }
    if (at_record_boundary) {
      // Header and size line but no round: the reader sees an empty
      // stream; both replays refuse to play nothing.
      const TempFile file("no_rounds.trace");
      WriteText(file.path(), text);
      EXPECT_EQ(DrainReader(file.path()), 0);
      EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
      EXPECT_THROW(RunStreaming(file.path()), util::CheckError);
      continue;
    }
    ExpectEveryConsumerRejects(text, "cut after line " + std::to_string(keep));
  }
  // A partially written last line (a writer killed mid-line): cut every
  // line in half and drop the rest.
  for (std::size_t cut = 0; cut < lines.size(); ++cut) {
    std::string text;
    for (std::size_t i = 0; i < cut; ++i) text += lines[i] + "\n";
    text += lines[cut].substr(0, lines[cut].size() / 2);
    ExpectEveryConsumerRejects(text, "cut inside line " + std::to_string(cut));
  }
}

TEST(TraceHostile, CorruptedVariants) {
  struct Variant {
    const char* what;
    const char* find;     // unique substring of kRecorded
    const char* replace;  // its corrupted stand-in
  };
  const Variant variants[] = {
      {"v1 header", "sdn-trace 2", "sdn-trace 1"},
      {"unknown version", "sdn-trace 2", "sdn-trace 3"},
      {"non-numeric version", "sdn-trace 2", "sdn-trace two"},
      {"negative node count", "nodes 5", "nodes -5"},
      {"negative keyframe period", "keyframe 3", "keyframe -3"},
      {"negative keyframe edge count", "round 1 full 4", "round 1 full -1"},
      {"negative delta count", "round 2 delta 1 1", "round 2 delta -1 1"},
      {"absurd keyframe edge count", "round 1 full 4",
       "round 1 full 9223372036854775807"},
      {"keyframe edge count above n(n-1)/2", "round 1 full 4",
       "round 1 full 11"},
      {"absurd delta counts", "round 2 delta 1 1",
       "round 2 delta 9223372036854775807 9223372036854775807"},
      {"delta count above n(n-1)/2", "round 2 delta 1 1",
       "round 2 delta 11 0"},
      {"out-of-range keyframe id", "3 4\nround 2", "3 5\nround 2"},
      {"negative keyframe id", "0 1\n1 2", "-1 1\n1 2"},
      {"out-of-range delta id", "+0 4\nround 6", "+0 7\nround 6"},
      {"id beyond NodeId", "+1 3", "+1 4294967296"},
      {"keyframe self-loop", "2 3\n3 4", "2 3\n3 3"},
      {"delta self-loop", "+1 3", "+3 3"},
      {"unsorted keyframe", "0 1\n1 2\n", "1 2\n0 1\n"},
      {"duplicate keyframe edge", "0 1\n1 2\n", "0 1\n0 1\n"},
      {"delta signs out of order", "+0 4\n-3 4", "-3 4\n+0 4"},
      {"unsigned delta line", "+1 3", "1 3"},
      {"delta adds and removes one edge", "+1 3\n-1 2", "+1 2\n-1 2"},
      {"round numbering gap", "round 3 delta", "round 9 delta"},
      {"missing keyframe", "round 4 full 4", "round 4 delta 0 4"},
      {"unexpected keyframe", "round 2 delta 1 1\n+0 4\n-3 4",
       "round 2 full 2\n0 4\n3 4"},
      {"unknown record kind", "round 5 delta", "round 5 patch"},
  };
  const std::string recorded = kRecorded;
  for (const Variant& v : variants) {
    const std::size_t at = recorded.find(v.find);
    ASSERT_NE(at, std::string::npos) << v.what;
    ASSERT_EQ(recorded.find(v.find, at + 1), std::string::npos) << v.what;
    std::string text = recorded;
    text.replace(at, std::string(v.find).size(), v.replace);
    ExpectEveryConsumerRejects(text, v.what);
  }
}

TEST(TraceHostile, V1HeaderErrorNamesTheVersion) {
  const TempFile file("v1.trace");
  WriteText(file.path(),
            "sdn-trace 1\nnodes 4 interval 1 rounds 1\nround 1 edges 0\n");
  try {
    (void)LoadTrace(file.path());
    FAIL() << "a v1 trace loaded";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(TraceHostile, DeltaThatDoesNotFitTheGraphRejected) {
  // Well-formed on its own, so the bare reader passes it through; the
  // replays hold the graph and must reject removing an absent edge or
  // adding a present one instead of desynchronizing.
  for (const char* delta : {"round 2 delta 0 1\n-2 3\n",
                            "round 2 delta 1 0\n+0 1\n"}) {
    SCOPED_TRACE(delta);
    const TempFile file("bad_delta.trace");
    WriteText(file.path(), std::string("sdn-trace 2\n"
                                       "nodes 4 interval 1 keyframe 64\n"
                                       "round 1 full 1\n0 1\n") +
                               delta);
    EXPECT_EQ(DrainReader(file.path()), 2);
    EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
    EXPECT_THROW(RunStreaming(file.path()), util::CheckError);
  }
}

}  // namespace
}  // namespace sdn::net
