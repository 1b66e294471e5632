#include "net/trace.hpp"

#include <sstream>

#include "util/check.hpp"

namespace sdn::net {

void SaveTrace(const std::string& path, std::span<const graph::Graph> rounds,
               int interval, TraceWriteOptions options) {
  SDN_CHECK(!rounds.empty());
  const graph::NodeId n = rounds.front().num_nodes();
  for (const graph::Graph& g : rounds) SDN_CHECK(g.num_nodes() == n);
  TraceRecorder recorder(path, n, interval, options.keyframe_every);
  for (const graph::Graph& g : rounds) recorder.Push(g);
  recorder.Close();
}

Trace LoadTrace(const std::string& path) {
  TraceStreamReader reader(path);
  Trace trace;
  trace.interval = reader.interval();
  // Rounds are reconstructed through the same incremental machinery the
  // engine runs on — DynGraph::Apply validates every delta against the
  // reconstructed state, so a corrupt delta line fails loudly instead of
  // silently desynchronizing the replay.
  graph::DynGraph dyn(reader.num_nodes());
  TraceStreamReader::Round record;
  while (reader.Next(record)) {
    if (record.keyframe) {
      dyn.Reset(graph::Graph(reader.num_nodes(), record.full));
    } else {
      dyn.Apply(record.delta);
    }
    trace.rounds.push_back(dyn.View());
  }
  SDN_CHECK_MSG(!trace.rounds.empty(), "empty trace " << path);
  return trace;
}

namespace {

/// Next non-comment, non-blank line.
bool NextLine(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

/// Parses "<u> <v>" into an edge of an n-node graph; CheckError on a
/// malformed line, an out-of-range id or a self-loop.
graph::Edge ParseEdge(const std::string& text, graph::NodeId n) {
  std::istringstream edge_line(text);
  graph::NodeId u = 0;
  graph::NodeId v = 0;
  edge_line >> u >> v;
  SDN_CHECK_MSG(!edge_line.fail(), "bad edge line: " << text);
  SDN_CHECK_MSG(u >= 0 && u < n && v >= 0 && v < n,
                "edge (" << u << "," << v << ") out of range for n=" << n);
  return graph::Edge(u, v);
}

}  // namespace

TraceStreamReader::TraceStreamReader(const std::string& path)
    : in_(path), path_(path) {
  SDN_CHECK_MSG(in_.good(), "cannot open " << path);
  SDN_CHECK_MSG(NextLine(in_, line_), "empty trace " << path);
  {
    std::istringstream header(line_);
    std::string magic;
    int version = 0;
    header >> magic >> version;
    SDN_CHECK_MSG(magic == "sdn-trace" && !header.fail(),
                  "bad trace header in " << path << ": " << line_);
    SDN_CHECK_MSG(version == 2, "unsupported trace version "
                                    << version << " in " << path
                                    << " (only sdn-trace 2 is readable)");
  }
  SDN_CHECK_MSG(NextLine(in_, line_), "missing trace size line in " << path);
  std::istringstream sizes(line_);
  std::string nodes_kw;
  std::string interval_kw;
  std::string keyframe_kw;
  sizes >> nodes_kw >> n_ >> interval_kw >> interval_ >> keyframe_kw >>
      keyframe_every_;
  SDN_CHECK_MSG(nodes_kw == "nodes" && interval_kw == "interval" &&
                    keyframe_kw == "keyframe" && !sizes.fail() && n_ >= 1 &&
                    interval_ >= 1 && keyframe_every_ >= 1,
                "bad trace size line: " << line_);
  max_edges_ = static_cast<std::int64_t>(n_) * (n_ - 1) / 2;
}

bool TraceStreamReader::Next(Round& out) {
  if (!NextLine(in_, line_)) return false;
  const std::int64_t r = ++rounds_;
  std::istringstream round_header(line_);
  std::string round_kw;
  std::string kind_kw;
  std::int64_t round_id = 0;
  round_header >> round_kw >> round_id >> kind_kw;
  SDN_CHECK_MSG(round_kw == "round" && !round_header.fail() && round_id == r,
                "bad round header: " << line_);
  const bool keyframe_due = (r - 1) % keyframe_every_ == 0;
  out.round = r;
  out.full.clear();
  out.delta.clear();
  // Counts come from the file, so each is checked against the n(n-1)/2
  // edges an n-node graph can hold before it drives a loop (which also
  // keeps added + removed from overflowing), and no buffer is sized from
  // one: the edge lines themselves grow the reused buffers.
  if (kind_kw == "full") {
    SDN_CHECK_MSG(keyframe_due, "unexpected keyframe at round " << r);
    std::int64_t edge_count = 0;
    round_header >> edge_count;
    SDN_CHECK_MSG(!round_header.fail() && edge_count >= 0 &&
                      edge_count <= max_edges_,
                  "bad round header: " << line_);
    out.keyframe = true;
    for (std::int64_t e = 0; e < edge_count; ++e) {
      SDN_CHECK_MSG(NextLine(in_, line_), "trace truncated in round " << r);
      const graph::Edge edge = ParseEdge(line_, n_);
      SDN_CHECK_MSG(out.full.empty() || out.full.back() < edge,
                    "keyframe edges not sorted and unique in round "
                        << r << ": " << line_);
      out.full.push_back(edge);
    }
  } else if (kind_kw == "delta") {
    SDN_CHECK_MSG(!keyframe_due, "missing keyframe at round " << r);
    std::int64_t added = 0;
    std::int64_t removed = 0;
    round_header >> added >> removed;
    SDN_CHECK_MSG(!round_header.fail() && added >= 0 && removed >= 0 &&
                      added <= max_edges_ && removed <= max_edges_,
                  "bad round header: " << line_);
    out.keyframe = false;
    for (std::int64_t e = 0; e < added + removed; ++e) {
      SDN_CHECK_MSG(NextLine(in_, line_), "trace truncated in round " << r);
      const std::size_t first = line_.find_first_not_of(" \t\r");
      const char sign = line_[first];
      SDN_CHECK_MSG(sign == '+' || sign == '-', "bad delta line: " << line_);
      SDN_CHECK_MSG(e < added ? sign == '+' : sign == '-',
                    "delta lines out of order: " << line_);
      (sign == '+' ? out.delta.added : out.delta.removed)
          .push_back(ParseEdge(line_.substr(first + 1), n_));
    }
    graph::CheckDeltaWellFormed(out.delta, n_);
  } else {
    SDN_CHECK_MSG(false, "bad round header: " << line_);
  }
  return true;
}

TraceRecorder::TraceRecorder(const std::string& path, graph::NodeId n,
                             int interval, std::int64_t keyframe_every)
    : out_(path), path_(path), n_(n), keyframe_every_(keyframe_every) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(interval >= 1);
  SDN_CHECK(keyframe_every >= 1);
  SDN_CHECK_MSG(out_.good(), "cannot open " << path << " for writing");
  out_ << "sdn-trace 2\n";
  out_ << "nodes " << n << " interval " << interval << " keyframe "
       << keyframe_every << "\n";
}

TraceRecorder::~TraceRecorder() {
  if (out_.is_open()) out_.close();
}

void TraceRecorder::Push(const graph::Graph& g) {
  graph::DiffSorted(prev_edges_, g.Edges(), scratch_);
  Push(g, scratch_);
}

void TraceRecorder::Push(const graph::Graph& g,
                         const graph::TopologyDelta& delta) {
  SDN_CHECK_MSG(out_.is_open(), "TraceRecorder already closed: " << path_);
  SDN_CHECK_MSG(g.num_nodes() == n_, "trace round has " << g.num_nodes()
                                                        << " nodes, expected "
                                                        << n_);
  const std::int64_t r = ++rounds_;
  if ((r - 1) % keyframe_every_ == 0) {
    const auto edges = g.Edges();
    out_ << "round " << r << " full " << edges.size() << "\n";
    for (const graph::Edge& e : edges) {
      out_ << e.u << " " << e.v << "\n";
    }
  } else {
    out_ << "round " << r << " delta " << delta.added.size() << " "
         << delta.removed.size() << "\n";
    for (const graph::Edge& e : delta.added) {
      out_ << "+" << e.u << " " << e.v << "\n";
    }
    for (const graph::Edge& e : delta.removed) {
      out_ << "-" << e.u << " " << e.v << "\n";
    }
  }
  prev_edges_.assign(g.Edges().begin(), g.Edges().end());
  SDN_CHECK_MSG(out_.good(), "write failed for " << path_);
}

void TraceRecorder::Close() {
  if (!out_.is_open()) return;
  out_.close();
  SDN_CHECK_MSG(!out_.fail(), "close failed for " << path_);
}

}  // namespace sdn::net
