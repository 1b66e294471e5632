#include "adversary/streaming_trace.hpp"

#include <algorithm>
#include <sstream>

#include "graph/delta.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

StreamingTraceAdversary::StreamingTraceAdversary(const std::string& path,
                                                 util::MemoryBudget* budget)
    : reader_(path) {
  if (budget != nullptr) gauge_ = budget->Get("trace_stream");
}

graph::NodeId StreamingTraceAdversary::num_nodes() const {
  return reader_.num_nodes();
}

int StreamingTraceAdversary::interval() const { return reader_.interval(); }

graph::Graph StreamingTraceAdversary::TopologyFor(std::int64_t,
                                                  const net::AdversaryView&) {
  SDN_CHECK_MSG(false,
                "StreamingTraceAdversary is delta-native: TopologyFor would "
                "materialize the round; drive it through DeltaFor");
  return graph::Graph(reader_.num_nodes());  // unreachable
}

void StreamingTraceAdversary::DeltaFor(std::int64_t round,
                                       const net::AdversaryView&,
                                       const graph::Graph& prev,
                                       graph::TopologyDelta& out) {
  SDN_CHECK_MSG(round == served_ + 1,
                "streaming replay requires sequential rounds: got "
                    << round << " after " << served_);
  served_ = round;
  if (exhausted_ || !reader_.Next(record_)) {
    SDN_CHECK_MSG(round > 1, "streaming replay of an empty trace");
    exhausted_ = true;
    out.clear();  // past the recording: the final topology repeats
    return;
  }
  if (record_.keyframe) {
    graph::DiffSorted(prev.Edges(), record_.full, out);
    live_edges_ = static_cast<std::int64_t>(record_.full.size());
  } else {
    out.added.swap(record_.delta.added);
    out.removed.swap(record_.delta.removed);
    live_edges_ += static_cast<std::int64_t>(out.added.size()) -
                   static_cast<std::int64_t>(out.removed.size());
  }
  max_round_edges_ = std::max(max_round_edges_, live_edges_);
  if (gauge_ != nullptr) {
    const auto bytes = static_cast<std::int64_t>(
        (record_.full.capacity() + record_.delta.added.capacity() +
         record_.delta.removed.capacity() + out.added.capacity() +
         out.removed.capacity()) *
        sizeof(graph::Edge));
    gauge_->SetCurrent(bytes);
  }
}

std::string StreamingTraceAdversary::name() const {
  std::ostringstream os;
  os << "streaming-trace[n=" << reader_.num_nodes() << "]";
  return os.str();
}

}  // namespace sdn::adversary
