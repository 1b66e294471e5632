#include "algo/hjswy.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace sdn::algo {

namespace {

constexpr std::uint64_t kFingerprintMask = (1ULL << 48) - 1;

std::uint64_t Mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0x100000001b3ULL;
  return h ^ (h >> 29);
}

double BitsToDouble(std::uint32_t bits) {
  return static_cast<double>(std::bit_cast<float>(bits));
}

/// acc[i] = min(acc[i], vals[i]) in the unsigned 32-bit domain, i < len.
void MinInto(std::uint32_t* acc, const std::uint32_t* vals, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) acc[i] = std::min(acc[i], vals[i]);
}

}  // namespace

HjswyProgram::HjswyProgram(NodeId id, Value input, HjswyOptions options,
                           util::Rng rng, SketchPool* pool)
    : options_(options),
      id_(id),
      sketch_(options.sketch_len, rng, pool, static_cast<std::size_t>(id),
              /*col_base=*/0),
      agg_min_id_(id),
      agg_min_value_(input),
      agg_max_value_(input) {
  SDN_CHECK(id >= 0);
  SDN_CHECK(options_.T >= 1);
  SDN_CHECK(options_.coords_per_msg >= 1 &&
            options_.coords_per_msg <= kMaxCoordsPerMsg);
  SDN_CHECK(options_.gamma > 0.0);
  SDN_CHECK(options_.beta > 0.0);
  SDN_CHECK(options_.initial_horizon >= 1);
  if (options_.exact_census) {
    census_.Insert(id);
    RefreshCensusSnapshot();
  }
  if (options_.track_sum) {
    const auto weight =
        input > 0 ? static_cast<std::uint64_t>(input) : std::uint64_t{0};
    sum_sketch_ = CardinalityEstimator::ForWeight(
        weight, options_.sketch_len, rng, pool, static_cast<std::size_t>(id),
        /*col_base=*/options_.sketch_len);
  }
}

std::int64_t HjswyProgram::DisseminationLength(std::int64_t horizon) const {
  return static_cast<std::int64_t>(
      std::ceil(options_.gamma *
                static_cast<double>(horizon + 2 * options_.T)));
}

std::int64_t HjswyProgram::SuffixLength(std::int64_t horizon) const {
  const double lg = std::log2(static_cast<double>(horizon + 2));
  return static_cast<std::int64_t>(
      std::ceil(options_.beta * (static_cast<double>(options_.T) + lg)));
}

HjswyProgram::Position HjswyProgram::Locate(Round r) const {
  SDN_CHECK(r >= 1);
  std::int64_t offset = r - 1;
  std::int64_t phase = 0;
  std::int64_t horizon = options_.initial_horizon;
  while (true) {
    const std::int64_t total =
        DisseminationLength(horizon) + SuffixLength(horizon);
    if (offset < total) {
      Position pos;
      pos.phase = phase;
      pos.horizon = horizon;
      pos.round_in_phase = offset;
      pos.in_suffix = offset >= DisseminationLength(horizon);
      pos.last_round_of_phase = (offset == total - 1);
      return pos;
    }
    offset -= total;
    ++phase;
    SDN_CHECK_MSG(horizon < (std::int64_t{1} << 50), "hjswy horizon overflow");
    horizon *= 2;
  }
}

HjswyProgram::Position HjswyProgram::LocateFast(Round r) const {
  SDN_CHECK(r >= 1);
  const std::int64_t offset = r - 1;
  if (cursor_.length == 0 || offset < cursor_.start) {
    // Uninitialized, or a backward query (tests): restart from phase 0.
    cursor_ = PhaseCursor{};
    cursor_.param = options_.initial_horizon;
    cursor_.aux = DisseminationLength(cursor_.param);
    cursor_.length = cursor_.aux + SuffixLength(cursor_.param);
  }
  while (offset >= cursor_.start + cursor_.length) {
    cursor_.start += cursor_.length;
    ++cursor_.phase;
    SDN_CHECK_MSG(cursor_.param < (std::int64_t{1} << 50),
                  "hjswy horizon overflow");
    cursor_.param *= 2;
    cursor_.aux = DisseminationLength(cursor_.param);
    cursor_.length = cursor_.aux + SuffixLength(cursor_.param);
  }
  Position pos;
  pos.phase = cursor_.phase;
  pos.horizon = cursor_.param;
  pos.round_in_phase = offset - cursor_.start;
  pos.in_suffix = pos.round_in_phase >= cursor_.aux;
  pos.last_round_of_phase = (pos.round_in_phase == cursor_.length - 1);
  return pos;
}

std::uint64_t HjswyProgram::StateFingerprint() const {
  if (fingerprint_cache_.has_value()) return *fingerprint_cache_;
  std::uint64_t h = sketch_.Fingerprint();
  if (sum_sketch_.has_value()) h = Mix(h, sum_sketch_->Fingerprint());
  h = Mix(h, static_cast<std::uint64_t>(agg_min_id_));
  h = Mix(h, static_cast<std::uint64_t>(agg_min_value_));
  h = Mix(h, static_cast<std::uint64_t>(agg_max_value_));
  if (options_.exact_census) h = Mix(h, census_.Hash());
  h &= kFingerprintMask;
  fingerprint_cache_ = h;
  return h;
}

double HjswyProgram::CachedEstimate() const {
  if (!estimate_cache_.has_value()) estimate_cache_ = sketch_.Estimate();
  return *estimate_cache_;
}

void HjswyProgram::RefreshCensusSnapshot() {
  census_snapshot_ = std::make_shared<const IdSet>(census_);
}

std::optional<HjswyProgram::Message> HjswyProgram::OnSend(Round r) {
  std::optional<Message> m(std::in_place);
  OnSendInto(r, *m);
  return m;
}

bool HjswyProgram::OnSendInto(Round r, Message& m) {
  // Decided nodes keep broadcasting their (final) state: laggards must still
  // converge to the same aggregates, and a decided region must not look like
  // a hole in the network.
  const Position pos = LocateFast(r);
  if (alarm_phase_ != pos.phase) {
    alarm_phase_ = pos.phase;
    alarm_ = false;
  }

  const int L = sketch_.size();
  const int c = std::min({options_.coords_per_msg, L, kMaxCoordsPerMsg});
  const int groups = (L + c - 1) / c;
  m.coord_base = static_cast<std::int32_t>((r % groups) * c);
  m.num_coords = 0;
  for (int i = 0; i < c && m.coord_base + i < L; ++i) {
    m.coords[static_cast<std::size_t>(m.num_coords++)] =
        sketch_.CoordBits(static_cast<std::size_t>(m.coord_base + i));
  }
  m.has_sum = sum_sketch_.has_value();
  if (m.has_sum) {
    for (int i = 0; i < m.num_coords; ++i) {
      m.sum_coords[static_cast<std::size_t>(i)] =
          sum_sketch_->CoordBits(static_cast<std::size_t>(m.coord_base + i));
    }
  }
  m.min_id = agg_min_id_;
  m.min_id_value = agg_min_value_;
  m.max_value = agg_max_value_;
  m.fingerprint = StateFingerprint();
  m.alarm = alarm_ && !decided_.has_value();
  if (options_.exact_census) {
    m.census = census_snapshot_;
  } else if (m.census != nullptr) {
    m.census.reset();
  }
  return true;
}

void HjswyProgram::OnReceive(Round r, Inbox<Message> inbox) {
  const Position pos = LocateFast(r);
  const std::uint64_t my_fingerprint = StateFingerprint();

  bool changed = false;
  bool neighbor_divergent = false;
  bool neighbor_alarm = false;
  bool census_changed = false;

  // Every sender follows the same rotation schedule, so all messages of one
  // round carry the same [coord_base, coord_base + num_coords) window.
  // Reduce the inbox columnwise to running minima first, then apply one
  // MergeBlockBits per sketch: k·c branchy MergeCoord calls become a tight k×c
  // selection loop plus one bounds-checked block merge. Min is selection
  // (never arithmetic), so the merged sketch is bit-identical to the
  // coordinate-at-a-time order. A message whose window disagrees with the
  // round's block (foreign options; never produced within one run) merges
  // coordinate by coordinate as before.
  // The running minima live in the float32 *bit* domain: every wire value is
  // a nonnegative float (Exp draws quantized to float, +inf for weight 0), and
  // for nonnegative IEEE floats value order coincides with unsigned order of
  // the bit patterns. That turns the per-message inner loop into a plain
  // unsigned min over the message's len lanes, which the compiler
  // vectorizes. It stops at len rather than running all kMaxCoordsPerMsg
  // lanes: coords lanes 6 and up sit in the message's second cache line.
  std::int32_t block_base = -1;
  std::int32_t block_len = 0;
  bool block_has_sum = false;
  constexpr std::uint32_t kInfBits = 0x7f800000u;  // float32 +infinity
  std::array<std::uint32_t, kMaxCoordsPerMsg> block_bits{};
  std::array<std::uint32_t, kMaxCoordsPerMsg> sum_block_bits{};

  for (const Message& m : inbox) {
    if (m.num_coords > 0) {
      if (block_base < 0) {
        block_base = m.coord_base;
        block_len = std::min(m.num_coords,
                             static_cast<std::int32_t>(kMaxCoordsPerMsg));
        std::fill_n(block_bits.data(), block_len, kInfBits);
        std::fill_n(sum_block_bits.data(), block_len, kInfBits);
      }
      if (m.coord_base == block_base && m.num_coords == block_len) {
        const auto len = static_cast<std::size_t>(block_len);
        MinInto(block_bits.data(), m.coords.data(), len);
        if (m.has_sum) {
          block_has_sum = true;
          MinInto(sum_block_bits.data(), m.sum_coords.data(), len);
        }
      } else {
        for (std::size_t i = 0; i < static_cast<std::size_t>(m.num_coords);
             ++i) {
          const auto idx = static_cast<std::size_t>(m.coord_base) + i;
          if (idx < static_cast<std::size_t>(sketch_.size())) {
            if (sketch_.MergeCoord(idx, BitsToDouble(m.coords[i]))) {
              changed = true;
              ++obs_phase_.work;
            }
            if (m.has_sum && sum_sketch_.has_value() &&
                sum_sketch_->MergeCoord(idx, BitsToDouble(m.sum_coords[i]))) {
              changed = true;
              ++obs_phase_.work;
            }
          }
        }
      }
    }
    if (m.min_id < agg_min_id_) {
      agg_min_id_ = m.min_id;
      agg_min_value_ = m.min_id_value;
      changed = true;
    }
    if (m.max_value > agg_max_value_) {
      agg_max_value_ = m.max_value;
      changed = true;
    }
    if (options_.exact_census && m.census != nullptr &&
        m.census.get() != &census_) {
      census_changed |= census_.UnionWith(*m.census);
    }
    if (m.fingerprint != my_fingerprint) neighbor_divergent = true;
    if (m.alarm) neighbor_alarm = true;
  }
  if (block_base >= 0 &&
      block_base < static_cast<std::int32_t>(sketch_.size())) {
    const auto len = static_cast<std::size_t>(std::min<std::int32_t>(
        block_len, static_cast<std::int32_t>(sketch_.size()) - block_base));
    const auto base = static_cast<std::size_t>(block_base);
    // The reduced block stays in the wire's float32 bit domain: the
    // estimator merges it bits-native against its float32 store.
    if (sketch_.MergeBlockBits(base, block_bits.data(), len)) {
      changed = true;
      ++obs_phase_.work;
    }
    if (block_has_sum && sum_sketch_.has_value()) {
      if (sum_sketch_->MergeBlockBits(base, sum_block_bits.data(), len)) {
        changed = true;
        ++obs_phase_.work;
      }
    }
  }
  changed |= census_changed;
  if (census_changed) RefreshCensusSnapshot();
  if (changed) {
    fingerprint_cache_.reset();
    estimate_cache_.reset();
  }

  if (decided_.has_value()) return;

  obs_phase_.label = pos.in_suffix ? "suffix" : "disseminate";
  obs_phase_.index = pos.phase;

  if (pos.in_suffix && (changed || neighbor_divergent || neighbor_alarm)) {
    alarm_ = true;
  }

  if (pos.last_round_of_phase && !alarm_) {
    const double estimate = CachedEstimate();
    if (options_.strict &&
        static_cast<double>(pos.horizon) < options_.strict_mult * estimate) {
      return;  // strict mode: horizon not yet provably sufficient
    }
    HjswyOutput out;
    out.count_estimate = estimate;
    if (sum_sketch_.has_value()) out.sum_estimate = sum_sketch_->Estimate();
    out.count = options_.exact_census ? census_.size()
                                      : std::llround(estimate);
    out.max_value = agg_max_value_;
    out.consensus_value = agg_min_value_;
    out.accepted_phase = pos.phase;
    out.accepted_horizon = pos.horizon;
    decided_ = out;
    obs_phase_.label = "decided";
  }
}

double HjswyProgram::PublicState() const {
  return options_.exact_census ? static_cast<double>(census_.size())
                               : CachedEstimate();
}

std::size_t HjswyProgram::MessageBits(const Message& m) {
  std::size_t bits = util::VarintBits(static_cast<std::uint64_t>(m.coord_base));
  bits += static_cast<std::size_t>(m.num_coords) * 32;
  bits += 1;  // has_sum flag
  if (m.has_sum) bits += static_cast<std::size_t>(m.num_coords) * 32;
  bits += IdBits(m.min_id) + ValueBits(m.min_id_value) +
          ValueBits(m.max_value);
  bits += 48 + 1;  // fingerprint + alarm
  if (m.census != nullptr) bits += m.census->EncodedBits();
  return bits;
}

AlgoInfo HjswyProgram::InfoFor(const HjswyOptions& options) {
  std::ostringstream os;
  os << "hjswy(T=" << options.T
     << (options.exact_census ? ",census" : ",estimate")
     << (options.strict ? ",strict" : "") << ")";
  return {os.str(), /*randomized=*/true, /*needs_n=*/false,
          /*unbounded_msgs=*/options.exact_census};
}

}  // namespace sdn::algo
