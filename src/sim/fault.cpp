#include "sim/fault.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

// Distinct stream tags keep the per-channel, per-node and per-edge hash
// streams independent even when ids collide numerically.
constexpr std::uint64_t kStreamChannel = 0x11;
constexpr std::uint64_t kStreamCrash = 0x22;
constexpr std::uint64_t kStreamLink = 0x33;
constexpr std::uint64_t kStreamCorrupt = 0x44;
constexpr std::uint64_t kStreamBurst = 0x55;
constexpr std::uint64_t kStreamBurstLoss = 0x66;
constexpr std::uint64_t kStreamPrr = 0x77;
constexpr std::uint64_t kStreamPrrLoss = 0x88;
constexpr std::uint64_t kStreamRegion = 0x99;
constexpr std::uint64_t kStreamVirtualPos = 0xaa;

/// One (seed, stream) hash stream: index -> 64 uniform bits. The half that
/// depends only on the stream is mixed once, at construction, so a walk
/// over many indices pays one splitmix64 per index.
class FaultStream {
 public:
  static constexpr std::uint64_t kIndexMul = 0xbf58476d1ce4e5b9ULL;

  FaultStream(std::uint64_t seed, std::uint64_t stream)
      : state_(seed ^ (stream * 0x9e3779b97f4a7c15ULL)),
        salt_(splitmix64(state_)) {}

  std::uint64_t operator()(std::uint64_t index) const noexcept {
    return at_product(index * kIndexMul);
  }

  /// The hash of the index whose product with kIndexMul is `product`, so
  /// a scan can step the product instead of multiplying per index.
  std::uint64_t at_product(std::uint64_t product) const noexcept {
    std::uint64_t s = state_ ^ product;
    return splitmix64(s) ^ salt_;
  }

 private:
  std::uint64_t state_;  // seed ^ stream mix, advanced past the salt draw
  std::uint64_t salt_;
};

/// Stateless mix of (seed, stream, index) -> 64 uniform bits.
std::uint64_t fault_hash(std::uint64_t seed, std::uint64_t stream,
                         std::uint64_t index) {
  return FaultStream(seed, stream)(index);
}

/// The hash mapped into [0, 1).
double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

/// unit_interval(h) < rate compares (h >> 11) * 2^-53 with rate, both exact,
/// so it holds iff h >> 11 < ceil(rate * 2^53), i.e. iff h is below that
/// bound shifted back by 11 bits. A rate below 1 has a bound under 2^53,
/// so the shift cannot overflow; rates at or past 1 pass everything and
/// rates at or below 0 nothing.
FaultPlan::HashCut FaultPlan::HashCut::of(double rate) {
  HashCut cut;
  if (rate >= 1.0) {
    cut.all = true;
  } else if (rate > 0.0) {
    cut.below = static_cast<std::uint64_t>(std::ceil(rate * 0x1.0p53)) << 11;
  }
  return cut;
}

FaultPlan::FaultPlan(const FaultSpec& spec, const Graph& graph,
                     const std::vector<Point>* positions)
    : spec_(spec),
      crash_time_(graph.num_nodes(), -1.0),
      link_down_start_(graph.num_edges(), -1.0),
      posts_(2 * graph.num_edges(), 0),
      losses_(2 * graph.num_edges(), 0) {
  FDLSP_REQUIRE(
      spec_.drop_rate + spec_.duplicate_rate + spec_.corrupt_rate <= 1.0,
      "channel fault rates must sum to at most 1");
  FDLSP_REQUIRE(spec_.burst_rate >= 0.0 && spec_.burst_rate <= 1.0 &&
                    spec_.burst_recover >= 0.0 && spec_.burst_recover <= 1.0 &&
                    spec_.burst_loss >= 0.0 && spec_.burst_loss <= 1.0,
                "burst probabilities must lie in [0, 1]");
  if (spec_.burst_rate > 0.0)
    FDLSP_REQUIRE(spec_.burst_max_run >= 1,
                  "burst runs must be at least one step long");
  for (double prr : spec_.prr_levels)
    FDLSP_REQUIRE(prr > 0.0 && prr <= 1.0, "PRR levels must lie in (0, 1]");
  FDLSP_REQUIRE(spec_.region_count <= 64,
                "at most 64 region outage discs are supported");
  if (spec_.crash_fraction > 0.0) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const std::uint64_t pick = fault_hash(spec_.seed, kStreamCrash, v);
      if (unit_interval(pick) < spec_.crash_fraction) {
        const std::uint64_t when =
            fault_hash(spec_.seed, kStreamCrash, v ^ 0x8000000000000000ULL);
        crash_time_[v] = unit_interval(when) * spec_.crash_horizon;
      }
    }
  }
  if (spec_.link_down_fraction > 0.0) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const std::uint64_t pick = fault_hash(spec_.seed, kStreamLink, e);
      if (unit_interval(pick) < spec_.link_down_fraction) {
        const std::uint64_t when =
            fault_hash(spec_.seed, kStreamLink, e ^ 0x8000000000000000ULL);
        link_down_start_[e] = unit_interval(when) * spec_.link_down_horizon;
      }
    }
  }
  if (spec_.burst_rate > 0.0) {
    burst_state_.assign(graph.num_edges(), 0);
    burst_step_.assign(graph.num_edges(), -1);
    burst_run_.assign(graph.num_edges(), 0);
    burst_drops_.assign(graph.num_edges(), 0);
    burst_onset_ = HashCut::of(spec_.burst_rate);
    burst_recover_ = HashCut::of(spec_.burst_recover);
  }
  if (!spec_.prr_levels.empty()) {
    prr_level_.resize(graph.num_edges());
    for (EdgeId e = 0; e < graph.num_edges(); ++e)
      prr_level_[e] = static_cast<std::uint32_t>(
          fault_hash(spec_.seed, kStreamPrr, e) % spec_.prr_levels.size());
  }
  if (spec_.region_count > 0) {
    // Disc centers and window starts are hashed like every other schedule;
    // membership is precomputed into a per-edge bitmask so the hot-path
    // query touches no geometry.
    region_start_.resize(spec_.region_count);
    std::vector<Point> centers(spec_.region_count);
    for (std::uint64_t r = 0; r < spec_.region_count; ++r) {
      centers[r].x = unit_interval(fault_hash(spec_.seed, kStreamRegion, 2 * r));
      centers[r].y =
          unit_interval(fault_hash(spec_.seed, kStreamRegion, 2 * r + 1));
      region_start_[r] =
          unit_interval(fault_hash(spec_.seed, kStreamRegion,
                                   r ^ 0x8000000000000000ULL)) *
          spec_.region_horizon;
    }
    const bool real = positions != nullptr &&
                      positions->size() == graph.num_nodes();
    const auto node_pos = [&](NodeId v) -> Point {
      if (real) return (*positions)[v];
      return Point{
          unit_interval(fault_hash(spec_.seed, kStreamVirtualPos, 2 * v)),
          unit_interval(fault_hash(spec_.seed, kStreamVirtualPos, 2 * v + 1))};
    };
    region_mask_.assign(graph.num_edges(), 0);
    const double radius_sq = spec_.region_radius * spec_.region_radius;
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const Edge& edge = graph.edge(e);
      const Point pu = node_pos(edge.u);
      const Point pv = node_pos(edge.v);
      for (std::uint64_t r = 0; r < spec_.region_count; ++r) {
        if (distance_sq(pu, centers[r]) <= radius_sq ||
            distance_sq(pv, centers[r]) <= radius_sq)
          region_mask_[e] |= 1ULL << r;
      }
    }
  }
}

// fdlsp-lint: hot — per-message fault decision, no allocator traffic
bool FaultPlan::burst_bad(EdgeId edge, double now) {
  if (burst_drops_[edge] >= spec_.burst_cap) return false;  // pinned good
  const auto step = static_cast<std::int64_t>(now);
  std::int64_t s = burst_step_[edge];
  bool bad = burst_state_[edge] != 0;
  // Engines query with nondecreasing `now`; a same-step query returns the
  // already-advanced state without touching the hash stream again.
  if (step <= s) return bad;
  std::uint32_t run = burst_run_[edge];
  const FaultStream stream(
      spec_.seed, kStreamBurst + (static_cast<std::uint64_t>(edge) << 8));
  while (s < step) {
    if (bad) {
      ++s;
      ++run;
      if (run >= spec_.burst_max_run ||
          burst_recover_.passes(stream(static_cast<std::uint64_t>(s))))
        bad = false;
    } else if (burst_onset_.all) {
      ++s;
      bad = true;
      run = 0;
    } else {
      // Good steps only test for the onset: one hash and one compare per
      // step, the index product stepped instead of recomputed.
      std::uint64_t product =
          static_cast<std::uint64_t>(s + 1) * FaultStream::kIndexMul;
      while (s < step) {
        ++s;
        if (stream.at_product(product) < burst_onset_.below) {
          bad = true;
          run = 0;
          break;
        }
        product += FaultStream::kIndexMul;
      }
    }
  }
  burst_step_[edge] = step;
  burst_state_[edge] = bad ? 1 : 0;
  burst_run_[edge] = run;
  return bad;
}

// fdlsp-lint: hot — per-message fault decision, no allocator traffic
FaultDecision FaultPlan::on_post(ArcId channel, NodeId from, NodeId to,
                                 double now) {
  // A crashed sender never runs, but a send from the crash round or
  // instant itself is possible; treat both endpoints dead.
  if (node_down(from, now) || node_down(to, now)) {
    ++stats_.crash_drops;
    return {FaultAction::kDrop, 0};
  }
  if (link_down(channel, now)) {
    ++stats_.link_down_drops;
    return {FaultAction::kDrop, 0};
  }
  if (region_down(channel, now)) {
    ++stats_.region_drops;
    return {FaultAction::kDrop, 0};
  }
  const std::uint64_t index = posts_[channel]++;
  return {channel_action(channel, index, now), index};
}

// fdlsp-lint: hot — per-message fault decision, no allocator traffic
FaultAction FaultPlan::channel_action(ArcId channel,
                                      std::uint64_t message_index,
                                      double now) {
  const EdgeId edge = channel >> 1;
  if (spec_.burst_rate > 0.0 && burst_bad(edge, now)) {
    const double u = unit_interval(fault_hash(
        spec_.seed,
        kStreamBurstLoss + (static_cast<std::uint64_t>(channel) << 8),
        message_index));
    if (u < spec_.burst_loss) {
      ++burst_drops_[edge];
      ++stats_.burst_dropped;
      return FaultAction::kDrop;
    }
  }
  if (!spec_.prr_levels.empty() &&
      losses_[channel] < spec_.max_losses_per_channel) {
    const double prr = spec_.prr_levels[prr_level_[edge]];
    const double u = unit_interval(fault_hash(
        spec_.seed, kStreamPrrLoss + (static_cast<std::uint64_t>(channel) << 8),
        message_index));
    if (u >= prr) {
      ++losses_[channel];
      ++stats_.prr_dropped;
      return FaultAction::kDrop;
    }
  }
  if (spec_.drop_rate <= 0.0 && spec_.duplicate_rate <= 0.0 &&
      spec_.corrupt_rate <= 0.0)
    return FaultAction::kDeliver;
  const double u = unit_interval(fault_hash(
      spec_.seed, kStreamChannel + (static_cast<std::uint64_t>(channel) << 8),
      message_index));
  if (u < spec_.drop_rate) {
    if (losses_[channel] >= spec_.max_losses_per_channel)
      return FaultAction::kDeliver;
    ++losses_[channel];
    ++stats_.dropped;
    return FaultAction::kDrop;
  }
  if (u < spec_.drop_rate + spec_.duplicate_rate) {
    ++stats_.duplicated;
    return FaultAction::kDuplicate;
  }
  if (u < spec_.drop_rate + spec_.duplicate_rate + spec_.corrupt_rate) {
    if (losses_[channel] >= spec_.max_losses_per_channel)
      return FaultAction::kDeliver;
    ++losses_[channel];
    ++stats_.corrupted;
    return FaultAction::kCorrupt;
  }
  return FaultAction::kDeliver;
}

void FaultPlan::corrupt_payload(ArcId channel, std::uint64_t message_index,
                                Message& message) const {
  const std::uint64_t h = fault_hash(
      spec_.seed, kStreamCorrupt + (static_cast<std::uint64_t>(channel) << 8),
      message_index);
  // Never XOR with 0: the flip must be observable.
  const std::uint64_t flip = h | 1;
  if (message.data.empty()) {
    message.tag ^= static_cast<std::int32_t>(flip & 0x7fffffff);
    if (message.tag == 0) message.tag = 1;  // keep the flip observable
    return;
  }
  const std::size_t word = static_cast<std::size_t>(
      (h >> 32) % static_cast<std::uint64_t>(message.data.size()));
  message.data[word] ^= static_cast<std::int64_t>(flip & 0x7fffffffffffffffULL);
}

std::vector<NodeId> FaultPlan::crashed_nodes() const {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < crash_time_.size(); ++v)
    if (crash_time_[v] >= 0.0) nodes.push_back(v);
  return nodes;
}

std::vector<EdgeId> FaultPlan::churned_edges() const {
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e < link_down_start_.size(); ++e)
    if (link_down_start_[e] >= 0.0) edges.push_back(e);
  return edges;
}

std::vector<EdgeId> FaultPlan::region_edges() const {
  std::vector<EdgeId> edges;
  for (EdgeId e = 0; e < region_mask_.size(); ++e)
    if (region_mask_[e] != 0) edges.push_back(e);
  return edges;
}

namespace {

/// Strict numeric parsers: the whole value must be consumed, so repro
/// strings with typos ("drop=0.1x", "cap=") fail loudly instead of silently
/// injecting a different fault model.
double parse_strict_double(const std::string& key, const std::string& value) {
  FDLSP_REQUIRE(!value.empty(), "empty value for fault spec key: " + key);
  char* end = nullptr;
  const double number = std::strtod(value.c_str(), &end);
  FDLSP_REQUIRE(end == value.c_str() + value.size(),
                "malformed number for fault spec key: " + key + "=" + value);
  return number;
}

std::uint64_t parse_strict_count(const std::string& key,
                                 const std::string& value) {
  FDLSP_REQUIRE(!value.empty(), "empty value for fault spec key: " + key);
  // strtoull silently wraps negative input; counts must start with a digit.
  FDLSP_REQUIRE(value[0] >= '0' && value[0] <= '9',
                "malformed count for fault spec key: " + key + "=" + value);
  char* end = nullptr;
  const std::uint64_t number = std::strtoull(value.c_str(), &end, 10);
  FDLSP_REQUIRE(end == value.c_str() + value.size(),
                "malformed count for fault spec key: " + key + "=" + value);
  return number;
}

std::vector<double> parse_prr_levels(const std::string& value) {
  std::vector<double> levels;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t colon = value.find(':', pos);
    if (colon == std::string::npos) colon = value.size();
    levels.push_back(
        parse_strict_double("prr", value.substr(pos, colon - pos)));
    pos = colon + 1;
  }
  return levels;
}

}  // namespace

std::string format_fault_spec(const FaultSpec& spec) {
  const FaultSpec defaults;
  std::string out;
  const auto add = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ",";
    out += key;
    out += "=";
    out += value;
  };
  const auto rate_text = [](double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4g", value);
    return std::string(buffer);
  };
  const auto add_rate = [&add, &rate_text](const char* key, double value) {
    add(key, rate_text(value));
  };
  if (spec.seed != defaults.seed) add("fseed", std::to_string(spec.seed));
  if (spec.drop_rate != defaults.drop_rate) add_rate("drop", spec.drop_rate);
  if (spec.duplicate_rate != defaults.duplicate_rate)
    add_rate("dup", spec.duplicate_rate);
  if (spec.corrupt_rate != defaults.corrupt_rate)
    add_rate("corrupt", spec.corrupt_rate);
  if (spec.max_losses_per_channel != defaults.max_losses_per_channel)
    add("cap", std::to_string(spec.max_losses_per_channel));
  if (spec.burst_rate != defaults.burst_rate) add_rate("bp", spec.burst_rate);
  if (spec.burst_recover != defaults.burst_recover)
    add_rate("bq", spec.burst_recover);
  if (spec.burst_loss != defaults.burst_loss)
    add_rate("bloss", spec.burst_loss);
  if (spec.burst_max_run != defaults.burst_max_run)
    add("bmax", std::to_string(spec.burst_max_run));
  if (spec.burst_cap != defaults.burst_cap)
    add("bcap", std::to_string(spec.burst_cap));
  if (!spec.prr_levels.empty()) {
    std::string joined;
    for (double level : spec.prr_levels) {
      if (!joined.empty()) joined += ":";
      joined += rate_text(level);
    }
    add("prr", joined);
  }
  if (spec.region_count != defaults.region_count)
    add("regions", std::to_string(spec.region_count));
  if (spec.region_radius != defaults.region_radius)
    add_rate("regionr", spec.region_radius);
  if (spec.region_horizon != defaults.region_horizon)
    add_rate("regionh", spec.region_horizon);
  if (spec.region_duration != defaults.region_duration)
    add_rate("regiond", spec.region_duration);
  if (spec.crash_fraction != defaults.crash_fraction)
    add_rate("crash", spec.crash_fraction);
  if (spec.crash_horizon != defaults.crash_horizon)
    add_rate("crashh", spec.crash_horizon);
  if (spec.link_down_fraction != defaults.link_down_fraction)
    add_rate("link", spec.link_down_fraction);
  if (spec.link_down_horizon != defaults.link_down_horizon)
    add_rate("linkh", spec.link_down_horizon);
  if (spec.link_down_duration != defaults.link_down_duration)
    add_rate("linkd", spec.link_down_duration);
  return out.empty() ? "none" : out;
}

FaultSpec parse_fault_spec(const std::string& text) {
  FaultSpec spec;
  if (text.empty() || text == "none") return spec;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = pair.find('=');
    FDLSP_REQUIRE(eq != std::string::npos,
                  "fault spec entries must be key=value: " + pair);
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "fseed") {
      spec.seed = parse_strict_count(key, value);
    } else if (key == "cap") {
      spec.max_losses_per_channel = parse_strict_count(key, value);
    } else if (key == "bmax") {
      spec.burst_max_run = parse_strict_count(key, value);
    } else if (key == "bcap") {
      spec.burst_cap = parse_strict_count(key, value);
    } else if (key == "regions") {
      spec.region_count = parse_strict_count(key, value);
    } else if (key == "prr") {
      spec.prr_levels = parse_prr_levels(value);
    } else {
      const double number = parse_strict_double(key, value);
      if (key == "drop") {
        spec.drop_rate = number;
      } else if (key == "dup") {
        spec.duplicate_rate = number;
      } else if (key == "corrupt") {
        spec.corrupt_rate = number;
      } else if (key == "bp") {
        spec.burst_rate = number;
      } else if (key == "bq") {
        spec.burst_recover = number;
      } else if (key == "bloss") {
        spec.burst_loss = number;
      } else if (key == "regionr") {
        spec.region_radius = number;
      } else if (key == "regionh") {
        spec.region_horizon = number;
      } else if (key == "regiond") {
        spec.region_duration = number;
      } else if (key == "crash") {
        spec.crash_fraction = number;
      } else if (key == "crashh") {
        spec.crash_horizon = number;
      } else if (key == "link") {
        spec.link_down_fraction = number;
      } else if (key == "linkh") {
        spec.link_down_horizon = number;
      } else if (key == "linkd") {
        spec.link_down_duration = number;
      } else {
        FDLSP_REQUIRE(false, "unknown fault spec key: " + key);
      }
    }
  }
  return spec;
}

std::vector<double> load_prr_levels(const std::string& path) {
  std::ifstream in(path);
  FDLSP_REQUIRE(in.good(), "cannot open PRR trace file: " + path);
  std::vector<double> levels;
  std::string token;
  while (in >> token)
    levels.push_back(parse_strict_double("prr trace entry", token));
  FDLSP_REQUIRE(!levels.empty(), "PRR trace file has no levels: " + path);
  for (double level : levels)
    FDLSP_REQUIRE(level > 0.0 && level <= 1.0,
                  "PRR trace levels must lie in (0, 1]: " + path);
  return levels;
}

}  // namespace fdlsp
