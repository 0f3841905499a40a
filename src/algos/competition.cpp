#include "algos/competition.h"

#include <algorithm>

#include "sim/shard.h"
#include "support/check.h"

namespace fdlsp {

// fdlsp-lint: program
Competition::Competition(const ArcView& view, DistMisVariant variant,
                         std::uint64_t seed, std::size_t color_span,
                         std::span<const char> holders)
    : view_(view),
      flood_radius_(variant == DistMisVariant::kGbg ? 3 : 2),
      block_length_(2 * flood_radius_ + 1),
      color_bound_(std::max(view.num_arcs(), color_span)),
      colors_incident_(variant == DistMisVariant::kGbg),
      colors_(view, variant, holders) {
  const std::size_t n = view.graph().num_nodes();
  Rng seeder(seed);
  rng_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) rng_.emplace_back(seeder());
  own_block_.assign(n, 0);
  comp_value_.assign(n, 0);
  rivals_.resize(n);
  seen_.resize(n);
}

// fdlsp-lint: program
void Competition::prepare_shards(std::size_t shards) {
  FDLSP_REQUIRE(shards > 0, "shard count must be positive");
  if (shards == shards_.size()) return;
  FDLSP_REQUIRE(shards_.empty(),
                "competition state cannot be re-sharded once prepared");
  shards_.resize(shards);
  const Graph& graph = view_.graph();
  const ShardPlan plan{graph.num_nodes(), shards};
  for (std::size_t s = 0; s < shards; ++s) {
    ShardScratch& scratch = shards_[s];
    std::size_t arcs = 0;  // out-arcs of the shard's nodes
    for (std::size_t v = plan.lo(s); v < plan.hi(s); ++v)
      arcs += graph.degree(static_cast<NodeId>(v));
    scratch.assignments.reserve(colors_incident_ ? 2 * arcs : arcs);
    // The largest flood relayed or emitted is a win flood from a
    // degree-Δ origin: 3 header words + 2 per incident arc (≤ 2Δ arcs).
    scratch.relay_scratch.data.reserve(3 + 4 * graph.max_degree());
    scratch.win_scratch.data.reserve(3 + 4 * graph.max_degree());
  }
}

/// Joins the winners: greedily colors v's still-uncolored arcs with what v
/// has learned, floods the assignment and retires v in the store. A
/// neighbor's earlier win may already have colored some of v's arcs.
// fdlsp-lint: program
void Competition::win(NodeId v, SyncContext& ctx) {
  ShardScratch& scratch = shards_[ctx.shard()];
  Message& message = scratch.win_scratch;  // pre-sized by prepare_shards
  message.tag = kTagCompWin;
  message.data.clear();
  message.data.push_back(static_cast<std::int64_t>(v));
  message.data.push_back(static_cast<std::int64_t>(own_block_[v]));
  message.data.push_back(static_cast<std::int64_t>(flood_radius_));
  const auto color_arc = [&](ArcId a) {
    if (colors_.color(v, a) != kNoColor) return;
    const Color c = colors_.smallest_known_feasible(v, a, scratch.used_colors);
    colors_.learn(v, a, c);
    scratch.assignments.emplace_back(a, c);
    message.data.push_back(static_cast<std::int64_t>(a));
    message.data.push_back(static_cast<std::int64_t>(c));
  };
  if (colors_incident_) {
    view_.for_each_incident_arc(v, color_arc);
  } else {
    view_.for_each_out_arc(v, color_arc);
  }
  mark_seen(v, kTagCompWin, v, own_block_[v]);
  ctx.broadcast(message);
  colors_.retire(v);  // a retired node reads no color again
}

}  // namespace fdlsp
