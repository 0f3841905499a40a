#include "verify/scenario.h"

#include <cmath>
#include <cstdio>

#include "graph/generators.h"
#include "support/check.h"
#include "support/cli.h"
#include "support/rng.h"

namespace fdlsp {

std::string family_name(GraphFamily family) {
  switch (family) {
    case GraphFamily::kUdg:
      return "udg";
    case GraphFamily::kGnm:
      return "gnm";
    case GraphFamily::kTree:
      return "tree";
    case GraphFamily::kGrid:
      return "grid";
    case GraphFamily::kRing:
      return "ring";
    case GraphFamily::kStar:
      return "star";
  }
  FDLSP_REQUIRE(false, "unknown graph family");
  return {};
}

Graph materialize(const Scenario& scenario) {
  if (!scenario.explicit_edges.empty() || scenario.explicit_n > 0) {
    GraphBuilder builder(scenario.explicit_n);
    for (const Edge& e : scenario.explicit_edges) builder.add_edge(e.u, e.v);
    return builder.build();
  }
  FDLSP_REQUIRE(scenario.n > 0, "scenario must have nodes");
  Rng rng(scenario.seed);
  switch (scenario.family) {
    case GraphFamily::kUdg: {
      // Fixed 4×4 field; the density knob sweeps the radius from barely
      // connected dust to near-complete neighborhoods.
      const double radius = 0.4 + 1.6 * scenario.density;
      return generate_udg(scenario.n, 4.0, radius, rng).graph;
    }
    case GraphFamily::kGnm: {
      const std::size_t max_edges = scenario.n * (scenario.n - 1) / 2;
      const auto m = static_cast<std::size_t>(
          std::floor(scenario.density * static_cast<double>(max_edges)));
      return generate_gnm(scenario.n, m, rng);
    }
    case GraphFamily::kTree:
      return generate_random_tree(scenario.n, rng);
    case GraphFamily::kGrid: {
      // rows*cols closest to n with a roughly square aspect.
      auto rows = static_cast<std::size_t>(
          std::sqrt(static_cast<double>(scenario.n)));
      if (rows == 0) rows = 1;
      const std::size_t cols = (scenario.n + rows - 1) / rows;
      return generate_grid(rows, cols);
    }
    case GraphFamily::kRing:
      // generate_cycle needs n >= 3; below that fall back to a path.
      return scenario.n >= 3 ? generate_cycle(scenario.n)
                             : generate_path(scenario.n);
    case GraphFamily::kStar:
      return generate_star(scenario.n);
  }
  FDLSP_REQUIRE(false, "unknown graph family");
  return Graph(0);
}

Scenario scenario_from_graph(const Graph& graph) {
  Scenario scenario;
  scenario.explicit_n = graph.num_nodes();
  scenario.explicit_edges.assign(graph.edges().begin(), graph.edges().end());
  return scenario;
}

std::string repro_command(const Scenario& scenario,
                          const std::string& algorithm) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "--family=%s --n=%zu --density=%.2f --seed=%llu "
                "--scheduler=%s",
                family_name(scenario.family).c_str(), scenario.n,
                scenario.density,
                static_cast<unsigned long long>(scenario.seed),
                algorithm.c_str());
  return buffer;
}

std::string format_graph(const Graph& graph) {
  std::string out = "n=" + std::to_string(graph.num_nodes()) + " edges=[";
  bool first = true;
  for (const Edge& e : graph.edges()) {
    if (!first) out += ",";
    first = false;
    out += "(" + std::to_string(e.u) + "," + std::to_string(e.v) + ")";
  }
  out += "]";
  return out;
}

std::vector<Scenario> sample_scenarios(std::size_t count, std::uint64_t seed,
                                       std::size_t max_n) {
  FDLSP_REQUIRE(max_n >= 4, "scenarios need at least 4 nodes of headroom");
  std::vector<Scenario> scenarios;
  scenarios.reserve(count);
  Rng rng(seed);
  constexpr std::size_t kNumFamilies =
      sizeof(kAllFamilies) / sizeof(kAllFamilies[0]);
  for (std::size_t i = 0; i < count; ++i) {
    Scenario s;
    s.family = kAllFamilies[i % kNumFamilies];
    s.n = 4 + rng.next_index(max_n - 3);
    // Sweep sparse to dense; quadratic skew keeps most instances sparse,
    // where the distributed algorithms do interesting work.
    const double u = rng.next_double();
    s.density = 0.05 + 0.95 * u * u;
    s.seed = rng();
    scenarios.push_back(s);
  }
  return scenarios;
}

void require_replay_flags(const CliArgs& args) {
  args.require_known(kReplayFlags);
  if (args.has("faults")) return;
  for (const char* flag : {"reliable", "prr-trace", "shards"}) {
    const std::string name = flag;
    FDLSP_REQUIRE(!args.has(name),
                  "--" + name + " needs --faults; replay ignores it otherwise");
  }
}

}  // namespace fdlsp
