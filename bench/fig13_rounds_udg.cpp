// Figure 13: DistMIS communication rounds on UDGs as the number of edges
// grows, for fixed node counts 100 / 200 / 300. The paper varies density by
// changing the plan side; we sweep sides {20, 17, 15, 12, 10} per node
// count and report mean edges, rounds and messages per point — the series'
// shape (rounds ≪ n, growing mildly with density) is the figure's claim.
#include <iostream>
#include <string>

#include "bench_common.h"
#include "exp/report.h"

int main(int argc, char** argv) {
  using namespace fdlsp;
  using namespace fdlsp::bench;
  const FigureConfig config =
      parse_figure_args(argc, argv, {SchedulerKind::kDistMisGbg});
  ThreadPool pool(config.threads);

  std::cout << "== Figure 13: distMIS rounds on UDG (varying density) ==\n";
  for (std::size_t nodes : {100u, 200u, 300u}) {
    TextTable table({"side", "edges", "avg-degree", "rounds", "messages"});
    for (double side : {20.0, 17.0, 15.0, 12.0, 10.0}) {
      PointResult point = run_udg_point(
          UdgPoint{nodes, side * kUdgUnitLength, 0.5}, config.sweep, pool);
      const auto& agg = point.algorithms.at(SchedulerKind::kDistMisGbg);
      const double edges =
          point.avg_degree.mean() * static_cast<double>(nodes) / 2.0;
      table.add_row({fmt_double(side, 0), fmt_double(edges, 1),
                     fmt_double(point.avg_degree.mean(), 2),
                     fmt_double(agg.rounds.mean(), 1),
                     fmt_double(agg.messages.mean(), 0)});
    }
    std::cout << "-- " << nodes << " nodes --\n";
    table.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
