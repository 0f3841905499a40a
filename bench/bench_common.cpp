#include "bench_common.h"

#include <iostream>

#include "exp/report.h"

namespace fdlsp::bench {

FigureConfig parse_figure_args(int argc, const char* const* argv,
                               std::vector<SchedulerKind> kinds) {
  const CliArgs args(argc, argv);
  FigureConfig config;
  config.sweep.kinds = std::move(kinds);
  config.sweep.instances =
      static_cast<std::size_t>(args.get_int("instances", 15));
  config.sweep.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.csv_path = args.get("csv", "");
  config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  return config;
}

namespace {

void emit(const FigureConfig& config, const std::string& title,
          const TextTable& table) {
  print_report(std::cout, title, table);
  if (!config.csv_path.empty()) write_csv(config.csv_path, table);
}

}  // namespace

int run_udg_slots_figure(const std::string& title, double side, int argc,
                         const char* const* argv) {
  const FigureConfig config = parse_figure_args(
      argc, argv,
      {SchedulerKind::kDistMisGbg, SchedulerKind::kDfs, SchedulerKind::kDmgc});
  ThreadPool pool(config.threads);
  std::vector<PointResult> points;
  for (const UdgPoint& point : udg_series(side))
    points.push_back(run_udg_point(point, config.sweep, pool));
  emit(config, title, slots_table(points, config.sweep.kinds));
  return 0;
}

int run_general_slots_figure(const std::string& title, std::size_t nodes,
                             int argc, const char* const* argv) {
  const FigureConfig config =
      parse_figure_args(argc, argv,
                        {SchedulerKind::kDistMisGeneral, SchedulerKind::kDfs,
                         SchedulerKind::kDmgc});
  ThreadPool pool(config.threads);
  std::vector<PointResult> points;
  for (const GeneralPoint& point : general_series(nodes))
    points.push_back(run_general_point(point, config.sweep, pool));
  emit(config, title, slots_table(points, config.sweep.kinds));
  return 0;
}

int run_general_rounds_figure(const std::string& title, std::size_t nodes,
                              int argc, const char* const* argv) {
  const FigureConfig config =
      parse_figure_args(argc, argv, {SchedulerKind::kDistMisGeneral});
  ThreadPool pool(config.threads);
  std::vector<PointResult> points;
  for (const GeneralPoint& point : general_series(nodes))
    points.push_back(run_general_point(point, config.sweep, pool));
  emit(config, title,
       rounds_table(points, SchedulerKind::kDistMisGeneral));
  return 0;
}

}  // namespace fdlsp::bench
