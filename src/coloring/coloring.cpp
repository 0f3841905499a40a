#include "coloring/coloring.h"

#include <algorithm>
#include <vector>

namespace fdlsp {

std::size_t ArcColoring::num_colors_used() const {
  Color max_color = kNoColor;
  for (Color c : colors_) max_color = std::max(max_color, c);
  if (max_color == kNoColor) return 0;
  // A bitmap over the colors while they fit the arc count; beyond it, the
  // distinct values of a sorted copy, so nothing is sized by a color
  // (parsed schedules may carry any non-negative int32).
  if (static_cast<std::size_t>(max_color) < colors_.size()) {
    std::vector<bool> used(static_cast<std::size_t>(max_color) + 1, false);
    for (Color c : colors_)
      if (c != kNoColor) used[static_cast<std::size_t>(c)] = true;
    return static_cast<std::size_t>(std::count(used.begin(), used.end(), true));
  }
  std::vector<Color> sorted;
  sorted.reserve(colored_);
  for (Color c : colors_)
    if (c != kNoColor) sorted.push_back(c);
  std::sort(sorted.begin(), sorted.end());
  return static_cast<std::size_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

std::size_t ArcColoring::color_span() const {
  Color max_color = kNoColor;
  for (Color c : colors_) max_color = std::max(max_color, c);
  return max_color == kNoColor ? 0 : static_cast<std::size_t>(max_color) + 1;
}

}  // namespace fdlsp
