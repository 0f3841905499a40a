// Minimal --flag=value command-line parsing for benches and examples.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace fdlsp {

/// Parses arguments of the form `--name=value` or bare `--name` (value "1").
/// Unknown positional arguments raise contract_error so typos fail loudly.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// True if --name was present.
  bool has(const std::string& name) const;

  /// Raises contract_error naming the first flag that is not in `known`, so
  /// a misspelled or retired flag fails instead of being ignored.
  void require_known(std::span<const std::string_view> known) const;

  /// String value of --name, or fallback if absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of --name, or fallback if absent. A value that is not
  /// entirely an integer ("2x", "") raises contract_error naming the flag.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// As get_int, additionally rejecting negative values.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;

  /// Double value of --name, or fallback if absent; parsed as strictly as
  /// get_int.
  double get_double(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace fdlsp
