#include "support/cli.h"

#include <algorithm>
#include <charconv>
#include <system_error>

#include "support/check.h"

namespace fdlsp {

namespace {

/// Parses all of `text` as a T, or raises contract_error naming the flag.
template <typename T>
T parse_whole(const std::string& name, const std::string& text,
              const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  FDLSP_REQUIRE(ec == std::errc() && ptr == end,
                "--" + name + " expects " + expected + ", got '" + text + "'");
  return value;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    FDLSP_REQUIRE(arg.rfind("--", 0) == 0,
                  "arguments must be of the form --name[=value]");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_.insert_or_assign(std::string(arg), std::string("1"));
    } else {
      values_.insert_or_assign(std::string(arg.substr(0, eq)),
                               std::string(arg.substr(eq + 1)));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

void CliArgs::require_known(std::span<const std::string_view> known) const {
  for (const auto& entry : values_)
    FDLSP_REQUIRE(std::find(known.begin(), known.end(), entry.first) !=
                      known.end(),
                  "unknown flag --" + entry.first);
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : parse_whole<std::int64_t>(name, it->second, "an integer");
}

std::size_t CliArgs::get_count(const std::string& name,
                               std::size_t fallback) const {
  const std::int64_t value =
      get_int(name, static_cast<std::int64_t>(fallback));
  FDLSP_REQUIRE(value >= 0, "--" + name + " must be non-negative, got " +
                                std::to_string(value));
  return static_cast<std::size_t>(value);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : parse_whole<double>(name, it->second, "a number");
}

}  // namespace fdlsp
