#include "analysis/lint.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace fdlsp {

namespace {

constexpr LintRuleInfo kRules[] = {
    {"unseeded-rng",
     "ambient randomness (std::rand, srand, std::random_device, std::mt19937, "
     "std::default_random_engine, random_shuffle) breaks seed-reproducibility; "
     "draw from fdlsp::Rng with a threaded seed"},
    {"time-seed",
     "wall-clock reads (time(), clock(), ::now(), gettimeofday) in "
     "deterministic paths leak nondeterminism into protocol code"},
    {"unordered-container",
     "std::unordered_{map,set,multimap,multiset} in deterministic paths: "
     "iteration order is unspecified; use ordered containers or sorted "
     "iteration"},
    {"pointer-key",
     "map/set keyed on a pointer type orders by address, which varies across "
     "runs (ASLR); key on stable ids instead"},
    {"cross-node-state",
     "inside SyncProgramSet/AsyncProgram classes, or code annotated as "
     "node-program code with the 'program' directive: naming an engine or "
     "calling .program()/->program() reads peer state outside the message "
     "API"},
    {"ordered-in-protocol-state",
     "std::map/std::set in protocol-state paths (src/sim, src/algos) or "
     "program classes: point-queried state on red-black trees allocates per "
     "insert; use FlatHashMap/FlatHashSet (support/flat_hash.h) or justify "
     "with allow() when iteration order is load-bearing"},
    {"heap-in-hot-path",
     "new/make_unique/make_shared/.resize()/.reserve() inside a function "
     "annotated '// fdlsp-lint: hot' — the per-message engine seams must not "
     "touch the allocator in steady state (see support/alloc_audit.h)"},
    {"unjustified-allow",
     "an allow() directive with no justifying comment on its own or the "
     "preceding line, or naming a rule that is not in the catalog; allows "
     "cannot suppress this rule"},
    {"layer-dag",
     "project mode: an #include crosses the declared include-layer DAG "
     "upward, or same-layer includes form a module cycle "
     "(analysis/project.h)"},
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool alpha_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0;
}

/// Position of `token` as a whole identifier in `line` at or after `from`;
/// npos when absent.
std::size_t find_token(std::string_view line, std::string_view token,
                       std::size_t from = 0) {
  for (std::size_t pos = line.find(token, from); pos != std::string_view::npos;
       pos = line.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !ident_char(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string_view::npos;
}

bool has_token(std::string_view line, std::string_view token) {
  return find_token(line, token) != std::string_view::npos;
}

std::size_t skip_spaces(std::string_view line, std::size_t pos) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t'))
    ++pos;
  return pos;
}

/// True when the first non-space character after `pos` is `expect`.
bool next_char_is(std::string_view line, std::size_t pos, char expect) {
  pos = skip_spaces(line, pos);
  return pos < line.size() && line[pos] == expect;
}

/// True when the token starting at `pos` is immediately preceded by "::"
/// (ignoring spaces between "::" and the token).
bool preceded_by_scope(std::string_view line, std::size_t pos) {
  while (pos > 0 && (line[pos - 1] == ' ' || line[pos - 1] == '\t')) --pos;
  return pos >= 2 && line[pos - 1] == ':' && line[pos - 2] == ':';
}

/// True when the token starting at `pos` is qualified as std:: (spaces
/// tolerated around the "::").
bool preceded_by_std(std::string_view line, std::size_t pos) {
  while (pos > 0 && (line[pos - 1] == ' ' || line[pos - 1] == '\t')) --pos;
  if (pos < 2 || line[pos - 1] != ':' || line[pos - 2] != ':') return false;
  pos -= 2;
  while (pos > 0 && (line[pos - 1] == ' ' || line[pos - 1] == '\t')) --pos;
  return pos >= 3 && line.substr(pos - 3, 3) == "std" &&
         (pos == 3 || !ident_char(line[pos - 4]));
}

/// True when the token starting at `pos` is preceded by "." or "->"
/// (ignoring spaces), i.e. it is a member access.
bool preceded_by_member_access(std::string_view line, std::size_t pos) {
  while (pos > 0 && (line[pos - 1] == ' ' || line[pos - 1] == '\t')) --pos;
  if (pos >= 1 && line[pos - 1] == '.') return true;
  return pos >= 2 && line[pos - 2] == '-' && line[pos - 1] == '>';
}

/// First template argument of the `container<...>` starting with the '<' at
/// `angle`; empty when the argument list does not open at `angle` or spans
/// past the end of the line (lint-lite: arguments are assumed line-local).
std::string_view first_template_arg(std::string_view line, std::size_t angle) {
  if (angle >= line.size() || line[angle] != '<') return {};
  int depth = 1;
  const std::size_t begin = angle + 1;
  for (std::size_t i = begin; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '<') ++depth;
    if (c == '>') {
      --depth;
      if (depth == 0) return line.substr(begin, i - begin);
    }
    if (c == ',' && depth == 1) return line.substr(begin, i - begin);
  }
  return {};
}

/// True when `name` looks like a rule name: nonempty, only [a-z0-9-].
/// Anything else (e.g. the `<rule>` placeholder in documentation) is prose,
/// not a directive operand.
bool rule_name_shaped(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

bool known_rule(std::string_view name) {
  for (const LintRuleInfo& rule : kRules)
    if (rule.name == name) return true;
  return false;
}

/// Splits the comma-separated operand list of one allow(...) directive into
/// trimmed names, appending to `out`.
void split_rule_list(std::string_view list, std::vector<std::string>& out) {
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view rule = list.substr(0, comma);
    while (!rule.empty() && (rule.front() == ' ' || rule.front() == '\t'))
      rule.remove_prefix(1);
    while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\t'))
      rule.remove_suffix(1);
    if (!rule.empty()) out.emplace_back(rule);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
}

// The directive marker and its operand keywords. Kept on separate source
// lines deliberately: the unjustified-allow scan is line-oriented, so this
// file's own string literals must never look like a directive.
constexpr std::string_view kDirective = "fdlsp-lint:";
constexpr std::string_view kAllowKeyword = "allow(";
constexpr std::string_view kHotKeyword = "hot";
constexpr std::string_view kProgramKeyword = "program";

/// Parses one raw line for an allow(...) directive. Returns true and fills
/// `names` (rule-name-shaped operands only) and `directive_span` (the byte
/// range of the directive within the line) when one is found.
bool parse_allow_line(std::string_view line, std::vector<std::string>& names,
                      std::pair<std::size_t, std::size_t>* directive_span) {
  const std::size_t pos = line.find(kDirective);
  if (pos == std::string_view::npos) return false;
  std::size_t cursor = skip_spaces(line, pos + kDirective.size());
  if (line.compare(cursor, kAllowKeyword.size(), kAllowKeyword) != 0)
    return false;
  cursor += kAllowKeyword.size();
  const std::size_t close = line.find(')', cursor);
  if (close == std::string_view::npos) return false;
  std::vector<std::string> all;
  split_rule_list(line.substr(cursor, close - cursor), all);
  for (std::string& name : all)
    if (rule_name_shaped(name)) names.push_back(std::move(name));
  if (directive_span != nullptr) *directive_span = {pos, close + 1};
  return true;
}

/// Collects the rules suppressed by allow(...) directives anywhere in the
/// raw text (directives live inside comments, so this scans unsanitized
/// lines).
std::set<std::string, std::less<>> parse_allows(
    const std::vector<std::string_view>& raw_lines) {
  std::set<std::string, std::less<>> allows;
  for (const std::string_view line : raw_lines) {
    std::vector<std::string> names;
    if (parse_allow_line(line, names, nullptr))
      for (std::string& name : names) allows.insert(std::move(name));
  }
  return allows;
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      lines.push_back(text.substr(begin));
      break;
    }
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

/// Marks the lines inside bodies of classes deriving from SyncProgramSet or
/// AsyncProgram, by brace counting from the declaration line.
std::vector<char> program_regions(const std::vector<std::string_view>& lines) {
  std::vector<char> in_region(lines.size(), 0);
  bool awaiting = false;  // saw the declaration, waiting for its '{'
  bool active = false;
  int depth = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (!awaiting && !active &&
        (has_token(line, "SyncProgramSet") ||
         has_token(line, "AsyncProgram")) &&
        (has_token(line, "class") || has_token(line, "struct"))) {
      awaiting = true;
      depth = 0;
    }
    if (awaiting) {
      for (const char c : line) {
        if (c == '{') {
          ++depth;
          active = true;
          awaiting = false;
        } else if (c == '}') {
          --depth;
        } else if (c == ';' && !active) {
          awaiting = false;  // forward declaration, no body
          break;
        }
      }
      if (active) {
        in_region[i] = 1;
        if (depth <= 0) active = false;
      }
      continue;
    }
    if (active) {
      in_region[i] = 1;
      for (const char c : line) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
      }
      if (depth <= 0) active = false;
    }
  }
  return in_region;
}

/// True when the raw line carries the annotation directive `keyword`.
bool is_directive(std::string_view raw_line, std::string_view keyword) {
  const std::size_t pos = raw_line.find(kDirective);
  if (pos == std::string_view::npos) return false;
  const std::size_t cursor = skip_spaces(raw_line, pos + kDirective.size());
  return find_token(raw_line, keyword, cursor) == cursor;
}

/// Marks in `region` the lines of each body annotated with a `keyword`
/// directive (`hot`: a function; `program`: node-program code outside a
/// program class): from the line after the directive through the close of
/// the next brace balance. A declaration with no body (`;` before any `{`)
/// ends the region immediately, so annotating a prototype is harmless.
void mark_directive_regions(const std::vector<std::string_view>& raw_lines,
                            const std::vector<std::string_view>& lines,
                            std::string_view keyword,
                            std::vector<char>& region) {
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (!is_directive(raw_lines[i], keyword)) continue;
    int depth = 0;
    bool started = false;
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      region[j] = 1;
      bool ended = false;
      for (const char c : lines[j]) {
        if (c == '{') {
          ++depth;
          started = true;
        } else if (c == '}') {
          if (--depth <= 0 && started) {
            ended = true;
            break;
          }
        } else if (c == ';' && !started) {
          ended = true;  // prototype: no body follows
          break;
        }
      }
      if (ended) break;
    }
  }
}

/// Count of alphabetic characters in `line` outside [skip_begin, skip_end)
/// and not part of a comment marker.
std::size_t justification_chars(std::string_view line, std::size_t skip_begin,
                                std::size_t skip_end) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (i >= skip_begin && i < skip_end) continue;
    if (alpha_char(line[i])) ++count;
  }
  return count;
}

constexpr std::string_view kAmbientRandomTokens[] = {
    "rand",    "srand",          "random_device",
    "mt19937", "mt19937_64",     "default_random_engine",
    "minstd_rand", "minstd_rand0", "random_shuffle",
};

constexpr std::string_view kUnorderedTokens[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::string_view kKeyedContainerTokens[] = {
    "map",           "set",           "multimap",
    "multiset",      "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset"};

constexpr std::string_view kOrderedTokens[] = {"map", "set", "multimap",
                                               "multiset"};

constexpr std::string_view kHeapCallTokens[] = {"make_unique", "make_shared"};

constexpr std::string_view kHeapMemberTokens[] = {"resize", "reserve"};

constexpr std::string_view kEngineTokens[] = {"SyncEngine", "AsyncEngine"};

bool path_has_root(std::string_view path, std::span<const std::string_view> roots) {
  for (const std::string_view root : roots) {
    if (path.substr(0, root.size()) == root) return true;
    const std::string needle = "/" + std::string(root);
    if (path.find(needle) != std::string_view::npos) return true;
  }
  return false;
}

}  // namespace

std::string to_string(const LintDiagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": [" +
         diagnostic.rule + "] " + diagnostic.message;
}

std::span<const LintRuleInfo> lint_rules() { return kRules; }

bool lint_deterministic_path(std::string_view path) {
  constexpr std::string_view kRoots[] = {"algos/", "sim/", "coloring/",
                                         "graph/"};
  return path_has_root(path, kRoots);
}

bool lint_protocol_state_path(std::string_view path) {
  constexpr std::string_view kRoots[] = {"algos/", "sim/"};
  return path_has_root(path, kRoots);
}

std::string lint_sanitize(std::string_view text) {
  std::string out(text);
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          // Raw string literal: the quote is preceded by an R prefix
          // (R, uR, UR, LR, u8R) that is itself not part of a longer
          // identifier. Blank through the matching )delim" — escapes are
          // inert inside raw strings.
          bool raw = false;
          if (i >= 1 && text[i - 1] == 'R') {
            std::size_t prefix = i - 1;
            if (prefix >= 2 && text[prefix - 2] == 'u' &&
                text[prefix - 1] == '8') {
              prefix -= 2;
            } else if (prefix >= 1 &&
                       (text[prefix - 1] == 'u' || text[prefix - 1] == 'U' ||
                        text[prefix - 1] == 'L')) {
              prefix -= 1;
            }
            raw = prefix == 0 || !ident_char(text[prefix - 1]);
          }
          if (raw) {
            const std::size_t paren = text.find('(', i + 1);
            if (paren == std::string_view::npos) {
              for (std::size_t j = i; j < text.size(); ++j)
                if (text[j] != '\n') out[j] = ' ';
              return out;
            }
            const std::string closer =
                ")" + std::string(text.substr(i + 1, paren - i - 1)) + "\"";
            std::size_t close = text.find(closer, paren + 1);
            const std::size_t last = close == std::string_view::npos
                                         ? text.size()
                                         : close + closer.size();
            for (std::size_t j = i; j < last; ++j)
              if (text[j] != '\n') out[j] = ' ';
            i = last - 1;
          } else {
            state = State::kString;
            out[i] = ' ';
          }
        } else if (c == '\'' && (i == 0 || !ident_char(text[i - 1]))) {
          // An apostrophe after an identifier character is a digit
          // separator (1'000'000) or literal suffix, not a char literal.
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n')
          state = State::kCode;
        else
          out[i] = ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c == quote) {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

std::vector<LintDiagnostic> lint_source(std::string_view path,
                                        std::string_view text) {
  const std::vector<std::string_view> raw_lines = split_lines(text);
  const auto allows = parse_allows(raw_lines);
  const std::string sanitized = lint_sanitize(text);
  const std::vector<std::string_view> lines = split_lines(sanitized);
  const bool deterministic = lint_deterministic_path(path);
  const bool protocol_state = lint_protocol_state_path(path);
  std::vector<char> in_program = program_regions(lines);
  mark_directive_regions(raw_lines, lines, kProgramKeyword, in_program);
  std::vector<char> in_hot(lines.size(), 0);
  mark_directive_regions(raw_lines, lines, kHotKeyword, in_hot);

  std::vector<LintDiagnostic> diagnostics;
  const auto emit = [&](std::size_t line_index, std::string_view rule,
                        std::string message) {
    if (allows.find(rule) != allows.end()) return;
    diagnostics.push_back(LintDiagnostic{std::string(path), line_index + 1,
                                         std::string(rule),
                                         std::move(message)});
  };
  // unjustified-allow findings skip the allows filter: the escape hatch
  // must not be able to excuse its own misuse.
  const auto emit_unconditional = [&](std::size_t line_index,
                                      std::string message) {
    diagnostics.push_back(LintDiagnostic{std::string(path), line_index + 1,
                                         "unjustified-allow",
                                         std::move(message)});
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];

    // unjustified-allow: scans the raw line (directives live in comments).
    {
      std::vector<std::string> names;
      std::pair<std::size_t, std::size_t> span{0, 0};
      // A directive with no rule-name-shaped operand (e.g. the `<rule>`
      // placeholder in documentation) suppresses nothing and is skipped.
      if (parse_allow_line(raw_lines[i], names, &span) && !names.empty()) {
        for (const std::string& name : names) {
          if (!known_rule(name)) {
            emit_unconditional(
                i, "allow() names unknown rule '" + name +
                       "' — see fdlsp-lint --list-rules for the catalog");
          }
        }
        const std::size_t same_line =
            justification_chars(raw_lines[i], span.first, span.second);
        std::size_t prev_line = 0;
        if (i > 0) {
          std::pair<std::size_t, std::size_t> prev_span{0, 0};
          std::vector<std::string> ignored;
          const bool prev_is_directive =
              parse_allow_line(raw_lines[i - 1], ignored, &prev_span);
          prev_line = justification_chars(
              raw_lines[i - 1], prev_is_directive ? prev_span.first : 0,
              prev_is_directive ? prev_span.second : 0);
        }
        if (same_line < 3 && prev_line < 3) {
          emit_unconditional(
              i, "allow() without a justifying comment on this line or the "
                 "line above — say why the suppression is safe");
        }
      }
    }

    // unseeded-rng: ambient randomness sources, everywhere.
    for (const std::string_view token : kAmbientRandomTokens) {
      if (has_token(line, token)) {
        emit(i, "unseeded-rng",
             "ambient randomness source '" + std::string(token) +
                 "' — draw from fdlsp::Rng with a threaded seed "
                 "(support/rng.h)");
      }
    }

    // time-seed: wall-clock reads, deterministic paths only.
    if (deterministic) {
      for (const std::string_view token : {std::string_view("time"),
                                           std::string_view("clock")}) {
        const std::size_t pos = find_token(line, token);
        if (pos != std::string_view::npos &&
            next_char_is(line, pos + token.size(), '(')) {
          emit(i, "time-seed",
               "wall-clock read '" + std::string(token) +
                   "()' in a deterministic path");
        }
      }
      if (has_token(line, "gettimeofday")) {
        emit(i, "time-seed",
             "wall-clock read 'gettimeofday' in a deterministic path");
      }
      const std::size_t now_pos = find_token(line, "now");
      if (now_pos != std::string_view::npos &&
          preceded_by_scope(line, now_pos)) {
        emit(i, "time-seed", "wall-clock read '::now()' in a deterministic "
                             "path");
      }
    }

    // unordered-container: deterministic paths only.
    if (deterministic) {
      for (const std::string_view token : kUnorderedTokens) {
        if (has_token(line, token)) {
          emit(i, "unordered-container",
               "'std::" + std::string(token) +
                   "' in a deterministic path — iteration order is "
                   "unspecified; use an ordered container or sorted "
                   "iteration");
        }
      }
    }

    // pointer-key: everywhere.
    for (const std::string_view token : kKeyedContainerTokens) {
      for (std::size_t pos = find_token(line, token);
           pos != std::string_view::npos;
           pos = find_token(line, token, pos + 1)) {
        const std::size_t angle = skip_spaces(line, pos + token.size());
        const std::string_view arg = first_template_arg(line, angle);
        if (arg.find('*') != std::string_view::npos) {
          emit(i, "pointer-key",
               "container keyed on pointer type '" +
                   std::string(arg.substr(0, 40)) +
                   "' — address order is not stable across runs");
        }
      }
    }

    // cross-node-state: program class bodies in deterministic paths.
    if (deterministic && in_program[i] != 0) {
      for (const std::string_view token : kEngineTokens) {
        if (has_token(line, token)) {
          emit(i, "cross-node-state",
               "'" + std::string(token) +
                   "' named inside a node program — nodes may only act on "
                   "their own state and delivered messages");
        }
      }
      const std::size_t pos = find_token(line, "program");
      if (pos != std::string_view::npos &&
          preceded_by_member_access(line, pos) &&
          next_char_is(line, pos + 7, '(')) {
        emit(i, "cross-node-state",
             "'.program()' call inside a node program — peer program state "
             "is off-limits outside the message API");
      }
    }

    // ordered-in-protocol-state: protocol paths, and program class bodies
    // anywhere deterministic. Only std::-qualified names fire — bare `map`
    // or `set` are common identifiers.
    if (protocol_state || in_program[i] != 0) {
      for (const std::string_view token : kOrderedTokens) {
        for (std::size_t pos = find_token(line, token);
             pos != std::string_view::npos;
             pos = find_token(line, token, pos + 1)) {
          if (!preceded_by_std(line, pos)) continue;
          emit(i, "ordered-in-protocol-state",
               "'std::" + std::string(token) +
                   "' in protocol state — point-queried state should use "
                   "FlatHashMap/FlatHashSet (support/flat_hash.h); allow() "
                   "with a justification if iteration order is load-bearing");
        }
      }
    }

    // heap-in-hot-path: functions annotated hot.
    if (in_hot[i] != 0) {
      const std::size_t new_pos = find_token(line, "new");
      if (new_pos != std::string_view::npos) {
        emit(i, "heap-in-hot-path",
             "'new' in a hot-annotated function — the per-message path must "
             "not allocate in steady state");
      }
      for (const std::string_view token : kHeapCallTokens) {
        if (has_token(line, token)) {
          emit(i, "heap-in-hot-path",
               "'" + std::string(token) +
                   "' in a hot-annotated function — the per-message path "
                   "must not allocate in steady state");
        }
      }
      for (const std::string_view token : kHeapMemberTokens) {
        const std::size_t pos = find_token(line, token);
        if (pos != std::string_view::npos &&
            preceded_by_member_access(line, pos) &&
            next_char_is(line, pos + token.size(), '(')) {
          emit(i, "heap-in-hot-path",
               "'." + std::string(token) +
                   "()' in a hot-annotated function — growth belongs in "
                   "construction/warm-up, not the per-message path");
        }
      }
    }
  }
  return diagnostics;
}

}  // namespace fdlsp
