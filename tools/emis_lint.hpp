// emis_lint — the repo's determinism & invariant linter.
//
// A dependency-free two-pass static analyzer (tokenizer + token-stream rule
// engine, deliberately not regex-over-lines) that walks src/, bench/ and
// tools/ and enforces the repo-specific rules the determinism contract
// depends on.
//
// Pass 1 tokenizes every file exactly once (the token streams are shared by
// every rule) and builds a project-wide symbol index: function definitions,
// their call sites (with the receiver root of qualified calls), and every
// lambda passed to par::ParallelFor — a "parallel region" — together with
// its capture list and parameters. Name-merged call edges over that index
// approximate the cross-translation-unit call graph (see DESIGN.md §14 for
// the approximation and its known false-negative edges).
//
// Pass 2 runs two rule families over the shared tokens:
//   * per-file token rules — no draw-order RNG or wall-clock reads in
//     library code, no unordered-container iteration feeding results, no
//     raw assert(), no console I/O in library code, no floating-point
//     accumulation in merge/reduce paths, no RNG streams seeded from
//     another stream's draws, no raw OS-thread spawns outside the pool;
//   * graph rules on the symbol index — nested-dispatch (a parallel region
//     that can re-enter the worker pool, the PR 8 deadlock shape),
//     parallel-region-mutation (writes to captured shared state inside
//     ParallelFor lambdas), banned-random-taint / banned-clock-taint
//     (library functions that transitively reach a banned source through
//     any call chain), and observable-commit-order (observables reachable
//     from inside a parallel region outside the sanctioned serial-commit
//     functions). Graph findings carry the offending symbol and a witness
//     call chain.
//
// Rules operate on a lexed token stream: comments, string literals (plain
// and raw), char literals and #include lines never produce identifier
// tokens, so a rule table mentioning banned names in strings (like the ones
// below) or prose mentioning rand() in a comment cannot self-trigger.
//
// Suppression: any finding can be waived with a comment on the same line or
// the line above —
//     // emis-lint: allow(rule-id)          one line
//     // emis-lint: allow-file(rule-id)     whole file
// Waivers are counted and reported per rule, never silent; the committed
// per-rule baseline (tools/lint_waiver_baseline.txt) makes new waivers fail
// closed in CI (see ParseWaiverBaseline / DiffWaiverBaseline).
//
// Report schema: emis-lint-report/2 (see ToJson).
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace emis_lint {

// ---------------------------------------------------------------------------
// Tokens and lexing

struct Token {
  enum class Kind : std::uint8_t { kIdent, kPunct, kNumber, kString, kChar };
  Kind kind;
  std::string text;
  int line;
};

struct SourceFile {
  std::string path;  ///< repo-relative, '/'-separated
  std::vector<Token> tokens;
  /// (line, rule-id) pairs from `emis-lint: allow(...)` comments. A waiver
  /// on line L covers findings on lines L and L+1 (trailing or line-above).
  std::set<std::pair<int, std::string>> allows;
  /// rule-ids from `emis-lint: allow-file(...)` comments.
  std::set<std::string> file_allows;
};

namespace detail {

inline bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Extracts `emis-lint:` directives from one comment's text.
inline void ParseLintComment(std::string_view text, int line, SourceFile* out) {
  const std::string_view marker = "emis-lint:";
  const std::size_t at = text.find(marker);
  if (at == std::string_view::npos) return;
  std::size_t i = at + marker.size();
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) ++i;
  bool whole_file = false;
  const std::string_view allow_file = "allow-file";
  const std::string_view allow = "allow";
  if (text.compare(i, allow_file.size(), allow_file) == 0) {
    whole_file = true;
    i += allow_file.size();
  } else if (text.compare(i, allow.size(), allow) == 0) {
    i += allow.size();
  } else {
    return;
  }
  while (i < text.size() && text[i] != '(') ++i;
  if (i >= text.size()) return;
  ++i;
  std::string rule;
  for (; i < text.size() && text[i] != ')'; ++i) {
    const char c = text[i];
    if (c == ',' ) {
      if (!rule.empty()) {
        if (whole_file) out->file_allows.insert(rule);
        else out->allows.insert({line, rule});
      }
      rule.clear();
    } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      rule += c;
    }
  }
  if (!rule.empty()) {
    if (whole_file) out->file_allows.insert(rule);
    else out->allows.insert({line, rule});
  }
}

/// Multi-character punctuators the rules care about, longest first.
inline const std::vector<std::string>& Punctuators() {
  static const std::vector<std::string> kPuncts = {
      "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
      "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=",
      "%=", "&=", "|=", "^=",
  };
  return kPuncts;
}

}  // namespace detail

/// Lexes one translation unit into tokens + suppression directives.
inline SourceFile Lex(std::string path, std::string_view src) {
  SourceFile out;
  out.path = std::move(path);
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool line_start = true;  // only whitespace seen since the last newline

  auto advance_newline = [&](char c) {
    if (c == '\n') {
      ++line;
      line_start = true;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      advance_newline(c);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      detail::ParseLintComment(src.substr(start, i - start), line, &out);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        advance_newline(src[i]);
        ++i;
      }
      detail::ParseLintComment(src.substr(start, i - start), start_line, &out);
      i = std::min(n, i + 2);
      continue;
    }
    // Preprocessor: #include's header-name would otherwise lex as idents
    // (<chrono> → 'chrono'), so the rest of the directive line is skipped.
    if (c == '#' && line_start) {
      std::size_t j = i + 1;
      while (j < n && std::isspace(static_cast<unsigned char>(src[j])) != 0 &&
             src[j] != '\n') {
        ++j;
      }
      std::size_t word_end = j;
      while (word_end < n && detail::IsIdentChar(src[word_end])) ++word_end;
      const std::string_view directive = src.substr(j, word_end - j);
      if (directive == "include" || directive == "pragma" || directive == "error") {
        while (i < n && src[i] != '\n') ++i;
        continue;
      }
      line_start = false;
      ++i;  // '#' itself carries no rule meaning; tokenize the rest normally
      continue;
    }
    line_start = false;
    // Identifier (possibly a string-literal prefix).
    if (detail::IsIdentStart(c)) {
      std::size_t j = i;
      while (j < n && detail::IsIdentChar(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      // String prefixes: u8R"(...)", R"(...)", L"...", u"...", etc.
      if (j < n && src[j] == '"' &&
          (word == "R" || word == "u8R" || word == "uR" || word == "UR" ||
           word == "LR" || word == "u8" || word == "u" || word == "U" ||
           word == "L")) {
        if (word.back() == 'R') {
          // Raw string: R"delim( ... )delim"
          std::size_t k = j + 1;
          std::string delim;
          while (k < n && src[k] != '(') delim += src[k++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t end = src.find(closer, k);
          const std::size_t stop = end == std::string_view::npos ? n : end + closer.size();
          for (std::size_t p = j; p < stop; ++p) advance_newline(src[p]);
          out.tokens.push_back({Token::Kind::kString, "<raw-string>", line});
          i = stop;
          continue;
        }
        // Prefixed ordinary string: fall through to the string scanner below.
        i = j;
        continue;
      }
      out.tokens.push_back({Token::Kind::kIdent, std::string(word), line});
      i = j;
      continue;
    }
    // String and char literals.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        advance_newline(src[j]);
        ++j;
      }
      out.tokens.push_back({quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
                            "<literal>", line});
      i = std::min(n, j + 1);
      continue;
    }
    // Numbers (incl. hex/float; pp-number is close enough for linting).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      std::size_t j = i;
      while (j < n && (detail::IsIdentChar(src[j]) || src[j] == '.' || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && j > 0 &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                         src[j - 1] == 'P')))) {
        ++j;
      }
      out.tokens.push_back({Token::Kind::kNumber, std::string(src.substr(i, j - i)), line});
      i = j;
      continue;
    }
    // Punctuation, longest match first.
    bool matched = false;
    for (const std::string& p : detail::Punctuators()) {
      if (src.compare(i, p.size(), p) == 0) {
        out.tokens.push_back({Token::Kind::kPunct, p, line});
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Findings, rules, reports

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
  /// Graph-rule findings name the symbol they anchor to (a function, a
  /// parallel region's enclosing function, a mutated variable); token rules
  /// leave it empty.
  std::string symbol;
  /// Call-chain witness for graph-rule findings: one "<file>:<line> <name>"
  /// hop per element, from the flagged context to the offending call/token.
  std::vector<std::string> witness;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct Report {
  std::vector<Finding> findings;
  std::uint64_t suppressed = 0;
  /// Per-rule waiver accounting (rules with zero waivers are omitted);
  /// values sum to `suppressed`. CI diffs this against the committed
  /// baseline so new waivers fail closed.
  std::map<std::string, std::uint64_t> suppressed_by_rule;
  std::size_t files_scanned = 0;
  /// Pass-1 index counters: function definitions indexed and call edges
  /// (call sites inside indexed bodies and parallel regions) recorded.
  std::size_t symbols_indexed = 0;
  std::size_t call_edges = 0;
  /// Wall time of the lint run (corpus load + both passes), stamped by the
  /// CLI; 0 for in-memory fixture lints.
  double wall_seconds = 0.0;
};

struct RuleInfo {
  std::string_view id;
  std::string_view scope;
  std::string_view summary;
};

/// The rule table (documented in DESIGN.md §10).
inline const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"banned-random", "src (excl. src/obs), bench, tools",
       "no rand()/srand()/std::random_device/std::mt19937-family generators; "
       "randomness flows from emis::Rng / CounterHash (seed, counter) streams"},
      {"banned-clock", "src (excl. src/obs), tools",
       "no std::chrono clock reads or OS time calls; wall-clock access goes "
       "through src/obs (obs::MonotonicSeconds, ScopedTimer)"},
      {"unordered-iteration", "src, bench, tools",
       "no iteration over unordered containers whose body writes into "
       "results/metrics/accumulators — iteration order is unspecified and "
       "breaks bit-identical reduction"},
      {"raw-assert", "src, bench, tools",
       "no raw assert(); use EMIS_EXPECTS/EMIS_ENSURES/EMIS_INVARIANT/"
       "EMIS_UNREACHABLE from core/contracts.hpp"},
      {"io-in-library", "src (console: excl. src/obs; file writes: all src)",
       "no std::cout/std::cerr/printf-family console I/O in library code "
       "(emit through obs/ sinks or return data), and no ofstream/fopen/"
       "freopen file-writing outside the sanctioned waiver list "
       "(stream_sink.cpp's telemetry opener)"},
      {"float-accumulate-in-reduce", "src",
       "no floating-point += accumulation inside Merge/Reduce-named reduce "
       "paths (MetricsRegistry::Merge-reachable); sums there must be "
       "integral, compensated, or explicitly waived with a fixed-order proof"},
      {"rng-seed-from-draw", "src, bench, tools",
       "no Rng constructed from another stream's draw (NextU64() etc.); "
       "derive children with Rng::Split(stream_id) or counter hashes"},
      {"raw-thread", "src, bench, tools",
       "no std::thread/std::jthread/std::async outside the pooled execution "
       "layer (src/verify/parallel.cpp); fan work out through "
       "par::ParallelFor so thread count, pinning and nesting stay "
       "centralized (std::thread::hardware_concurrency reads are fine)"},
      {"nested-dispatch", "graph rule: src, bench, tools",
       "no call-graph path from a ParallelFor/pooled-shard lambda body back "
       "into Pool::Run/ParallelFor/RunSweep — re-entering the pool "
       "self-deadlocks on its non-recursive dispatch mutex (the PR 8 "
       "deadlock). A dispatcher whose definition READS tl_in_pool_worker "
       "runs nested calls inline and is safe; findings carry the witness "
       "call chain"},
      {"parallel-region-mutation", "graph rule: src, bench, tools",
       "no writes to captured shared state inside a ParallelFor lambda body "
       "unless the symbol is on the sanctioned shard-local/serial-commit "
       "list (ParallelWriteSanctioned: per-node/per-shard slots merged "
       "serially); trials/shards must write only their own slot"},
      {"banned-random-taint", "graph rule: src (excl. src/obs), bench, tools",
       "no library function that transitively reaches a banned RNG source "
       "(rand(), std::mt19937, ...) through any call chain — flagged at the "
       "function's definition with the witness chain; src/obs definitions "
       "are the sanctioned boundary and do not propagate taint"},
      {"banned-clock-taint", "graph rule: src (excl. src/obs), tools",
       "no library function that transitively reaches a wall-clock source "
       "(std::chrono clocks, clock_gettime, ...) through any call chain — "
       "flagged at the definition with the witness chain; src/obs (and "
       "bench, which times itself freely) do not propagate taint"},
      {"observable-commit-order", "graph rule: src, bench, tools",
       "no FileAction/trace/energy/RNG-draw observable reachable from "
       "inside a ParallelFor lambda outside the sanctioned serial-commit/"
       "shard-local functions (SerialCommitSanctioned) — observables must "
       "commit serially in global actor order to stay bit-identical across "
       "jobs/shard counts"},
  };
  return kRules;
}

namespace detail {

inline bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}
inline bool InSrc(std::string_view p) { return StartsWith(p, "src/"); }
inline bool InObs(std::string_view p) { return StartsWith(p, "src/obs/"); }
inline bool InBench(std::string_view p) { return StartsWith(p, "bench/"); }
inline bool InTools(std::string_view p) { return StartsWith(p, "tools/"); }

inline bool IsIdentTok(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}
inline bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

/// Index of the matching closer for the opener at `open`, or tokens.size().
inline std::size_t MatchForward(const std::vector<Token>& toks, std::size_t open,
                                std::string_view opener, std::string_view closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (IsPunct(toks[i], opener)) ++depth;
    else if (IsPunct(toks[i], closer)) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

/// Skips a balanced template-argument list starting at `open` (a '<').
/// Returns the index just past the closing '>'. Understands '>>' closing two
/// levels. Returns open if the construct does not look balanced.
inline std::size_t SkipTemplateArgs(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "<")) ++depth;
    else if (IsPunct(t, ">")) {
      if (--depth == 0) return i + 1;
    } else if (IsPunct(t, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (IsPunct(t, ";") || IsPunct(t, "{")) {
      return open;  // gave up: this '<' was a comparison
    }
  }
  return open;
}

/// The identifier owning the assignment target that ends at token `i`
/// (exclusive): handles `x +=`, `x[i] +=`, `p->x +=`, `a.b +=`.
inline const Token* LhsIdent(const std::vector<Token>& toks, std::size_t op) {
  if (op == 0) return nullptr;
  std::size_t j = op - 1;
  if (IsPunct(toks[j], "]")) {
    int depth = 0;
    while (true) {
      if (IsPunct(toks[j], "]")) ++depth;
      else if (IsPunct(toks[j], "[")) {
        if (--depth == 0) break;
      }
      if (j == 0) return nullptr;
      --j;
    }
    if (j == 0) return nullptr;
    --j;
  }
  return toks[j].kind == Token::Kind::kIdent ? &toks[j] : nullptr;
}

inline const std::set<std::string, std::less<>>& UnorderedTypeNames() {
  static const std::set<std::string, std::less<>> kNames = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  return kNames;
}

/// Names of containers/aliases/variables of unordered type declared in this
/// file, collected with a two-pass heuristic (aliases, then declarations).
inline std::set<std::string, std::less<>> CollectUnorderedNames(const SourceFile& f) {
  std::set<std::string, std::less<>> names(UnorderedTypeNames());
  const auto& toks = f.tokens;
  // Pass 1: using Alias = ... unordered_xxx<...> ...;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdentTok(toks[i], "using") || toks[i + 1].kind != Token::Kind::kIdent ||
        !IsPunct(toks[i + 2], "=")) {
      continue;
    }
    for (std::size_t j = i + 3; j < toks.size() && !IsPunct(toks[j], ";"); ++j) {
      if (toks[j].kind == Token::Kind::kIdent &&
          UnorderedTypeNames().count(toks[j].text) > 0) {
        names.insert(toks[i + 1].text);
        break;
      }
    }
  }
  // Pass 2: <unordered-type> <template-args>? <ident> → a declared variable.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || names.count(toks[i].text) == 0) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && IsPunct(toks[j], "<")) {
      const std::size_t past = SkipTemplateArgs(toks, j);
      if (past == j) continue;
      j = past;
    }
    while (j < toks.size() && (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"))) ++j;
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
        toks[j].text != "const" && names.count(toks[j].text) == 0) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

/// Identifiers declared with a floating-point type in this file (members,
/// locals, parameters): `double x`, `float a = 0, b = 0;`, `double* p`.
inline void CollectFloatIdents(const SourceFile& f,
                               std::set<std::string, std::less<>>* out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(toks[i], "double") && !IsIdentTok(toks[i], "float")) continue;
    std::size_t j = i + 1;
    while (true) {
      while (j < toks.size() &&
             (IsPunct(toks[j], "*") || IsPunct(toks[j], "&") ||
              IsIdentTok(toks[j], "const"))) {
        ++j;
      }
      if (j >= toks.size() || toks[j].kind != Token::Kind::kIdent) break;
      out->insert(toks[j].text);
      ++j;
      // `= <expr>` up to the next top-level ',' or ';' continues the list.
      int depth = 0;
      while (j < toks.size()) {
        const Token& t = toks[j];
        if (IsPunct(t, "(") || IsPunct(t, "[") || IsPunct(t, "{")) ++depth;
        else if (IsPunct(t, ")") || IsPunct(t, "]") || IsPunct(t, "}")) --depth;
        if (depth < 0) { j = toks.size(); break; }
        if (depth == 0 && (IsPunct(t, ",") || IsPunct(t, ";"))) break;
        ++j;
      }
      if (j >= toks.size() || !IsPunct(toks[j], ",")) break;
      ++j;
    }
  }
}

struct RawFinding {
  std::string_view rule;
  int line;
  std::string message;
  std::string symbol;                 ///< graph rules only
  std::vector<std::string> witness;   ///< graph rules only
};

// --- rule: banned-random ---------------------------------------------------

/// Banned RNG type names; shared by the token rule and the taint rule.
inline const std::set<std::string, std::less<>>& BannedRandomTypes() {
  static const std::set<std::string, std::less<>> kTypes = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b", "random_shuffle"};
  return kTypes;
}

/// Banned RNG call names (flag only when followed by '(').
inline const std::set<std::string, std::less<>>& BannedRandomCalls() {
  static const std::set<std::string, std::less<>> kCalls = {"rand", "srand",
                                                            "drand48", "lrand48"};
  return kCalls;
}

/// True when the banned-random token rule applies to a path.
inline bool RandomScope(std::string_view p) { return !InObs(p); }

inline void RuleBannedRandom(const SourceFile& f, std::vector<RawFinding>* out) {
  if (!RandomScope(f.path)) return;
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const bool is_type = BannedRandomTypes().count(toks[i].text) > 0;
    const bool is_call = BannedRandomCalls().count(toks[i].text) > 0 &&
                         i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if (is_type || is_call) {
      out->push_back({"banned-random", toks[i].line,
                      "draw-order RNG source '" + toks[i].text +
                          "' — use emis::Rng streams or CounterHash (seed, "
                          "counter) addressing"});
    }
  }
}

// --- rule: banned-clock ----------------------------------------------------

/// Banned wall-clock names; shared by the token rule and the taint rule.
inline const std::set<std::string, std::less<>>& BannedClockNames() {
  static const std::set<std::string, std::less<>> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock", "clock_gettime",
      "gettimeofday", "timespec_get", "ftime"};
  return kClocks;
}

/// True when the banned-clock token rule applies to a path (benches time
/// themselves freely; src/obs is the sanctioned clock layer).
inline bool ClockScope(std::string_view p) {
  return (InSrc(p) && !InObs(p)) || InTools(p);
}

inline void RuleBannedClock(const SourceFile& f, std::vector<RawFinding>* out) {
  if (!ClockScope(f.path)) return;
  for (const Token& t : f.tokens) {
    if (t.kind == Token::Kind::kIdent && BannedClockNames().count(t.text) > 0) {
      out->push_back({"banned-clock", t.line,
                      "wall-clock source '" + t.text +
                          "' outside src/obs — route timing through "
                          "obs::MonotonicSeconds or obs::ScopedTimer"});
    }
  }
}

// --- rule: unordered-iteration ---------------------------------------------

inline void RuleUnorderedIteration(const SourceFile& f, std::vector<RawFinding>* out) {
  const auto& toks = f.tokens;
  const auto unordered = CollectUnorderedNames(f);
  static const std::set<std::string, std::less<>> kMutators = {
      "push_back", "emplace_back", "emplace", "insert", "Add", "Observe",
      "Inc", "Set", "Merge", "MergeFrom", "Push", "Record", "Append", "append"};
  static const std::set<std::string, std::less<>> kMutatorPuncts = {
      "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdentTok(toks[i], "for") || !IsPunct(toks[i + 1], "(")) continue;
    const std::size_t close = MatchForward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // Range-based for: a ':' at paren depth 1 (tokenizer keeps '::' whole).
    std::size_t colon = toks.size();
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (IsPunct(toks[j], "(")) ++depth;
      else if (IsPunct(toks[j], ")")) --depth;
      else if (depth == 1 && IsPunct(toks[j], ":")) { colon = j; break; }
    }
    bool over_unordered = false;
    std::string range_name;
    if (colon < toks.size()) {
      // Range-based: any unordered name in the range expression.
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            unordered.count(toks[j].text) > 0) {
          over_unordered = true;
          range_name = toks[j].text;
          break;
        }
      }
    } else {
      // Iterator-based: `it = name.begin()` (or cbegin) in the loop header
      // walks the same unspecified bucket order as the range form — the SoA
      // batch passes iterate ids, so any .begin() walk here is suspect.
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            unordered.count(toks[j].text) > 0 && IsPunct(toks[j + 1], ".") &&
            (IsIdentTok(toks[j + 2], "begin") ||
             IsIdentTok(toks[j + 2], "cbegin"))) {
          over_unordered = true;
          range_name = toks[j].text;
          break;
        }
      }
    }
    if (!over_unordered) continue;
    // Body: a braced block or a single statement.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < toks.size() && IsPunct(toks[body_begin], "{")) {
      body_end = MatchForward(toks, body_begin, "{", "}");
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && !IsPunct(toks[body_end], ";")) ++body_end;
    }
    for (std::size_t j = body_begin; j < body_end && j < toks.size(); ++j) {
      const Token& t = toks[j];
      const bool mutator_call = t.kind == Token::Kind::kIdent &&
                                kMutators.count(t.text) > 0 &&
                                j + 1 < toks.size() && IsPunct(toks[j + 1], "(");
      const bool mutator_op =
          t.kind == Token::Kind::kPunct && kMutatorPuncts.count(t.text) > 0;
      if (mutator_call || mutator_op) {
        out->push_back(
            {"unordered-iteration", toks[i].line,
             "iteration over unordered container '" + range_name +
                 "' accumulates into results ('" + t.text +
                 "' in the loop body) — unordered iteration order is "
                 "unspecified; iterate a sorted copy or keyed order"});
        break;
      }
    }
  }
}

// --- rule: raw-assert ------------------------------------------------------

inline void RuleRawAssert(const SourceFile& f, std::vector<RawFinding>* out) {
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (IsIdentTok(toks[i], "assert") && IsPunct(toks[i + 1], "(")) {
      out->push_back({"raw-assert", toks[i].line,
                      "raw assert() — use the leveled contracts layer "
                      "(EMIS_EXPECTS/EMIS_ENSURES/EMIS_INVARIANT/"
                      "EMIS_UNREACHABLE from core/contracts.hpp)"});
    }
  }
}

// --- rule: io-in-library ---------------------------------------------------

/// Library files sanctioned to open files for writing: the telemetry
/// stream's OpenTelemetryStream is the library's one write path (everything
/// else writes through caller-provided std::ostream&). Growing this list is
/// an API-review decision, not a lint tweak.
inline const std::set<std::string, std::less<>>& IoWriteWaivers() {
  static const std::set<std::string, std::less<>> kWaived = {
      "src/obs/stream_sink.cpp",
  };
  return kWaived;
}

inline void RuleIoInLibrary(const SourceFile& f, std::vector<RawFinding>* out) {
  if (!InSrc(f.path)) return;
  const auto& toks = f.tokens;
  // Console I/O: banned in all library code except src/obs (whose sinks own
  // rendering); reads (ifstream) stay legal everywhere.
  if (!InObs(f.path)) {
    static const std::set<std::string, std::less<>> kStreams = {"cout", "cerr", "clog"};
    static const std::set<std::string, std::less<>> kCalls = {
        "printf", "fprintf", "puts", "fputs", "putchar", "vprintf", "vfprintf"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent) continue;
      const bool stream = kStreams.count(toks[i].text) > 0;
      const bool call = kCalls.count(toks[i].text) > 0 && i + 1 < toks.size() &&
                        IsPunct(toks[i + 1], "(");
      if (stream || call) {
        out->push_back({"io-in-library", toks[i].line,
                        "console I/O '" + toks[i].text +
                            "' in library code — emit through obs/ sinks "
                            "(trace, report) or return data to the caller"});
      }
    }
  }
  // File-opening-for-write: banned in ALL of src/ — including src/obs —
  // except the waiver list. Library code takes std::ostream& from the
  // caller; only the sanctioned telemetry opener names destinations itself.
  if (IoWriteWaivers().count(f.path) == 0) {
    static const std::set<std::string, std::less<>> kWriters = {
        "ofstream", "fopen", "freopen"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent ||
          kWriters.count(toks[i].text) == 0) {
        continue;
      }
      out->push_back({"io-in-library", toks[i].line,
                      "file-writing I/O '" + toks[i].text +
                          "' in library code — take a std::ostream& from the "
                          "caller, or add the file to the sanctioned waiver "
                          "list (emis_lint IoWriteWaivers)"});
    }
  }
}

// --- rule: float-accumulate-in-reduce --------------------------------------

inline void RuleFloatAccumulateInReduce(
    const SourceFile& f, const std::set<std::string, std::less<>>& float_idents,
    std::vector<RawFinding>* out) {
  if (!InSrc(f.path)) return;
  static const std::set<std::string, std::less<>> kReduceNames = {
      "Merge", "MergeFrom", "Reduce", "Combine", "Accumulate"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || kReduceNames.count(toks[i].text) == 0 ||
        !IsPunct(toks[i + 1], "(")) {
      continue;
    }
    const std::size_t params_end = MatchForward(toks, i + 1, "(", ")");
    if (params_end >= toks.size()) continue;
    // Definition? Skip const/noexcept/override/trailing-return up to '{';
    // a ';' (declaration) or anything else (a call) ends the attempt.
    std::size_t j = params_end + 1;
    bool is_definition = false;
    while (j < toks.size()) {
      const Token& t = toks[j];
      if (IsPunct(t, "{")) { is_definition = true; break; }
      if (IsIdentTok(t, "const") || IsIdentTok(t, "noexcept") ||
          IsIdentTok(t, "override") || IsIdentTok(t, "final") ||
          IsPunct(t, "->") || IsPunct(t, "::") || t.kind == Token::Kind::kIdent) {
        ++j;
        continue;
      }
      break;
    }
    if (!is_definition) continue;
    const std::size_t body_end = MatchForward(toks, j, "{", "}");
    for (std::size_t k = j; k < body_end && k < toks.size(); ++k) {
      if (!IsPunct(toks[k], "+=") && !IsPunct(toks[k], "-=")) continue;
      const Token* lhs = LhsIdent(toks, k);
      if (lhs != nullptr && float_idents.count(lhs->text) > 0) {
        out->push_back(
            {"float-accumulate-in-reduce", toks[k].line,
             "floating-point accumulation '" + lhs->text + " " + toks[k].text +
                 "' inside reduce path '" + toks[i].text +
                 "' — float reduction is order-sensitive; use integral "
                 "units, or waive with a fixed-merge-order justification"});
      }
    }
  }
}

// --- rule: rng-seed-from-draw ----------------------------------------------

/// Rng draw-method names; shared with observable-commit-order (a draw inside
/// a parallel region perturbs the stream's draw order).
inline const std::set<std::string, std::less<>>& RngDrawNames() {
  static const std::set<std::string, std::less<>> kDraws = {
      "NextU64", "UniformBelow", "UniformInRange", "UniformUnit", "Bernoulli",
      "Bit", "GeometricHalf", "GeometricSkip", "Geometric", "RandomBits"};
  return kDraws;
}

inline void RuleRngSeedFromDraw(const SourceFile& f, std::vector<RawFinding>* out) {
  const auto& kDraws = RngDrawNames();
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdentTok(toks[i], "Rng")) continue;
    // `class Rng {` / `struct Rng {` is the type's own definition, not a
    // construction — scanning its body would flag the draw methods themselves.
    if (i > 0 && (IsIdentTok(toks[i - 1], "class") || IsIdentTok(toks[i - 1], "struct") ||
                  IsIdentTok(toks[i - 1], "enum"))) {
      continue;
    }
    std::size_t open = i + 1;
    if (open < toks.size() && toks[open].kind == Token::Kind::kIdent) ++open;
    if (open >= toks.size()) continue;
    const bool paren = IsPunct(toks[open], "(");
    const bool brace = IsPunct(toks[open], "{");
    if (!paren && !brace) continue;
    const std::size_t close = paren ? MatchForward(toks, open, "(", ")")
                                    : MatchForward(toks, open, "{", "}");
    for (std::size_t j = open + 1; j < close && j < toks.size(); ++j) {
      if (toks[j].kind == Token::Kind::kIdent && kDraws.count(toks[j].text) > 0) {
        out->push_back(
            {"rng-seed-from-draw", toks[i].line,
             "Rng stream seeded from another stream's draw ('" + toks[j].text +
                 "') — seeds become draw-order-dependent; derive children "
                 "with Rng::Split(stream_id) or CounterHash named streams"});
        break;
      }
    }
  }
}

// --- rule: raw-thread ------------------------------------------------------

/// Files sanctioned to spawn OS threads: the persistent worker pool is the
/// repo's single execution layer — everything else (sweeps, sharded rounds)
/// dispatches through par::ParallelFor. Growing this list is an API-review
/// decision, not a lint tweak.
inline const std::set<std::string, std::less<>>& RawThreadWaivers() {
  static const std::set<std::string, std::less<>> kWaived = {
      "src/verify/parallel.cpp",
  };
  return kWaived;
}

inline void RuleRawThread(const SourceFile& f, std::vector<RawFinding>* out) {
  const bool scoped = InSrc(f.path) || InBench(f.path) || InTools(f.path);
  if (!scoped || RawThreadWaivers().count(f.path) > 0) return;
  static const std::set<std::string, std::less<>> kSpawners = {"thread",
                                                               "jthread", "async"};
  const auto& toks = f.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!IsIdentTok(toks[i], "std") || !IsPunct(toks[i + 1], "::") ||
        toks[i + 2].kind != Token::Kind::kIdent ||
        kSpawners.count(toks[i + 2].text) == 0) {
      continue;
    }
    // std::thread::hardware_concurrency() is a read of machine shape, not a
    // spawn — the pool sizes itself with it, and callers may too.
    if (i + 4 < toks.size() && IsPunct(toks[i + 3], "::") &&
        IsIdentTok(toks[i + 4], "hardware_concurrency")) {
      continue;
    }
    out->push_back({"raw-thread", toks[i + 2].line,
                    "raw thread spawn 'std::" + toks[i + 2].text +
                        "' outside src/verify/parallel.cpp — dispatch through "
                        "par::ParallelFor so the persistent pool owns every "
                        "OS thread (or extend emis_lint RawThreadWaivers)"});
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Corpus + engine

struct Corpus {
  std::vector<SourceFile> files;
};

/// Path stem for sibling pairing: "src/obs/metrics.cpp" → "src/obs/metrics".
/// Declarations in metrics.hpp inform rules run over metrics.cpp and back.
inline std::string Stem(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return std::string(dot == std::string_view::npos ? path : path.substr(0, dot));
}

// ---------------------------------------------------------------------------
// Pass 1: project-wide symbol index and approximate call graph
//
// Function definitions are found syntactically (`name ( params ) [quals] {`,
// including constructor init lists), call sites are `name (` tokens inside a
// body, and calls merge by unqualified name across translation units — the
// same name-merge approximation a human uses reading grep output. Lambdas
// passed to par::ParallelFor are indexed separately as "parallel regions"
// with their capture lists; the graph rules treat them as roots.

/// One call site inside a function body or parallel region.
struct CallSite {
  std::string name;      ///< callee identifier
  /// Root of the receiver chain for qualified/member calls:
  /// `Pool::Instance().Run(...)` → "Pool", `scheduler.Run()` → "scheduler",
  /// empty for unqualified calls. Disambiguates the Pool::Run dispatch sink
  /// from unrelated methods that happen to be named Run.
  std::string receiver;
  int line = 0;
};

/// One syntactic function definition.
struct FunctionDef {
  std::string name;       ///< unqualified name ("Run")
  std::string qualified;  ///< "Scheduler::Run" when defined out-of-class
  std::size_t file = 0;   ///< index into Corpus::files
  int line = 0;
  std::size_t body_begin = 0;  ///< token index of '{'
  std::size_t body_end = 0;    ///< token index of matching '}'
  std::vector<CallSite> calls;
  /// The definition READS par's tl_in_pool_worker guard (not just assigns
  /// it): nested calls run inline, so reaching this dispatcher from inside
  /// a parallel region cannot re-enter the pool. This is the machine-checked
  /// signature of the PR 8 fix (src/verify/parallel.cpp ParallelFor).
  bool reads_pool_guard = false;
};

/// A lambda passed to par::ParallelFor — the root of a parallel region.
struct ParallelRegion {
  std::size_t file = 0;
  int line = 0;                 ///< line of the ParallelFor call
  std::string enclosing;        ///< name of the enclosing function, if any
  bool captures_by_ref = false; ///< capture list contains '&' or 'this'
  std::vector<std::string> captures;  ///< identifiers named in the capture list
  std::vector<std::string> params;    ///< lambda parameter names
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::vector<CallSite> calls;
};

struct SymbolIndex {
  std::vector<FunctionDef> functions;
  std::vector<ParallelRegion> regions;
  /// Unqualified name → indices into `functions` (overloads and same-named
  /// methods merge — the deliberate approximation).
  std::map<std::string, std::vector<std::size_t>, std::less<>> by_name;
  std::size_t call_edges = 0;  ///< total call sites recorded
};

namespace detail {

/// Keywords that look like `ident (` but are never calls or definitions.
inline const std::set<std::string, std::less<>>& Keywords() {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if", "for", "while", "switch", "return", "sizeof", "alignof",
      "catch", "new", "delete", "throw", "else", "do", "case", "default",
      "break", "continue", "goto", "using", "namespace", "template",
      "typename", "class", "struct", "enum", "union", "public", "private",
      "protected", "static_assert", "static_cast", "const_cast",
      "reinterpret_cast", "dynamic_cast", "co_await", "co_return",
      "co_yield", "operator", "decltype", "noexcept", "alignas", "const",
      "constexpr", "consteval", "constinit", "static", "inline", "virtual",
      "explicit", "friend", "mutable", "auto", "void", "int", "bool",
      "char", "float", "double", "unsigned", "signed", "long", "short",
      "true", "false", "nullptr", "this", "try", "requires", "concept",
      "typedef", "extern", "thread_local", "volatile"};
  return kKeywords;
}

/// Root identifier of the receiver chain ending just before token `i` (the
/// callee name): walks left over `.`/`->`/`::` components and balanced
/// `(...)`/`[...]` groups. `Pool::Instance().Run` → "Pool"; returns "" when
/// the chain does not start at a plain identifier.
inline std::string ReceiverRoot(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return "";
  std::size_t j = i - 1;
  if (!IsPunct(toks[j], ".") && !IsPunct(toks[j], "->") && !IsPunct(toks[j], "::")) {
    return "";
  }
  std::string root;
  while (true) {
    if (j == 0) return root;
    --j;  // step onto the component left of the separator
    // Skip one balanced () or [] group (a call or index in the chain).
    while (IsPunct(toks[j], ")") || IsPunct(toks[j], "]")) {
      const std::string_view closer = toks[j].text;
      const std::string_view opener = closer == ")" ? "(" : "[";
      int depth = 0;
      while (true) {
        if (IsPunct(toks[j], closer)) ++depth;
        else if (IsPunct(toks[j], opener) && --depth == 0) break;
        if (j == 0) return root;
        --j;
      }
      if (j == 0) return root;
      --j;
    }
    if (toks[j].kind != Token::Kind::kIdent) return root;
    root = toks[j].text;
    if (j == 0 || (!IsPunct(toks[j - 1], ".") && !IsPunct(toks[j - 1], "->") &&
                   !IsPunct(toks[j - 1], "::"))) {
      return root;
    }
    --j;  // onto the separator; loop steps past it
  }
}

/// Collects `name (` call sites in token range [begin, end).
inline void CollectCalls(const std::vector<Token>& toks, std::size_t begin,
                         std::size_t end, std::vector<CallSite>* out) {
  for (std::size_t i = begin; i < end && i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || !IsPunct(toks[i + 1], "(") ||
        Keywords().count(toks[i].text) > 0) {
      continue;
    }
    out->push_back({toks[i].text, ReceiverRoot(toks, i), toks[i].line});
  }
}

/// True when [begin, end) contains a READ of `tl_in_pool_worker` (an
/// occurrence not immediately followed by '='). Assignments alone mark the
/// dispatcher itself, not a re-entrancy guard.
inline bool ReadsPoolGuard(const std::vector<Token>& toks, std::size_t begin,
                           std::size_t end) {
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (IsIdentTok(toks[i], "tl_in_pool_worker") &&
        (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "="))) {
      return true;
    }
  }
  return false;
}

/// Matches a function definition whose name is at `i` (name already checked
/// to be a non-keyword ident followed by '('). On success fills body range
/// and returns true. Handles `const/noexcept/override/final`, trailing
/// return types, and constructor init lists between the ')' and the '{'.
inline bool MatchFunctionDef(const std::vector<Token>& toks, std::size_t i,
                             std::size_t* body_begin, std::size_t* body_end) {
  const std::size_t params_end = MatchForward(toks, i + 1, "(", ")");
  if (params_end >= toks.size()) return false;
  std::size_t j = params_end + 1;
  bool in_init_list = false;
  while (j < toks.size()) {
    const Token& t = toks[j];
    if (IsPunct(t, "{")) {
      if (in_init_list) {
        // Could be a member's brace-init `x_{0}` rather than the body: it is
        // the body iff the token after the matching '}' is not ',' or '{'.
        const std::size_t close = MatchForward(toks, j, "{", "}");
        if (close + 1 < toks.size() && (IsPunct(toks[close + 1], ",") ||
                                        IsPunct(toks[close + 1], "{"))) {
          j = close + 1;
          continue;
        }
      }
      *body_begin = j;
      *body_end = MatchForward(toks, j, "{", "}");
      return *body_end < toks.size();
    }
    if (IsPunct(t, ":")) { in_init_list = true; ++j; continue; }
    if (IsPunct(t, "(")) { j = MatchForward(toks, j, "(", ")") + 1; continue; }
    if (IsPunct(t, "<")) {
      const std::size_t past = SkipTemplateArgs(toks, j);
      if (past == j) return false;
      j = past;
      continue;
    }
    if (t.kind == Token::Kind::kIdent || IsPunct(t, "->") || IsPunct(t, "::") ||
        IsPunct(t, "&") || IsPunct(t, "&&") || IsPunct(t, "*") ||
        (in_init_list && IsPunct(t, ","))) {
      ++j;
      continue;
    }
    return false;
  }
  return false;
}

/// Extracts the lambda argument of a ParallelFor call whose name token is at
/// `i`. Fills the region's capture/param/body fields; returns false when the
/// argument list holds no lambda (e.g. the ParallelFor definition itself).
inline bool MatchParallelRegion(const std::vector<Token>& toks, std::size_t i,
                                ParallelRegion* region) {
  const std::size_t args_end = MatchForward(toks, i + 1, "(", ")");
  if (args_end >= toks.size()) return false;
  for (std::size_t j = i + 2; j < args_end; ++j) {
    if (!IsPunct(toks[j], "[")) continue;
    const std::size_t cap_end = MatchForward(toks, j, "[", "]");
    if (cap_end >= args_end) return false;
    for (std::size_t c = j; c <= cap_end; ++c) {
      if (IsPunct(toks[c], "&") || IsIdentTok(toks[c], "this")) {
        region->captures_by_ref = true;
      }
      if (toks[c].kind == Token::Kind::kIdent && !IsIdentTok(toks[c], "this")) {
        region->captures.push_back(toks[c].text);
      }
    }
    std::size_t k = cap_end + 1;
    if (k < args_end && IsPunct(toks[k], "(")) {
      const std::size_t params_end = MatchForward(toks, k, "(", ")");
      // Last identifier of each comma-separated parameter is its name (an
      // unnamed param contributes its type's last ident — harmless).
      std::size_t last_ident = toks.size();
      for (std::size_t p = k + 1; p <= params_end && p < toks.size(); ++p) {
        if (IsPunct(toks[p], ",") || p == params_end) {
          if (last_ident < toks.size()) region->params.push_back(toks[last_ident].text);
          last_ident = toks.size();
        } else if (toks[p].kind == Token::Kind::kIdent) {
          last_ident = p;
        }
      }
      k = params_end + 1;
    }
    while (k < args_end && (IsIdentTok(toks[k], "mutable") ||
                            IsIdentTok(toks[k], "noexcept") ||
                            IsPunct(toks[k], "->") ||
                            toks[k].kind == Token::Kind::kIdent ||
                            IsPunct(toks[k], "::"))) {
      ++k;
    }
    if (k >= args_end || !IsPunct(toks[k], "{")) return false;
    region->body_begin = k;
    region->body_end = MatchForward(toks, k, "{", "}");
    region->line = toks[i].line;
    return region->body_end < toks.size();
  }
  return false;
}

}  // namespace detail

/// Builds the project-wide symbol index over an already-lexed corpus (the
/// single-tokenize discipline: Lex ran once per file; everything here and in
/// every rule reuses those tokens).
inline SymbolIndex BuildIndex(const Corpus& corpus) {
  SymbolIndex index;
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const SourceFile& f = corpus.files[fi];
    const auto& toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Token::Kind::kIdent ||
          !detail::IsPunct(toks[i + 1], "(") ||
          detail::Keywords().count(toks[i].text) > 0) {
        continue;
      }
      FunctionDef def;
      if (!detail::MatchFunctionDef(toks, i, &def.body_begin, &def.body_end)) {
        // Not a definition; if it sits inside some body it is recorded as a
        // call site by the enclosing definition's CollectCalls.
        continue;
      }
      def.name = toks[i].text;
      def.qualified = def.name;
      if (i >= 2 && detail::IsPunct(toks[i - 1], "::") &&
          toks[i - 2].kind == Token::Kind::kIdent) {
        def.qualified = toks[i - 2].text + "::" + def.name;
      }
      def.file = fi;
      def.line = toks[i].line;
      detail::CollectCalls(toks, def.body_begin + 1, def.body_end, &def.calls);
      def.reads_pool_guard =
          detail::ReadsPoolGuard(toks, def.body_begin + 1, def.body_end);
      index.call_edges += def.calls.size();
      index.by_name[def.name].push_back(index.functions.size());
      index.functions.push_back(std::move(def));
    }
    // Parallel regions: every ParallelFor call site carrying a lambda.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!detail::IsIdentTok(toks[i], "ParallelFor") ||
          !detail::IsPunct(toks[i + 1], "(")) {
        continue;
      }
      ParallelRegion region;
      if (!detail::MatchParallelRegion(toks, i, &region)) continue;
      region.file = fi;
      for (const FunctionDef& def : index.functions) {
        if (def.file == fi && def.body_begin < i && i < def.body_end) {
          region.enclosing = def.name;
        }
      }
      detail::CollectCalls(toks, region.body_begin + 1, region.body_end,
                           &region.calls);
      index.call_edges += region.calls.size();
      index.regions.push_back(std::move(region));
    }
  }
  return index;
}

// ---------------------------------------------------------------------------
// Pass 2: graph-aware rules
//
// All four rules consume the SymbolIndex; none re-tokenizes. Traversals
// merge callees by unqualified name (see BuildIndex), so a chain through an
// overload set explores every definition — false positives are disambiguated
// by receiver roots and guard reads, false negatives are documented in
// DESIGN.md §14.

namespace detail {

/// True when `line` (or the line above it, or the whole file) carries an
/// `// emis-lint: allow(rule)` waiver. Shared by Lint's suppression pass and
/// the taint rules (a waived direct use must not seed transitive taint).
inline bool LineWaived(const SourceFile& f, int line, const std::string& rule) {
  return f.file_allows.count(rule) > 0 || f.file_allows.count("*") > 0 ||
         f.allows.count({line, rule}) > 0 || f.allows.count({line, "*"}) > 0 ||
         f.allows.count({line - 1, rule}) > 0 ||
         f.allows.count({line - 1, "*"}) > 0;
}

/// One witness-chain hop: "<file>:<line> <name>".
inline std::string Hop(const Corpus& corpus, std::size_t file, int line,
                       const std::string& name) {
  return corpus.files[file].path + ":" + std::to_string(line) + " " + name;
}

// --- rule: nested-dispatch -------------------------------------------------

/// True when the call site is a dispatch-layer entry: ParallelFor and
/// RunSweep by name, Run only when the receiver chain roots at Pool
/// (`Pool::Instance().Run(...)`) — an unrelated `scheduler.Run()` is not a
/// sink, it is an edge to descend through.
inline bool IsDispatchSink(const CallSite& c) {
  if (c.name == "ParallelFor" || c.name == "RunSweep") return true;
  return c.name == "Run" && c.receiver == "Pool";
}

/// A ParallelFor sink is safe when every indexed definition of ParallelFor
/// READS tl_in_pool_worker: nested calls run inline instead of re-entering
/// the pool (the PR 8 fix, machine-checked). RunSweep and Pool::Run carry no
/// such guard, so they are never safe from inside a region.
inline bool SinkIsGuarded(const SymbolIndex& index, const CallSite& c) {
  if (c.name != "ParallelFor") return false;
  const auto it = index.by_name.find(c.name);
  if (it == index.by_name.end() || it->second.empty()) return false;
  for (const std::size_t d : it->second) {
    if (!index.functions[d].reads_pool_guard) return false;
  }
  return true;
}

/// Flags any call-graph path from a parallel-region body back into the
/// dispatch layer. The pool serializes dispatches on a non-recursive mutex,
/// so re-entry from a worker self-deadlocks (the PR 8 bug shape).
inline void RuleNestedDispatch(const Corpus& corpus, const SymbolIndex& index,
                               std::vector<std::vector<RawFinding>>* raw_by_file) {
  for (const ParallelRegion& region : index.regions) {
    std::set<std::string> visited;  // function names already explored
    std::set<std::string> flagged;  // sink labels already reported
    std::vector<std::string> path;  // witness hops down to the current calls
    const auto visit = [&](const auto& self, const std::vector<CallSite>& calls,
                           std::size_t call_file) -> void {
      for (const CallSite& c : calls) {
        if (IsDispatchSink(c)) {
          if (SinkIsGuarded(index, c)) continue;
          const std::string sink = c.name == "Run" ? "Pool::Run" : c.name;
          if (!flagged.insert(sink).second) continue;
          RawFinding finding{"nested-dispatch", region.line,
                             "parallel region" +
                                 (region.enclosing.empty()
                                      ? std::string()
                                      : " in '" + region.enclosing + "'") +
                                 " re-enters the dispatch layer through '" +
                                 sink +
                                 "' — nested dispatch self-deadlocks on the "
                                 "pool's non-recursive dispatch mutex; guard "
                                 "the dispatcher with a tl_in_pool_worker "
                                 "read so nested calls run inline"};
          finding.symbol = region.enclosing.empty() ? sink : region.enclosing;
          finding.witness = path;
          finding.witness.push_back(Hop(corpus, call_file, c.line, sink));
          (*raw_by_file)[region.file].push_back(std::move(finding));
          continue;
        }
        const auto it = index.by_name.find(c.name);
        if (it == index.by_name.end()) continue;
        if (!visited.insert(c.name).second) continue;
        for (const std::size_t d : it->second) {
          const FunctionDef& def = index.functions[d];
          path.push_back(Hop(corpus, call_file, c.line, c.name));
          self(self, def.calls, def.file);
          path.pop_back();
        }
      }
    };
    visit(visit, region.calls, region.file);
  }
}

// --- rule: parallel-region-mutation ----------------------------------------

/// Shared state the scheduler's sharded passes write in parallel by design.
/// Each entry must be provably race-free; justifications live here so a
/// reviewer touching the list confronts them (details in DESIGN.md §14):
///   ctx_hot_ /           per-node hot/cold context halves (parallel arrays,
///   ctx_cold_            radio/process.hpp) — the shard cut makes writes
///                        row-disjoint; cross-node effects commit in a
///                        serial filing pass (pinned by test_sharded_run).
///   tx_buffers_          per-shard Channel::TxShardBuffer stamping buffers,
///                        merged serially in fixed shard order (MergeTxShard).
///   shard_tx_count_ /    per-shard counters, one writer each, committed
///   shard_listen_count_  once per round by CommitShardTotals.
///   phase_notes_         per-shard phase-annotation buffers: a step appends
///                        only to its node's shard buffer (the node's cold
///                        context points there), one writer per shard, and
///                        FileAction replays them into the timeline serially
///                        in batch order.
///   rows_                ResidualGraph's row metadata (radio/graph.cpp).
///                        Both retire passes (RetireBatch's walk and
///                        rebuild) write a RowMeta, or shrink a row into its
///                        overlay slot (disjoint per row), only for rows
///                        inside their own part of the cut. The walk's
///                        other-part reads are the batch members' entries,
///                        which no part rewrites while the batch runs
///                        (counter-only shrink), and each part replays
///                        aliveness in its own bitset (part 0's is active_,
///                        read by no other part during the pass); the
///                        rebuild reads only its own rows and the final
///                        active_. Totals are per-part tallies summed after
///                        the join (pinned by test_residual_compaction's
///                        batch-vs-sequential property test and
///                        test_sharded_run's counters).
///   edge_slots           the G(n, p) sampler's pending-edge slots
///                        (radio/graph_generators.cpp): chunk c writes only
///                        slots [c * kSamplerChunkDraws, (c + 1) * ...),
///                        reserved in chunk order before the dispatch; all
///                        draws stay on the caller.
///   part_cursors /       GraphBuilder::Build's per-part row histograms
///   csr_adjacency /      (turned cursors), the CSR it scatters into and
///   deduped_degree       the per-row degrees a dedup build collapses to
///                        (radio/graph.cpp). Part p counts and scatters
///                        only its own slice of the pending edges and
///                        touches only part_cursors[p]; the serial prefix
///                        over (row, part) gives each part a disjoint range
///                        of every row, so its csr_adjacency writes never
///                        meet another part's, and each row keeps insertion
///                        order. The row pass sorts, and records
///                        deduped_degree for, only the rows of its own
///                        edge-balanced range (pinned by test_generators'
///                        CsrBytesArePinned and SameBytesInlineAndDispatched).
inline const std::set<std::string, std::less<>>& ParallelWriteSanctioned() {
  static const std::set<std::string, std::less<>> kSanctioned = {
      "ctx_hot_", "ctx_cold_", "tx_buffers_", "shard_tx_count_",
      "shard_listen_count_", "phase_notes_", "rows_", "edge_slots",
      "part_cursors", "csr_adjacency", "deduped_degree"};
  return kSanctioned;
}

/// Root identifier of the assignment target ending just before the write
/// operator at `op`: walks back over `.`/`->` member chains and balanced
/// `[...]` index groups, stopping at `lo`. `ctx.now = t` → "ctx",
/// `counts_[s] += 1` → "counts_", `*p = x` → "p". Returns "" for targets the
/// walk cannot root (parenthesized or call-result LHS — a documented
/// false-negative edge).
inline std::string LhsRootIdent(const std::vector<Token>& toks, std::size_t op,
                                std::size_t lo) {
  if (op == 0 || op <= lo + 1) return "";
  std::size_t j = op - 1;
  while (true) {
    if (IsPunct(toks[j], "]")) {
      int depth = 0;
      while (true) {
        if (IsPunct(toks[j], "]")) ++depth;
        else if (IsPunct(toks[j], "[") && --depth == 0) break;
        if (j <= lo) return "";
        --j;
      }
      if (j <= lo) return "";
      --j;
      continue;
    }
    if (toks[j].kind == Token::Kind::kIdent) {
      if (j > lo + 1 && (IsPunct(toks[j - 1], ".") || IsPunct(toks[j - 1], "->"))) {
        j -= 2;
        continue;
      }
      return toks[j].text;
    }
    return "";
  }
}

/// Container-mutating member calls treated as writes to their receiver.
inline const std::set<std::string, std::less<>>& MutatingMemberCalls() {
  static const std::set<std::string, std::less<>> kMutators = {
      "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
      "resize", "assign", "Add", "Set", "Push", "Record", "Append",
      "Observe", "Accumulate", "Merge"};
  return kMutators;
}

/// Scans one parallel-region body for writes whose target roots outside the
/// lambda's own locals/params/value-captures and is not sanctioned.
inline void ScanRegionMutations(const Corpus& corpus,
                                const ParallelRegion& region,
                                std::vector<RawFinding>* out) {
  const auto& toks = corpus.files[region.file].tokens;
  const std::size_t lo = region.body_begin;
  const std::size_t hi = region.body_end;

  // Names owned by the lambda: its parameters, plus (when the capture list
  // is explicit by-value) the copied captures.
  std::set<std::string, std::less<>> locals(region.params.begin(),
                                            region.params.end());
  if (!region.captures_by_ref) {
    locals.insert(region.captures.begin(), region.captures.end());
  }

  // Declaration pre-pass: `[const] qualified-type [<args>] [*&]* name` adds
  // `name` to the locals and records its initializing '=' so the write scan
  // skips it. Handles comma declarator lists and range-for heads.
  static const std::set<std::string, std::less<>> kTypeKeywords = {
      "auto", "unsigned", "signed", "int", "long", "short", "char", "bool",
      "float", "double"};
  std::set<std::size_t> decl_inits;
  for (std::size_t i = lo + 1; i < hi; ++i) {
    std::size_t j = i;
    if (IsIdentTok(toks[j], "const") || IsIdentTok(toks[j], "constexpr")) ++j;
    if (j >= hi || toks[j].kind != Token::Kind::kIdent) continue;
    if (Keywords().count(toks[j].text) > 0 && kTypeKeywords.count(toks[j].text) == 0) {
      continue;
    }
    // Qualified type components: A::B::C.
    while (j + 2 < hi && IsPunct(toks[j + 1], "::") &&
           toks[j + 2].kind == Token::Kind::kIdent) {
      j += 2;
    }
    std::size_t k = j + 1;
    if (k < hi && IsPunct(toks[k], "<")) {
      const std::size_t past = SkipTemplateArgs(toks, k);
      if (past == k) continue;  // '<' was a comparison, not template args
      k = past;
    }
    // Further type keywords (`unsigned long long`) and cv/ref/ptr sigils.
    while (k < hi && (IsIdentTok(toks[k], "const") ||
                      (toks[k].kind == Token::Kind::kIdent &&
                       kTypeKeywords.count(toks[k].text) > 0) ||
                      IsPunct(toks[k], "&") || IsPunct(toks[k], "&&") ||
                      IsPunct(toks[k], "*"))) {
      ++k;
    }
    if (k >= hi || toks[k].kind != Token::Kind::kIdent ||
        Keywords().count(toks[k].text) > 0) {
      continue;
    }
    // Declarator list: name then '=', '{', '(', ';', ',' or ':' (range-for).
    while (true) {
      if (k + 1 >= hi || !(IsPunct(toks[k + 1], "=") || IsPunct(toks[k + 1], "{") ||
                           IsPunct(toks[k + 1], "(") || IsPunct(toks[k + 1], ";") ||
                           IsPunct(toks[k + 1], ",") || IsPunct(toks[k + 1], ":"))) {
        break;
      }
      locals.insert(toks[k].text);
      std::size_t t = k + 1;
      if (IsPunct(toks[t], "=")) decl_inits.insert(t);
      // Advance past the initializer to the declarator separator.
      int depth = 0;
      while (t < hi) {
        if (IsPunct(toks[t], "(") || IsPunct(toks[t], "[") || IsPunct(toks[t], "{")) {
          ++depth;
        } else if (IsPunct(toks[t], ")") || IsPunct(toks[t], "]") ||
                   IsPunct(toks[t], "}")) {
          if (--depth < 0) { t = hi; break; }
        } else if (depth == 0 && (IsPunct(toks[t], ",") || IsPunct(toks[t], ";") ||
                                  IsPunct(toks[t], ":"))) {
          break;
        }
        ++t;
      }
      if (t >= hi || !IsPunct(toks[t], ",")) break;
      k = t + 1;
      if (k >= hi || toks[k].kind != Token::Kind::kIdent ||
          Keywords().count(toks[k].text) > 0) {
        break;
      }
    }
  }

  // Write scan: assignment/compound-assignment operators, ++/--, and
  // mutating member calls whose receiver roots outside the locals.
  static const std::set<std::string, std::less<>> kWriteOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};
  for (std::size_t i = lo + 1; i < hi; ++i) {
    const Token& t = toks[i];
    std::string root;
    if (t.kind == Token::Kind::kPunct && kWriteOps.count(t.text) > 0) {
      if (decl_inits.count(i) > 0) continue;
      root = LhsRootIdent(toks, i, lo);
    } else if (t.kind == Token::Kind::kPunct &&
               (t.text == "++" || t.text == "--")) {
      if (i + 1 < hi && toks[i + 1].kind == Token::Kind::kIdent) {
        root = toks[i + 1].text;  // prefix
      } else {
        root = LhsRootIdent(toks, i, lo);  // postfix
      }
    } else if (t.kind == Token::Kind::kIdent &&
               MutatingMemberCalls().count(t.text) > 0 && i + 1 < hi &&
               IsPunct(toks[i + 1], "(") && i > lo + 1 &&
               (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      root = ReceiverRoot(toks, i);
    } else {
      continue;
    }
    if (root.empty() || locals.count(root) > 0 ||
        ParallelWriteSanctioned().count(root) > 0) {
      continue;
    }
    RawFinding finding{"parallel-region-mutation", t.line,
                       "write to captured shared state '" + root +
                           "' inside a ParallelFor lambda" +
                           (region.enclosing.empty()
                                ? std::string()
                                : " (in '" + region.enclosing + "')") +
                           " — parallel mutation of shared state breaks the "
                           "bit-identical contract; write a per-index slot "
                           "and commit serially, or sanction the symbol with "
                           "a shard-disjointness justification"};
    finding.symbol = root;
    out->push_back(std::move(finding));
  }
}

inline void RuleParallelRegionMutation(
    const Corpus& corpus, const SymbolIndex& index,
    std::vector<std::vector<RawFinding>>* raw_by_file) {
  for (const ParallelRegion& region : index.regions) {
    ScanRegionMutations(corpus, region, &(*raw_by_file)[region.file]);
  }
}

// --- rules: banned-random-taint / banned-clock-taint ------------------------

/// First un-waived direct banned-source use inside [begin, end); fills line
/// and the offending name. A use waived for the base token rule (or the
/// taint rule) is deliberate and must not seed transitive taint — otherwise
/// one justified waiver would cascade into findings at every caller.
inline bool DirectBannedUse(const SourceFile& f, std::size_t begin,
                            std::size_t end, bool clock, int* line,
                            std::string* what) {
  const std::string base(clock ? "banned-clock" : "banned-random");
  const std::string taint = base + "-taint";
  const auto& toks = f.tokens;
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    bool hit = false;
    if (clock) {
      hit = BannedClockNames().count(toks[i].text) > 0;
    } else {
      hit = BannedRandomTypes().count(toks[i].text) > 0 ||
            (BannedRandomCalls().count(toks[i].text) > 0 &&
             i + 1 < toks.size() && IsPunct(toks[i + 1], "("));
    }
    if (!hit) continue;
    if (LineWaived(f, toks[i].line, base) || LineWaived(f, toks[i].line, taint)) {
      continue;
    }
    *line = toks[i].line;
    *what = toks[i].text;
    return true;
  }
  return false;
}

/// Flags every in-scope function whose body transitively reaches a banned
/// RNG/clock source through the call graph, at its definition line, with the
/// witness chain down to the direct use. Functions with a direct use are
/// left to the token rule (one finding per fact).
inline void RuleTransitiveTaint(const Corpus& corpus, const SymbolIndex& index,
                                bool clock,
                                std::vector<std::vector<RawFinding>>* raw_by_file) {
  // RawFinding::rule is a string_view: it must reference static storage.
  const std::string_view rule =
      clock ? std::string_view("banned-clock-taint")
            : std::string_view("banned-random-taint");
  const std::size_t n = index.functions.size();
  enum class State : std::uint8_t { kClean, kDirect, kTainted };
  std::vector<State> state(n, State::kClean);
  std::vector<int> direct_line(n, 0);
  std::vector<std::string> direct_what(n);
  struct TaintHop { int line = 0; std::string name; std::size_t next = 0; };
  std::vector<TaintHop> hops(n);

  // Seed: direct un-waived uses inside in-scope bodies.
  std::vector<bool> in_scope(n, false);
  for (std::size_t d = 0; d < n; ++d) {
    const FunctionDef& def = index.functions[d];
    const SourceFile& f = corpus.files[def.file];
    in_scope[d] = clock ? ClockScope(f.path) : RandomScope(f.path);
    if (!in_scope[d]) continue;  // obs (and bench, for clocks) is a barrier
    if (DirectBannedUse(f, def.body_begin + 1, def.body_end, clock,
                        &direct_line[d], &direct_what[d])) {
      state[d] = State::kDirect;
    }
  }

  // Propagate to a fixed point (handles cycles; ≤ depth-of-graph passes).
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t d = 0; d < n; ++d) {
      if (state[d] != State::kClean || !in_scope[d]) continue;
      for (const CallSite& c : index.functions[d].calls) {
        const auto it = index.by_name.find(c.name);
        if (it == index.by_name.end()) continue;
        for (const std::size_t t : it->second) {
          if (t == d || state[t] == State::kClean) continue;
          state[d] = State::kTainted;
          hops[d] = {c.line, c.name, t};
          changed = true;
          break;
        }
        if (state[d] != State::kClean) break;
      }
    }
  }

  for (std::size_t d = 0; d < n; ++d) {
    if (state[d] != State::kTainted) continue;
    const FunctionDef& def = index.functions[d];
    RawFinding finding{rule, def.line,
                       "function '" + def.qualified +
                           "' transitively reaches banned " +
                           (clock ? std::string("clock") : std::string("RNG")) +
                           " source '%s' — " +
                           (clock ? std::string(
                                        "route timing through obs::"
                                        "MonotonicSeconds so library code "
                                        "stays wall-clock-free")
                                  : std::string(
                                        "route randomness through emis::Rng "
                                        "streams so draw order stays "
                                        "deterministic"))};
    // Witness chain: this def's call site, each intermediate def's call
    // site, ending at the direct use.
    std::size_t cur = d;
    std::set<std::size_t> seen;
    while (state[cur] == State::kTainted && seen.insert(cur).second) {
      finding.witness.push_back(Hop(corpus, index.functions[cur].file,
                                    hops[cur].line, hops[cur].name));
      cur = hops[cur].next;
    }
    finding.witness.push_back(corpus.files[index.functions[cur].file].path +
                              ":" + std::to_string(direct_line[cur]) + " " +
                              direct_what[cur]);
    const std::size_t pct = finding.message.find("%s");
    finding.message.replace(pct, 2, direct_what[cur]);
    finding.symbol = def.qualified;
    (*raw_by_file)[def.file].push_back(std::move(finding));
  }
}

// --- rule: observable-commit-order ------------------------------------------

/// Calls whose global order IS the observable contract: file actions, trace
/// and telemetry emission, energy-ledger charges, shard merges, phase
/// timeline annotations, and Rng draws (RngDrawNames). Reaching one from inside a parallel region outside
/// a sanctioned serial-commit function reorders artifacts under --jobs.
inline const std::set<std::string, std::less<>>& ObservableSinkNames() {
  static const std::set<std::string, std::less<>> kSinks = {
      "FileAction", "OnEvent", "Emit", "EmitControl", "EmitHeartbeat",
      "EmitRoundTrace", "CommitShardTotals", "ChargeTransmit", "ChargeListen",
      "ChargeAwake", "MergeTxShard", "Annotate", "AnnotateSub"};
  return kSinks;
}

/// Functions sanctioned to touch observables from inside a parallel region.
/// The traversal stops at these names instead of descending. Justifications
/// (details in DESIGN.md §14):
///   ShardTransmitPass /  shard-local stamping and per-node energy cells;
///   ShardListenPass      the serial MergeTxShard/CommitShardTotals pass
///                        after the join commits the observables.
///   Step                 flat-protocol per-node steps draw only from the
///                        node's OWN Rng stream, write its own lane, and
///                        stage phase annotations in its shard's buffer;
///                        they never reach the timeline — FileAction
///                        replays the buffers (Annotate / AnnotateSub)
///                        serially in batch order after the join.
///   RunMis               a whole run is trial-isolated inside a sweep —
///                        every sink it reaches is owned by the trial and
///                        merged serially in (size, seed) order afterwards.
inline const std::set<std::string, std::less<>>& SerialCommitSanctioned() {
  static const std::set<std::string, std::less<>> kSanctioned = {
      "ShardTransmitPass", "ShardListenPass", "Step", "RunMis"};
  return kSanctioned;
}

inline void RuleObservableCommitOrder(
    const Corpus& corpus, const SymbolIndex& index,
    std::vector<std::vector<RawFinding>>* raw_by_file) {
  for (const ParallelRegion& region : index.regions) {
    std::set<std::string> visited;
    std::set<std::string> flagged;
    std::vector<std::string> path;
    const auto visit = [&](const auto& self, const std::vector<CallSite>& calls,
                           std::size_t call_file) -> void {
      for (const CallSite& c : calls) {
        const bool is_sink = ObservableSinkNames().count(c.name) > 0 ||
                             RngDrawNames().count(c.name) > 0;
        if (is_sink) {
          // Direct calls anchor (and dedup) at their own line, so a second
          // call to an already-waived sink still surfaces; deeper chains
          // anchor at the region and dedup per sink name.
          const bool direct = path.empty();
          const std::string key =
              direct ? c.name + ":" + std::to_string(c.line) : c.name;
          if (!flagged.insert(key).second) continue;
          RawFinding finding{
              "observable-commit-order",
              direct ? c.line : region.line,
              "observable '" + c.name +
                  "' is reachable from inside a ParallelFor lambda" +
                  (region.enclosing.empty()
                       ? std::string()
                       : " (region in '" + region.enclosing + "')") +
                  " outside the sanctioned serial-commit functions — "
                  "observables must commit serially in a fixed order; stage "
                  "into a per-shard buffer and merge after the join, or "
                  "waive with a trial-/shard-locality justification"};
          finding.symbol = c.name;
          finding.witness = path;
          finding.witness.push_back(Hop(corpus, call_file, c.line, c.name));
          (*raw_by_file)[region.file].push_back(std::move(finding));
          continue;
        }
        if (SerialCommitSanctioned().count(c.name) > 0) continue;
        const auto it = index.by_name.find(c.name);
        if (it == index.by_name.end()) continue;
        if (!visited.insert(c.name).second) continue;
        for (const std::size_t d : it->second) {
          const FunctionDef& def = index.functions[d];
          path.push_back(Hop(corpus, call_file, c.line, c.name));
          self(self, def.calls, def.file);
          path.pop_back();
        }
      }
    };
    visit(visit, region.calls, region.file);
  }
}

}  // namespace detail

/// Runs every rule over the corpus, applies suppressions, sorts findings.
inline Report Lint(const Corpus& corpus) {
  // Floating-point declarations are pooled per stem so a .cpp sees the
  // members its header declares (the two-file symbol table).
  std::map<std::string, std::set<std::string, std::less<>>> floats_by_stem;
  for (const SourceFile& f : corpus.files) {
    detail::CollectFloatIdents(f, &floats_by_stem[Stem(f.path)]);
  }

  // Pass 1: the symbol index (tokens were lexed once in LoadCorpus and are
  // shared by the token rules, the index, and every graph rule).
  const SymbolIndex index = BuildIndex(corpus);

  Report report;
  report.files_scanned = corpus.files.size();
  report.symbols_indexed = index.functions.size();
  report.call_edges = index.call_edges;

  std::vector<std::vector<detail::RawFinding>> raw_by_file(corpus.files.size());
  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const SourceFile& f = corpus.files[i];
    std::vector<detail::RawFinding>* raw = &raw_by_file[i];
    detail::RuleBannedRandom(f, raw);
    detail::RuleBannedClock(f, raw);
    detail::RuleUnorderedIteration(f, raw);
    detail::RuleRawAssert(f, raw);
    detail::RuleIoInLibrary(f, raw);
    detail::RuleFloatAccumulateInReduce(f, floats_by_stem[Stem(f.path)], raw);
    detail::RuleRngSeedFromDraw(f, raw);
    detail::RuleRawThread(f, raw);
  }

  // Pass 2: graph rules, attributed to the file holding the flagged line.
  detail::RuleNestedDispatch(corpus, index, &raw_by_file);
  detail::RuleParallelRegionMutation(corpus, index, &raw_by_file);
  detail::RuleTransitiveTaint(corpus, index, /*clock=*/false, &raw_by_file);
  detail::RuleTransitiveTaint(corpus, index, /*clock=*/true, &raw_by_file);
  detail::RuleObservableCommitOrder(corpus, index, &raw_by_file);

  for (std::size_t i = 0; i < corpus.files.size(); ++i) {
    const SourceFile& f = corpus.files[i];
    for (detail::RawFinding& r : raw_by_file[i]) {
      const std::string rule(r.rule);
      if (detail::LineWaived(f, r.line, rule)) {
        ++report.suppressed;
        ++report.suppressed_by_rule[rule];
      } else {
        report.findings.push_back({rule, f.path, r.line, std::move(r.message),
                                   std::move(r.symbol), std::move(r.witness)});
      }
    }
  }
  std::sort(report.findings.begin(), report.findings.end());
  return report;
}

/// Lints a single in-memory source (fixture tests); `path` picks the scopes.
inline Report LintSource(std::string path, std::string_view content) {
  Corpus corpus;
  corpus.files.push_back(Lex(std::move(path), content));
  return Lint(corpus);
}

/// Loads .cpp/.hpp/.h/.cc files under root/{dirs} into a corpus, sorted by
/// repo-relative path so runs are reproducible byte-for-byte.
inline Corpus LoadCorpus(const std::filesystem::path& root,
                         const std::vector<std::string>& dirs = {"src", "bench",
                                                                 "tools"}) {
  Corpus corpus;
  std::vector<std::filesystem::path> paths;
  for (const std::string& dir : dirs) {
    const std::filesystem::path base = root / dir;
    if (!std::filesystem::exists(base)) continue;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
        paths.push_back(entry.path());
      }
    }
  }
  std::vector<std::pair<std::string, std::filesystem::path>> rel;
  rel.reserve(paths.size());
  for (const auto& p : paths) {
    rel.emplace_back(std::filesystem::relative(p, root).generic_string(), p);
  }
  std::sort(rel.begin(), rel.end());
  for (const auto& [relpath, abspath] : rel) {
    std::ifstream in(abspath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.files.push_back(Lex(relpath, buf.str()));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// emis-lint-report/2 JSON

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string ToJson(const Report& report, std::string_view root) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"emis-lint-report/2\",\n";
  out << "  \"root\": \"" << JsonEscape(root) << "\",\n";
  out << "  \"files_scanned\": " << report.files_scanned << ",\n";
  out << "  \"symbols_indexed\": " << report.symbols_indexed << ",\n";
  out << "  \"call_edges\": " << report.call_edges << ",\n";
  {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", report.wall_seconds);
    out << "  \"wall_seconds\": " << buf << ",\n";
  }
  out << "  \"suppressed_count\": " << report.suppressed << ",\n";
  out << "  \"suppressed_by_rule\": {";
  {
    std::size_t i = 0;
    for (const auto& [rule, count] : report.suppressed_by_rule) {
      out << (i++ == 0 ? "" : ", ") << '"' << JsonEscape(rule)
          << "\": " << count;
    }
  }
  out << "},\n  \"rules\": [";
  for (std::size_t i = 0; i < Rules().size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << Rules()[i].id << '"';
  }
  out << "],\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"rule\": \"" << JsonEscape(f.rule) << "\", \"file\": \""
        << JsonEscape(f.file) << "\", \"line\": " << f.line
        << ", \"message\": \"" << JsonEscape(f.message) << "\"";
    if (!f.symbol.empty()) {
      out << ", \"symbol\": \"" << JsonEscape(f.symbol) << "\"";
    }
    if (!f.witness.empty()) {
      out << ", \"witness\": [";
      for (std::size_t w = 0; w < f.witness.size(); ++w) {
        out << (w == 0 ? "" : ", ") << '"' << JsonEscape(f.witness[w]) << '"';
      }
      out << "]";
    }
    out << "}";
  }
  out << (report.findings.empty() ? "]\n" : "\n  ]\n") << "}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Waiver baseline (CI fail-closed gate)

/// Parses the committed per-rule waiver baseline: one "rule count" pair per
/// line; blank lines and '#' comments are skipped.
inline std::map<std::string, std::uint64_t> ParseWaiverBaseline(std::istream& in) {
  std::map<std::string, std::uint64_t> baseline;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string rule;
    if (!(fields >> rule) || rule.empty() || rule[0] == '#') continue;
    std::uint64_t count = 0;
    fields >> count;
    baseline[rule] = count;
  }
  return baseline;
}

/// Fail-closed waiver gate: returns "" when no rule's waiver count exceeds
/// its baseline, else a description of the first regression. Counts BELOW
/// the baseline pass (ratchet down by committing the smaller counts).
inline std::string DiffWaiverBaseline(
    const Report& report, const std::map<std::string, std::uint64_t>& baseline) {
  for (const auto& [rule, count] : report.suppressed_by_rule) {
    const auto it = baseline.find(rule);
    const std::uint64_t allowed = it == baseline.end() ? 0 : it->second;
    if (count > allowed) {
      return "rule '" + rule + "': " + std::to_string(count) +
             " waiver(s) vs baseline " + std::to_string(allowed) +
             " — new waivers fail closed; justify the waiver in-line and "
             "update tools/lint_waiver_baseline.txt";
    }
  }
  return "";
}

}  // namespace emis_lint
