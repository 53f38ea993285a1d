// Aho-Corasick multi-pattern matcher.
//
// The signature-matching µmbox element (the simulator's Snort stand-in)
// must scan every payload against the full ruleset; Aho-Corasick makes the
// scan cost independent of ruleset size (bench A2 quantifies this against
// the naive per-pattern scan).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace iotsec::sig {

/// ASCII case-fold table: 'A'..'Z' map to 'a'..'z', all other bytes map to
/// themselves. One L1-resident 256-byte lookup per scanned byte.
inline constexpr std::array<std::uint8_t, 256> kCaseFold = [] {
  std::array<std::uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) table[i] = static_cast<std::uint8_t>(i);
  for (int i = 'A'; i <= 'Z'; ++i) table[i] = static_cast<std::uint8_t>(i + 32);
  return table;
}();

class AhoCorasick {
 public:
  /// Adds a pattern before Build(); returns its id. Empty patterns are
  /// ignored (returns -1). `nocase` folds ASCII case during matching.
  int AddPattern(std::string_view pattern, bool nocase = false);

  /// Finalizes the automaton (computes failure/output links). Must be
  /// called after the last AddPattern and before any matching.
  void Build();

  struct Match {
    int pattern_id;
    std::size_t end_offset;  // offset one past the pattern's last byte
  };

  /// Returns every pattern occurrence in `data`.
  [[nodiscard]] std::vector<Match> FindAll(
      std::span<const std::uint8_t> data) const;

  /// Sets `seen[id] = true` for every pattern appearing in `data`;
  /// allocation-free beyond the caller's bitmap. Returns hit count.
  std::size_t MarkMatches(std::span<const std::uint8_t> data,
                          std::vector<bool>& seen) const;

  /// True if any pattern occurs.
  [[nodiscard]] bool MatchesAny(std::span<const std::uint8_t> data) const;

  [[nodiscard]] std::size_t PatternCount() const { return patterns_.size(); }
  [[nodiscard]] bool Built() const { return built_; }

  // --- Introspection for DenseDfa::Compile (valid only after Build()). ---
  // After Build() every node's `next` is goto-closed (a full DFA row), the
  // node's outputs include everything reachable through failure links, and
  // `depth` is the node's trie depth.
  //
  // Mixed-case rulesets use fold-and-verify (the Snort MPSE design): when
  // any nocase pattern exists the trie is built over case-folded text for
  // *all* patterns, scans fold each input byte through kCaseFold before the
  // transition, and candidate matches of case-sensitive patterns are
  // confirmed with an exact byte compare at the match offset. This keeps
  // the automaton O(total pattern length) — the alternative (expanding
  // every case spelling into its own path) is 2^len states per nocase
  // pattern — while staying exactly match-for-match correct.
  [[nodiscard]] bool FoldsInput() const { return fold_input_; }
  [[nodiscard]] bool PatternNeedsVerify(int pid) const {
    return verify_[static_cast<std::size_t>(pid)] != 0;
  }
  [[nodiscard]] const std::string& PatternText(int pid) const {
    return patterns_[static_cast<std::size_t>(pid)].text;
  }
  [[nodiscard]] std::size_t NodeCount() const { return nodes_.size(); }
  [[nodiscard]] std::int32_t NodeTransition(std::size_t node,
                                            std::uint8_t byte) const {
    return nodes_[node].next[byte];
  }
  [[nodiscard]] std::int32_t NodeDepth(std::size_t node) const {
    return nodes_[node].depth;
  }
  [[nodiscard]] const std::vector<int>& NodeOutputs(std::size_t node) const {
    return nodes_[node].outputs;
  }

 private:
  struct Node {
    std::array<std::int32_t, 256> next;
    std::int32_t fail = 0;
    std::int32_t depth = 0;
    std::vector<int> outputs;  // pattern ids ending at this node
    Node() { next.fill(-1); }
  };

  struct Pattern {
    std::string text;  // original bytes (verification compares against these)
    bool nocase;
  };

  /// True unless `pid` needs case verification and `data[end-len, end)`
  /// differs byte-for-byte from the original pattern text.
  [[nodiscard]] bool VerifyAt(std::span<const std::uint8_t> data,
                              std::size_t end, int pid) const {
    if (verify_[static_cast<std::size_t>(pid)] == 0) return true;
    const std::string& text = patterns_[static_cast<std::size_t>(pid)].text;
    const std::uint8_t* at = data.data() + (end - text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (at[i] != static_cast<std::uint8_t>(text[i])) return false;
    }
    return true;
  }

  std::vector<Node> nodes_{1};
  std::vector<Pattern> patterns_;
  /// Per-pattern: 1 if a trie hit must be confirmed against the original
  /// bytes (case-sensitive pattern in a folding automaton).
  std::vector<std::uint8_t> verify_;
  bool built_ = false;
  bool any_nocase_ = false;
  bool fold_input_ = false;  // set by Build() when any pattern is nocase
};

/// Reference implementation: scans each pattern independently (memmem
/// style). Exists to cross-check AhoCorasick in property tests and as the
/// baseline for bench A2.
class NaiveMatcher {
 public:
  int AddPattern(std::string_view pattern, bool nocase = false);
  [[nodiscard]] std::vector<AhoCorasick::Match> FindAll(
      std::span<const std::uint8_t> data) const;

 private:
  struct Pattern {
    std::string text;
    bool nocase;
  };
  std::vector<Pattern> patterns_;
};

}  // namespace iotsec::sig
