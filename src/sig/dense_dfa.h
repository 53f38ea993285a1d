// Dense Aho-Corasick DFA: the cache-friendly compiled form of the
// node-based automaton.
//
// AhoCorasick::Build already computes the full goto-closure, but it leaves
// the result in ~1 KB-per-node trie nodes (a 256-wide next array plus a
// heap-allocated output vector each). At crowd-repository scale (1k+ rules,
// tens of thousands of states) the scan working set runs to megabytes and
// every deep-state visit is a cache miss.
//
// DenseDfa::Compile flattens that automaton into contiguous arrays using
// byte-class alphabet compression (the RE2/Hyperscan table trick):
//   - every byte that appears in no pattern behaves identically — it leads
//     to the root from every state — so the 256-byte alphabet collapses to
//     (distinct pattern bytes + 1 sink class). A 256-entry classmap folds
//     input bytes to classes; with ASCII case folding active the fold is
//     baked into the classmap at zero scan cost;
//   - every state gets a row-major class-indexed row of successor entries
//     stored as *pre-multiplied row offsets* (successor id << log2(padded
//     class count)), so one step is `row = table[row + classmap[byte]]` —
//     an add and a load, no multiply and no failure chains on the
//     load-to-load dependency chain that bounds scan throughput. Real
//     content rulesets draw from a few dozen byte values, so a row is tens
//     of bytes instead of the node's 1 KB and the whole 1k-rule table fits
//     in L1/L2;
//   - states with outputs are permuted to the top of the id range, so the
//     per-byte "any match here?" test is a single compare against
//     out_boundary_row_, and the CSR output arrays are only touched on
//     hits;
//   - pattern outputs are flattened into one CSR array pair.
// Row offsets are uint32, so Compile refuses (throws std::length_error) an
// automaton with more than MaxStates(ClassCount()) states — at least 2^24
// (16.7M) states even with all 256 byte classes in use.
//
// The DFA is immutable after Compile and safe to share read-only across
// µmboxes (CompiledRulesetCache does exactly that).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sig/aho_corasick.h"

namespace iotsec::sig {

class DenseDfa {
 public:
  DenseDfa() = default;

  /// Flattens a built automaton. `ac.Built()` must be true (an empty,
  /// never-built automaton yields an empty DFA that matches nothing).
  /// Throws std::length_error if the automaton has more states than
  /// MaxStates allows for its byte-class count.
  static DenseDfa Compile(const AhoCorasick& ac);

  /// Largest state count whose row offsets (id << log2(padded class
  /// count)) fit in uint32, for an alphabet of `class_count` byte classes.
  [[nodiscard]] static constexpr std::size_t MaxStates(
      std::uint32_t class_count) {
    return (std::size_t{UINT32_MAX} >> ShiftFor(class_count)) + 1;
  }

  /// Returns every pattern occurrence, same order/semantics as
  /// AhoCorasick::FindAll.
  [[nodiscard]] std::vector<AhoCorasick::Match> FindAll(
      std::span<const std::uint8_t> data) const;

  /// Epoch-marking scan used by CompiledRuleset: for each *newly* seen
  /// pattern this scan, sets seen_epoch[id] = epoch and invokes
  /// `on_new(id)`. Never clears the array, so per-packet cost is
  /// independent of pattern count.
  template <typename OnNew>
  void MarkMatchesEpoch(std::span<const std::uint8_t> data,
                        std::vector<std::uint32_t>& seen_epoch,
                        std::uint32_t epoch, OnNew&& on_new) const {
    ScanOutputs(data, [&](std::int32_t pid, std::size_t end) {
      std::uint32_t& seen = seen_epoch[static_cast<std::size_t>(pid)];
      if (seen != epoch && VerifyAt(data, end, pid)) {
        seen = epoch;
        on_new(pid);
      }
    });
  }

  [[nodiscard]] std::size_t PatternCount() const { return pattern_count_; }
  [[nodiscard]] std::size_t StateCount() const { return state_count_; }
  [[nodiscard]] std::size_t ClassCount() const { return nclasses_; }
  [[nodiscard]] bool Empty() const { return state_count_ == 0; }

  /// Total bytes across the flattened arrays (the scan working set).
  [[nodiscard]] std::size_t MemoryBytes() const;

 private:
  /// log2 of `class_count` rounded up to a power of two: the row stride.
  [[nodiscard]] static constexpr std::uint32_t ShiftFor(
      std::uint32_t class_count) {
    std::uint32_t shift = 0;
    while ((std::uint32_t{1} << shift) < class_count) ++shift;
    return shift;
  }

  /// The one scan loop: walks `data` through the table and calls
  /// `on_output(pid, end)` for every pattern output of every state with
  /// outputs, where `end` is the offset just past the match. Candidate
  /// filtering and case verification are the caller's.
  template <typename OnOutput>
  void ScanOutputs(std::span<const std::uint8_t> data,
                   OnOutput&& on_output) const {
    if (Empty()) return;
    std::uint32_t row = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      row = table_[row + classmap_[data[i]]];
      if (row < out_boundary_row_) continue;
      const auto state = static_cast<std::size_t>(row >> shift_);
      const std::uint32_t ob = out_start_[state];
      const std::uint32_t oe = out_start_[state + 1];
      for (std::uint32_t o = ob; o < oe; ++o) on_output(out_ids_[o], i + 1);
    }
  }

  /// Fold-and-verify confirmation (see AhoCorasick): true unless `pid`
  /// needs case verification and the bytes at the match site differ from
  /// the original pattern text.
  [[nodiscard]] bool VerifyAt(std::span<const std::uint8_t> data,
                              std::size_t end, std::int32_t pid) const {
    if (verify_.empty() || verify_[static_cast<std::size_t>(pid)] == 0) {
      return true;
    }
    const std::string& text = texts_[static_cast<std::size_t>(pid)];
    const std::uint8_t* at = data.data() + (end - text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (at[i] != static_cast<std::uint8_t>(text[i])) return false;
    }
    return true;
  }

  std::array<std::uint8_t, 256> classmap_{};  // raw byte -> class (fold baked)
  std::uint32_t nclasses_ = 0;
  std::uint32_t shift_ = 0;  // ShiftFor(nclasses_)
  // Row-major, (1 << shift_) entries per state; each entry is the
  // successor state's row offset (id << shift_), pre-multiplied so the
  // scan's dependent chain is add + load.
  std::vector<std::uint32_t> table_;
  // Row offset of the first state with outputs (states with outputs are
  // permuted last).
  std::uint32_t out_boundary_row_ = 0;
  std::vector<std::uint32_t> out_start_;  // CSR into out_ids_
  std::vector<std::int32_t> out_ids_;
  // Fold-and-verify state (see AhoCorasick): in a folding automaton the
  // transitions were compiled over folded bytes, and case-sensitive
  // pattern hits (verify_[pid] != 0) are confirmed against texts_[pid].
  // Both stay empty when the automaton does not fold.
  std::vector<std::uint8_t> verify_;
  std::vector<std::string> texts_;
  std::size_t state_count_ = 0;
  std::size_t pattern_count_ = 0;
};

}  // namespace iotsec::sig
