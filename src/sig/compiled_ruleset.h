// Immutable compiled ruleset + the process-wide compiled-ruleset cache.
//
// The paper's deployment model (§4, §5) pushes one crowd-vetted ruleset to
// *every* µmbox guarding a given device SKU — thousands of identical
// automata if each µmbox compiles its own. CompiledRuleset is the
// compile-once artifact: rules, the dense DFA over all content patterns,
// and the pattern→rule crediting tables, all immutable after construction
// so a `shared_ptr<const CompiledRuleset>` can be shared read-only across
// µmboxes and swapped atomically on reconfiguration while in-flight
// evaluations keep using the old compile.
//
// CompiledRulesetCache keys compiles by a content hash of the canonical
// rule text, so a crowd-repository push to M same-SKU µmboxes performs
// exactly one compile and M-1 pointer grabs (counted by the sig.compiles
// and sig.cache_hits metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sig/dense_dfa.h"
#include "sig/rule.h"

namespace iotsec::sig {

struct RuleVerdict {
  /// Highest-severity action across matched rules (kBlock > kAlert).
  RuleAction action = RuleAction::kPass;
  /// sids of every matched rule, in rule order.
  std::vector<std::uint32_t> matched_sids;

  [[nodiscard]] bool ShouldBlock() const {
    return action == RuleAction::kBlock;
  }
  [[nodiscard]] bool Matched() const { return !matched_sids.empty(); }
};

/// Reusable per-evaluator scratch. Epoch-marked arrays make Evaluate
/// allocation-free and O(payload + matches) — nothing is cleared between
/// packets. One scratch per evaluation site (µmbox element / bench
/// thread); not shareable concurrently.
struct EvalScratch {
  std::vector<std::uint32_t> pattern_epoch;  // per pattern: last-seen epoch
  std::vector<std::uint32_t> rule_epoch;     // per rule: content_hits valid
  std::vector<std::uint16_t> content_hits;   // per rule, this epoch
  std::vector<std::uint32_t> candidates;     // rules fully content-matched
  std::uint32_t epoch = 0;
  // id() of the compile the arrays are sized for. An id, not the compile's
  // address: the allocator can reuse a freed compile's address for the
  // next one (same size class), which would make a stale address-based
  // binding pass and leave the arrays sized for the old ruleset.
  std::uint64_t bound_id = 0;
};

class CompiledRuleset {
 public:
  explicit CompiledRuleset(std::vector<Rule> rules);

  /// Evaluates every rule against a parsed frame. Scratch is resized
  /// automatically when it was last used with a different compile.
  [[nodiscard]] RuleVerdict Evaluate(const proto::ParsedFrame& frame,
                                     EvalScratch& scratch) const;

  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  [[nodiscard]] const DenseDfa& dfa() const { return dfa_; }

  /// Process-unique identity of this compile (monotonic, never reused —
  /// unlike the object's address). EvalScratch binds to this.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Canonical text the cache keys on (one ToText per rule, '\n'-joined).
  [[nodiscard]] static std::string CanonicalText(
      const std::vector<Rule>& rules);
  [[nodiscard]] static std::uint64_t ContentHash(std::string_view text);

 private:
  static std::atomic<std::uint64_t> next_id_;

  std::uint64_t id_;
  std::vector<Rule> rules_;
  DenseDfa dfa_;
  std::vector<std::uint32_t> pattern_rule_;  // pattern id -> rule index
  std::vector<std::uint16_t> required_;      // per rule: contents.size()
  std::vector<std::uint32_t> contentless_;   // rules with no content option
};

/// Process-wide, thread-safe map from ruleset content hash to a live
/// compile. Entries hold weak references: when the last µmbox drops a
/// ruleset the compile is freed, and a later identical request recompiles
/// (counted as expired + miss).
class CompiledRulesetCache {
 public:
  /// Every this-many GetOrCompile calls the whole table is swept for
  /// expired entries (probing alone only prunes the probed bucket).
  static constexpr std::uint64_t kSweepInterval = 64;

  static CompiledRulesetCache& Instance();

  /// Returns the shared compile for `rules`, compiling at most once per
  /// distinct rule list currently in use anywhere in the process.
  std::shared_ptr<const CompiledRuleset> GetOrCompile(
      const std::vector<Rule>& rules);

  /// Live (non-expired) entries — test/introspection aid.
  [[nodiscard]] std::size_t LiveEntryCount() const;

  /// All retained entries, expired ones included — observability for the
  /// periodic sweep (live == total once the sweep has run).
  [[nodiscard]] std::size_t TotalEntryCount() const;

  /// Drops all entries (does not invalidate outstanding shared_ptrs).
  void Clear();

 private:
  CompiledRulesetCache() = default;

  /// Drops every expired entry and every emptied bucket. Probing only
  /// prunes the requested bucket, so without this a long-running process
  /// with churning rulesets would accumulate dead entries (each holding
  /// the full canonical rule text) in buckets never probed again.
  void SweepExpiredLocked();

  struct Entry {
    std::string key;  // canonical text, to disambiguate hash collisions
    std::weak_ptr<const CompiledRuleset> value;
  };

  mutable std::mutex mu_;
  std::uint64_t ops_since_sweep_ = 0;
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
};

}  // namespace iotsec::sig
