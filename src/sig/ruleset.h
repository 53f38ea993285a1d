// RuleSet: the detection engine inside the SignatureMatcher µmbox element.
//
// A handle onto one immutable CompiledRuleset plus the per-instance
// evaluation scratch. The rules live only in the compile, which comes from
// the process-wide CompiledRulesetCache, so every µmbox carrying the same
// SKU ruleset shares one copy of the rules and one automaton. Evaluation
// reuses the scratch, so the per-packet hot path does not allocate.
#pragma once

#include <memory>
#include <vector>

#include "sig/compiled_ruleset.h"
#include "sig/rule.h"

namespace iotsec::sig {

/// One ruleset-lint finding. `code` is the stable diagnostic id the
/// static verifier surfaces (R001 empty pattern, R002 duplicate sid,
/// R003 folded-pattern duplicate).
struct RuleLintIssue {
  std::string code;
  std::size_t rule_index = 0;  // index into the linted rule list
  std::string message;
};

class RuleSet {
 public:
  RuleSet() = default;
  explicit RuleSet(const std::vector<Rule>& rules) { Reset(rules); }

  /// Replaces all rules, compiling now through the shared cache: a
  /// pointer grab whenever any other µmbox already carries the same
  /// ruleset.
  void Reset(const std::vector<Rule>& rules);

  /// Epoch swap: adopts an already-built shared compile with no parse and
  /// no compile — the rollout pipeline's instant apply/rollback path.
  /// nullptr resets to the empty ruleset.
  void AdoptCompiled(std::shared_ptr<const CompiledRuleset> compiled) {
    compiled_ = std::move(compiled);
  }

  /// Evaluates every rule against a parsed frame. Allocation-free beyond
  /// the verdict's matched-sid list (empty in the common no-match case).
  /// The empty ruleset passes every frame.
  [[nodiscard]] RuleVerdict Evaluate(const proto::ParsedFrame& frame);

  /// Static hygiene checks over a rule list, cheap enough to run on
  /// every load: R001 empty content pattern (matches everything at
  /// offset 0 — almost always an authoring error), R002 duplicate sid
  /// (alerts become un-attributable), R003 a rule whose case-folded
  /// content-pattern set duplicates another rule's (the DFA carries the
  /// same states twice; usually a copy-paste rule that only meant to
  /// change the header). Deterministic order: by rule index, then code.
  [[nodiscard]] static std::vector<RuleLintIssue> Lint(
      const std::vector<Rule>& rules);

  /// True when any rule's action is block. The model checker's
  /// guard-strength probe keys on this: a SignatureMatcher chain with
  /// alert-only rules detects attack traffic but never drops it.
  [[nodiscard]] static bool AnyBlocking(const std::vector<Rule>& rules);

  /// The current shared compile (nullptr for the empty ruleset). Identity
  /// comparison across RuleSets proves cache sharing in tests.
  [[nodiscard]] std::shared_ptr<const CompiledRuleset> compiled() const {
    return compiled_;
  }

 private:
  std::shared_ptr<const CompiledRuleset> compiled_;
  EvalScratch scratch_;
};

}  // namespace iotsec::sig
