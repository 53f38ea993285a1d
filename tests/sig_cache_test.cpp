// Tests for the process-wide compiled-ruleset cache: identical rule lists
// share one compile, differing lists do not, hot replacement leaves
// in-flight users on their old compile, and the crowd push path pre-warms
// the cache so µmbox loads are hits.
#include <gtest/gtest.h>

#include "learn/crowd.h"
#include "net/address.h"
#include "obs/obs.h"
#include "proto/frame.h"
#include "proto/transport.h"
#include "sig/compiled_ruleset.h"
#include "sig/corpus.h"
#include "sig/ruleset.h"

namespace iotsec::sig {
namespace {

using net::Ipv4Address;
using net::MacAddress;

class SigCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CompiledRulesetCache::Instance().Clear();
    const obs::Metrics& m = obs::M();
    for (obs::Counter* c :
         {m.sig_compiles, m.sig_cache_hits, m.sig_cache_misses,
          m.sig_cache_expired, m.sig_evaluations, m.sig_scan_bytes,
          m.sig_matches}) {
      c->Reset();
    }
  }
};

std::vector<Rule> SomeRules(std::string_view content) {
  auto rules = ParseRules("alert tcp any any -> any any (sid:900; content:\"" +
                          std::string(content) + "\"; )\n");
  EXPECT_EQ(rules.size(), 1u);
  return rules;
}

proto::ParsedFrame MustParse(const Bytes& wire) {
  auto f = proto::ParseFrame(wire);
  EXPECT_TRUE(f.has_value());
  return *f;
}

Bytes TcpPayloadFrame(std::string_view payload) {
  return proto::BuildTcpFrame(
      MacAddress::FromId(1), MacAddress::FromId(2), Ipv4Address(10, 0, 0, 1),
      Ipv4Address(10, 0, 0, 2),
      proto::TcpHeader{.src_port = 1111, .dst_port = 80,
                       .flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck},
      ToBytes(payload));
}

TEST_F(SigCacheTest, IdenticalRuleListsShareOneCompile) {
  constexpr std::size_t kUmboxes = 8;
  std::vector<RuleSet> fleet(kUmboxes);
  for (auto& rs : fleet) rs.Reset(BuiltinRules());
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_misses->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), kUmboxes - 1);
  for (std::size_t i = 1; i < kUmboxes; ++i) {
    EXPECT_EQ(fleet[i].compiled().get(), fleet[0].compiled().get());
  }
}

TEST_F(SigCacheTest, DifferingRuleListsDoNotShare) {
  RuleSet a(SomeRules("alpha"));
  RuleSet b(SomeRules("beta"));
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 0u);
  EXPECT_NE(a.compiled().get(), b.compiled().get());
  EXPECT_EQ(CompiledRulesetCache::Instance().LiveEntryCount(), 2u);
}

TEST_F(SigCacheTest, ReplacementLeavesInFlightEvaluationsIntact) {
  RuleSet rs(SomeRules("needle"));
  const Bytes hit_wire = TcpPayloadFrame("xx needle xx");
  EXPECT_TRUE(rs.Evaluate(MustParse(hit_wire)).Matched());

  // An in-flight evaluator holds the old compile while a crowd push swaps
  // the RuleSet to a new ruleset.
  std::shared_ptr<const CompiledRuleset> old_compile = rs.compiled();
  rs.Reset(SomeRules("other"));
  EXPECT_FALSE(rs.Evaluate(MustParse(hit_wire)).Matched());  // new rules

  // The old compile still works, unchanged, for whoever kept it.
  EvalScratch scratch;
  EXPECT_TRUE(old_compile->Evaluate(MustParse(hit_wire), scratch).Matched());
  EXPECT_NE(old_compile.get(), rs.compiled().get());
}

TEST_F(SigCacheTest, ExpiredEntriesRecompile) {
  {
    RuleSet rs(SomeRules("gone"));
    EXPECT_EQ(CompiledRulesetCache::Instance().LiveEntryCount(), 1u);
  }
  // Last user gone: the weak entry is dead and a fresh request recompiles.
  RuleSet again(SomeRules("gone"));
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
  EXPECT_EQ(obs::M().sig_cache_expired->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 0u);
}

TEST_F(SigCacheTest, AdoptCompiledSwapsTheVerdictWithoutCompiling) {
  const Bytes wire = TcpPayloadFrame("xx needle xx");
  RuleSet rs(SomeRules("needle"));
  const auto needle = rs.compiled();
  const auto other =
      CompiledRulesetCache::Instance().GetOrCompile(SomeRules("other"));
  ASSERT_EQ(obs::M().sig_compiles->Value(), 2u);

  // Adopting another compile is a pointer swap: the verdict follows the
  // adopted rules and nothing is compiled.
  rs.AdoptCompiled(other);
  EXPECT_EQ(rs.compiled().get(), other.get());
  EXPECT_FALSE(rs.Evaluate(MustParse(wire)).Matched());
  rs.AdoptCompiled(needle);
  EXPECT_TRUE(rs.Evaluate(MustParse(wire)).Matched());
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);

  // nullptr is the empty ruleset, as is a default-constructed RuleSet:
  // both pass the frame the old ruleset matched.
  rs.AdoptCompiled(nullptr);
  EXPECT_EQ(rs.compiled(), nullptr);
  const RuleVerdict emptied = rs.Evaluate(MustParse(wire));
  EXPECT_FALSE(emptied.Matched());
  EXPECT_FALSE(emptied.ShouldBlock());
  RuleSet fresh;
  EXPECT_FALSE(fresh.Evaluate(MustParse(wire)).Matched());
  EXPECT_EQ(obs::M().sig_compiles->Value(), 2u);
}

TEST_F(SigCacheTest, ScratchRebindsWhenAllocatorReusesCompileAddress) {
  // Regression: EvalScratch used to bind to the compile's raw address.
  // When the old compile is freed before its successor is built, the
  // allocator can place the successor at the same address (same size
  // class); a stale address binding then passed and left the
  // epoch/content-hit arrays sized for the *old* ruleset — out-of-bounds
  // writes when the new ruleset is larger. Binding is now by
  // process-unique compile id, so this holds regardless of where the
  // allocator puts the successor; the ASan job proves no OOB.
  RuleSet rs(SomeRules("tiny"));
  const Bytes wire = TcpPayloadFrame("tiny and one and two and three");
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 1u);  // binds

  // Grow the ruleset; dropping the old compile first (it is the only
  // holder) invites address reuse for the successor.
  const auto grown = ParseRules(
      "alert tcp any any -> any any (sid:1; content:\"one\"; )\n"
      "alert tcp any any -> any any (sid:2; content:\"two\"; )\n"
      "alert tcp any any -> any any (sid:3; content:\"three\"; )\n");
  rs.AdoptCompiled(nullptr);
  rs.Reset(grown);
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 3u);

  // And back down: a smaller successor must not inherit oversized arrays
  // with stale marks (silently wrong verdicts).
  rs.AdoptCompiled(nullptr);
  rs.Reset(SomeRules("tiny"));
  EXPECT_EQ(rs.Evaluate(MustParse(wire)).matched_sids.size(), 1u);
}

TEST_F(SigCacheTest, CompileIdsAreUniquePerCompile) {
  // Identical rule text, separate compiles (cache cleared in between):
  // distinct identities, so a scratch bound to one never trusts the other.
  CompiledRuleset a(SomeRules("same"));
  CompiledRuleset b(SomeRules("same"));
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), 0u);  // 0 is the unbound-scratch sentinel
  EXPECT_NE(b.id(), 0u);
}

TEST_F(SigCacheTest, PeriodicSweepPrunesBucketsNeverReprobed) {
  auto& cache = CompiledRulesetCache::Instance();
  // Churn: distinct rulesets acquired and immediately dropped. Their
  // buckets are never probed again, so only the periodic sweep can free
  // the dead entries (and their canonical rule text).
  constexpr std::size_t kChurned = 8;
  for (std::size_t i = 0; i < kChurned; ++i) {
    auto compiled = cache.GetOrCompile(SomeRules("churn" + std::to_string(i)));
  }
  EXPECT_EQ(cache.LiveEntryCount(), 0u);
  EXPECT_EQ(cache.TotalEntryCount(), kChurned);  // dead but retained

  // Unrelated traffic on a different key reaches the sweep interval; the
  // dead buckets are reclaimed even though nothing ever probes them.
  auto live = cache.GetOrCompile(SomeRules("live"));
  for (std::uint64_t i = 0; i < CompiledRulesetCache::kSweepInterval; ++i) {
    EXPECT_EQ(cache.GetOrCompile(SomeRules("live")).get(), live.get());
  }
  EXPECT_EQ(cache.TotalEntryCount(), 1u);  // only the live entry survives
  EXPECT_EQ(cache.LiveEntryCount(), 1u);
}

TEST_F(SigCacheTest, CrowdAcceptPrewarmsTheCache) {
  learn::CrowdRepo repo;
  repo.Subscribe("cam-sku", "site-a", [](const learn::SharedSignature&) {});

  learn::SignatureReport report;
  report.sku = "cam-sku";
  report.rule_text =
      "block tcp any any -> any 80 (msg:\"exploit\"; sid:7001; "
      "content:\"evil-payload\"; )";
  report.contributor = "site-b";
  const auto published = repo.Publish(report);
  ASSERT_TRUE(published.accepted_for_review);
  for (const char* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(published.id, voter, /*up=*/true);
  }
  ASSERT_EQ(repo.stats().accepted, 1u);

  // Acceptance compiled the SKU ruleset once (the pre-warm)...
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);

  // ...so every µmbox that now loads the same accepted ruleset is a hit.
  const auto accepted = repo.AcceptedFor("cam-sku");
  ASSERT_EQ(accepted.size(), 1u);
  std::vector<Rule> pushed;
  for (const auto& sig : accepted) pushed.push_back(sig.rule);
  RuleSet umbox_a(pushed);
  RuleSet umbox_b(pushed);
  EXPECT_EQ(obs::M().sig_compiles->Value(), 1u);
  EXPECT_EQ(obs::M().sig_cache_hits->Value(), 2u);  // both µmbox loads hit
  EXPECT_EQ(umbox_a.compiled().get(), umbox_b.compiled().get());
  EXPECT_EQ(umbox_a.compiled().get(), repo.CompiledFor("cam-sku").get());
}

}  // namespace
}  // namespace iotsec::sig
