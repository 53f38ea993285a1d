// Property tests: the dense DFA (both its FindAll and the production
// MarkMatchesEpoch scan), the node-based automaton and the naive
// per-pattern scanner must agree match-for-match on adversarial pattern
// sets — nocase, overlapping patterns, patterns that are prefixes/suffixes
// of each other, empty payloads, 0x00/0xFF payload bytes, and automatons
// past 65,535 states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "sig/aho_corasick.h"
#include "sig/dense_dfa.h"

namespace iotsec::sig {
namespace {

using MatchList = std::vector<AhoCorasick::Match>;

MatchList Sorted(MatchList matches) {
  std::sort(matches.begin(), matches.end(), [](const auto& a, const auto& b) {
    if (a.end_offset != b.end_offset) return a.end_offset < b.end_offset;
    return a.pattern_id < b.pattern_id;
  });
  return matches;
}

void ExpectSameMatches(const MatchList& got, const MatchList& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pattern_id, want[i].pattern_id) << context << " #" << i;
    EXPECT_EQ(got[i].end_offset, want[i].end_offset) << context << " #" << i;
  }
}

/// Distinct pattern ids in `matches`, ascending.
std::vector<std::int32_t> DistinctIds(const MatchList& matches) {
  std::vector<std::int32_t> ids;
  for (const auto& m : matches) ids.push_back(m.pattern_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Builds the node automaton and its dense DFA over `patterns` and checks
/// both against the naive scanner on `text`: node FindAll/MarkMatches,
/// dense FindAll (match offsets) and the production MarkMatchesEpoch scan
/// over two consecutive epochs sharing one never-cleared mark array.
/// Returns the automaton's state count.
std::size_t CheckThreeWay(const std::vector<std::pair<std::string, bool>>& patterns,
                   const Bytes& text, const std::string& context) {
  AhoCorasick ac;
  NaiveMatcher naive;
  for (const auto& [p, nocase] : patterns) {
    ac.AddPattern(p, nocase);
    naive.AddPattern(p, nocase);
  }
  ac.Build();
  const DenseDfa dfa = DenseDfa::Compile(ac);

  const MatchList want = Sorted(naive.FindAll(text));
  ExpectSameMatches(Sorted(ac.FindAll(text)), want, context + " [node]");
  ExpectSameMatches(Sorted(dfa.FindAll(text)), want, context + " [dense]");

  // Node MarkMatches must flag exactly the distinct pattern ids.
  const std::vector<std::int32_t> want_ids = DistinctIds(want);
  std::vector<bool> want_seen(ac.PatternCount(), false);
  for (const std::int32_t pid : want_ids) {
    want_seen[static_cast<std::size_t>(pid)] = true;
  }
  std::vector<bool> node_seen(ac.PatternCount(), false);
  ac.MarkMatches(text, node_seen);
  EXPECT_EQ(node_seen, want_seen) << context;

  // MarkMatchesEpoch reports each distinct id exactly once per epoch and
  // stamps exactly those ids; the second epoch must not be suppressed by
  // the first epoch's marks.
  std::vector<std::uint32_t> seen_epoch(ac.PatternCount(), 0);
  for (std::uint32_t epoch = 1; epoch <= 2; ++epoch) {
    std::vector<std::int32_t> reported;
    dfa.MarkMatchesEpoch(text, seen_epoch, epoch,
                         [&](std::int32_t pid) { reported.push_back(pid); });
    std::sort(reported.begin(), reported.end());
    const std::string at = context + " [epoch " + std::to_string(epoch) + "]";
    EXPECT_EQ(reported, want_ids) << at;
    for (std::size_t pid = 0; pid < seen_epoch.size(); ++pid) {
      const std::uint32_t stamp = want_seen[pid] ? epoch : 0;
      EXPECT_EQ(seen_epoch[pid], stamp) << at << " pid=" << pid;
    }
  }
  EXPECT_EQ(dfa.StateCount(), ac.NodeCount()) << context;
  EXPECT_LE(dfa.StateCount(), DenseDfa::MaxStates(static_cast<std::uint32_t>(
                                  dfa.ClassCount())))
      << context;
  return dfa.StateCount();
}

TEST(DenseDfaTest, PrefixSuffixOverlapFamily) {
  // Every pattern is a prefix or suffix of another — failure-link stress.
  const std::vector<std::pair<std::string, bool>> patterns = {
      {"a", false},    {"ab", false},   {"abc", false}, {"abcd", false},
      {"bcd", false},  {"cd", false},   {"d", false},   {"dabc", false},
      {"AB", true},    {"aBcD", true},
  };
  CheckThreeWay(patterns, ToBytes("abcdabcdxxabcd"), "prefix-suffix");
  CheckThreeWay(patterns, ToBytes("ABCDabCD"), "prefix-suffix-case");
  CheckThreeWay(patterns, {}, "prefix-suffix-empty");
}

TEST(DenseDfaTest, HighAndLowBytes) {
  const std::string ff(2, static_cast<char>(0xFF));
  const std::string zero("\x00\x00", 2);
  const std::string mixed = std::string("\x00", 1) + "\xFFz";
  const std::vector<std::pair<std::string, bool>> patterns = {
      {ff, false}, {zero, false}, {mixed, false}, {"z", true}};
  Bytes text;
  for (const std::uint8_t b : {0xFF, 0xFF, 0x00, 0x00, 0xFF, 0x7A, 0x00}) {
    text.push_back(b);
  }
  CheckThreeWay(patterns, text, "high-low-bytes");
}

TEST(DenseDfaTest, EmptyAutomatonMatchesNothing) {
  AhoCorasick ac;
  const DenseDfa dfa = DenseDfa::Compile(ac);
  EXPECT_TRUE(dfa.Empty());
  EXPECT_TRUE(dfa.FindAll(ToBytes("anything")).empty());
  std::vector<std::uint32_t> seen_epoch;
  dfa.MarkMatchesEpoch(ToBytes("anything"), seen_epoch, 1,
                       [](std::int32_t) { ADD_FAILURE() << "empty DFA hit"; });
}

TEST(DenseDfaTest, NocaseTrieStaysLinear) {
  // Regression: the seed trie builder expanded every case variant of a
  // nocase pattern into its own path — 2^16 nodes for this pattern. The
  // fold-and-verify construction keeps it O(len).
  AhoCorasick ac;
  ac.AddPattern("aaaabbbbccccdddd", /*nocase=*/true);
  ac.Build();
  EXPECT_LE(ac.NodeCount(), 32u);

  NaiveMatcher naive;
  naive.AddPattern("aaaabbbbccccdddd", /*nocase=*/true);
  const DenseDfa dfa = DenseDfa::Compile(ac);
  const Bytes text = ToBytes("xxAaAabBbBCcCcDdDdyy");
  ExpectSameMatches(Sorted(dfa.FindAll(text)), Sorted(naive.FindAll(text)),
                    "nocase-linear");
}

TEST(DenseDfaTest, FoldedSinkClassLeadsToRoot) {
  // Regression: with folding active and every byte 0x00-0x40 used by some
  // pattern, the first unused byte is 'A' (folding keeps uppercase out of
  // the trie). The sink class must still lead to the root; compiling its
  // row from the folded 'a' made "Z" scan as "a" and report a false hit.
  std::string low;
  for (int b = 0x00; b <= 0x40; ++b) low += static_cast<char>(b);
  const std::vector<std::pair<std::string, bool>> patterns = {{low, false},
                                                              {"a", true}};
  CheckThreeWay(patterns, ToBytes("Z"), "folded-sink");
  CheckThreeWay(patterns, ToBytes("zAaZ"), "folded-sink-mixed");
}

TEST(DenseDfaTest, PastUint16StatesMatchesNaive) {
  // More than 65,535 states, past uint16 state ids: the class-compressed
  // table must hold them, since row entries are uint32 offsets. Long
  // random patterns over a wide alphabet (letters in both cases plus 64
  // high bytes) share almost no prefixes, so 1.5k patterns reach the size.
  Rng rng(0x5eed);
  std::vector<std::pair<std::string, bool>> patterns;
  auto random_byte = [&rng]() -> char {
    const auto roll = rng.NextBelow(116);
    if (roll < 26) return static_cast<char>('a' + roll);
    if (roll < 52) return static_cast<char>('A' + (roll - 26));
    return static_cast<char>(0x80 + (roll - 52));
  };
  for (int p = 0; p < 1500; ++p) {
    std::string pat;
    for (int i = 0; i < 48; ++i) pat += random_byte();
    patterns.emplace_back(std::move(pat), rng.NextBool(0.3));
  }

  // The text embeds whole patterns (some case-flipped, some with the last
  // byte changed) between random runs, so scans reach deep states, hit,
  // near-miss and exercise case verification.
  Bytes text;
  for (int chunk = 0; chunk < 40; ++chunk) {
    for (int i = 0; i < 24; ++i) {
      text.push_back(static_cast<std::uint8_t>(random_byte()));
    }
    std::string pat = patterns[rng.NextBelow(patterns.size())].first;
    const auto roll = rng.NextBelow(3);
    if (roll == 1) {
      for (char& c : pat) {
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      }
    } else if (roll == 2) {
      pat.back() = random_byte();
    }
    for (const char c : pat) text.push_back(static_cast<std::uint8_t>(c));
  }

  EXPECT_GT(CheckThreeWay(patterns, text, "past-uint16"), 65535u);
}

TEST(DenseDfaTest, MaxStatesKeepsRowOffsetsInUint32) {
  // Compile refuses any automaton past MaxStates: the last state's row
  // offset (n - 1) << log2(padded class count) must fit in uint32.
  EXPECT_EQ(DenseDfa::MaxStates(1), std::size_t{1} << 32);
  EXPECT_EQ(DenseDfa::MaxStates(2), std::size_t{1} << 31);
  EXPECT_EQ(DenseDfa::MaxStates(39), std::size_t{1} << 26);  // padded to 64
  EXPECT_EQ(DenseDfa::MaxStates(64), std::size_t{1} << 26);
  EXPECT_EQ(DenseDfa::MaxStates(65), std::size_t{1} << 25);
  EXPECT_EQ(DenseDfa::MaxStates(256), std::size_t{1} << 24);
  for (const std::uint32_t classes : {1u, 39u, 200u, 256u}) {
    std::uint32_t shift = 0;
    while ((1u << shift) < classes) ++shift;
    const std::size_t last = DenseDfa::MaxStates(classes) - 1;
    EXPECT_LE(last << shift, std::size_t{UINT32_MAX}) << classes;
    EXPECT_GT((last + 1) << shift, std::size_t{UINT32_MAX}) << classes;
  }
}

class DenseDfaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Randomized three-way equivalence over a small alphabet salted with
// 0x00/0xFF bytes; small alphabets maximize overlap, shared prefixes and
// failure-link traffic.
TEST_P(DenseDfaPropertyTest, ThreeWayEquivalence) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    std::vector<std::pair<std::string, bool>> patterns;
    const int n_patterns = 1 + static_cast<int>(rng.NextBelow(14));
    for (int p = 0; p < n_patterns; ++p) {
      const auto len = 1 + rng.NextBelow(7);
      std::string pat;
      for (std::size_t i = 0; i < len; ++i) {
        const auto roll = rng.NextBelow(10);
        if (roll < 7) {
          pat += static_cast<char>('a' + rng.NextBelow(3));
        } else if (roll < 8) {
          pat += static_cast<char>(rng.NextBool(0.5) ? 0x00 : 0xFF);
        } else {
          pat += static_cast<char>('A' + rng.NextBelow(3));
        }
      }
      patterns.emplace_back(std::move(pat), rng.NextBool(0.35));
    }
    // Some rounds duplicate a pattern with flipped case sensitivity.
    if (rng.NextBool(0.3)) {
      auto dup = patterns[rng.NextBelow(patterns.size())];
      dup.second = !dup.second;
      patterns.push_back(std::move(dup));
    }

    const auto text_len = rng.NextBelow(160);  // sometimes empty
    Bytes text;
    for (std::size_t i = 0; i < text_len; ++i) {
      const auto roll = rng.NextBelow(10);
      if (roll < 7) {
        const char c = static_cast<char>('a' + rng.NextBelow(3));
        text.push_back(static_cast<std::uint8_t>(
            rng.NextBool(0.25) ? std::toupper(c) : c));
      } else if (roll < 8) {
        text.push_back(rng.NextBool(0.5) ? 0x00 : 0xFF);
      } else {
        text.push_back(static_cast<std::uint8_t>('A' + rng.NextBelow(3)));
      }
    }
    CheckThreeWay(patterns, text,
                  "seed=" + std::to_string(GetParam()) +
                      " round=" + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseDfaPropertyTest,
                         ::testing::Values(11, 23, 37, 53, 71, 97, 131));

}  // namespace
}  // namespace iotsec::sig
