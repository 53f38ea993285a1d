#include "rollout/manifest.h"

#include "common/hash.h"
#include "common/strings.h"

namespace iotsec::rollout {
namespace {

std::uint64_t FoldU64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t HashRuleText(std::string_view text) {
  return Fnv1a64(kFnvTruncatedBasis, text);
}

std::uint64_t HashRuleList(const std::vector<std::string>& rule_texts) {
  // Commutative: per-rule hashes are scrambled then summed, plus the
  // count, so {A,B} == {B,A} but {A} != {A,A} != {A,B}.
  std::uint64_t h = 0x5CA1AB1Eull + rule_texts.size();
  // Fmix64 scrambles so structurally-close digests (version off by one)
  // do not produce close signatures.
  for (const auto& text : rule_texts) h += Fmix64(HashRuleText(text));
  return Fmix64(h);
}

std::uint64_t RulesetManifest::Digest() const {
  std::uint64_t h = Fnv1a64(kFnvTruncatedBasis, sku);
  h = FoldU64(h, version);
  h = FoldU64(h, content_hash);
  h = FoldU64(h, parent_hash);
  h = FoldU64(h, snapshot ? 1 : 0);
  h = FoldU64(h, add.size());
  for (const auto& text : add) h = Fnv1a64(h, text);
  h = FoldU64(h, remove.size());
  for (std::uint64_t r : remove) h = FoldU64(h, r);
  return Fmix64(h);
}

std::size_t RulesetManifest::WireBytes() const {
  // Header: sku + version + content/parent hashes + flags + signature +
  // the two list lengths.
  std::size_t bytes = sku.size() + 8 * 5 + 1 + 2 * 4;
  for (const auto& text : add) bytes += text.size() + 2;  // length prefix
  bytes += remove.size() * 8;
  return bytes;
}

void Sign(RulesetManifest& manifest, std::uint64_t key) {
  manifest.signature = Fmix64(manifest.Digest() ^ key);
}

bool VerifySignature(const RulesetManifest& manifest, std::uint64_t key) {
  return manifest.signature == Fmix64(manifest.Digest() ^ key);
}

bool RolloutPlan::KnowsVersion(std::uint64_t v, bool* is_signed) const {
  for (const auto& [version, signed_flag] : versions) {
    if (version == v) {
      if (is_signed != nullptr) *is_signed = signed_flag;
      return true;
    }
  }
  return false;
}

bool ParseRolloutPlan(const std::string& text, RolloutPlan* plan,
                      std::string* error) {
  *plan = RolloutPlan{};
  int line_no = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + what;
    }
    return false;
  };
  for (const auto& raw : Split(text, '\n')) {
    ++line_no;
    auto line = Trim(raw);
    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = Trim(line.substr(0, hash));
    }
    if (line.empty()) continue;
    const auto tokens = SplitWhitespace(line);
    const std::string& key = tokens.front();
    if (key == "sku") {
      if (tokens.size() != 2) return fail("expected: sku <name>");
      plan->sku = tokens[1];
    } else if (key == "target" || key == "rollback") {
      std::uint64_t v = 0;
      if (tokens.size() != 2 || !ParseUint(tokens[1], v)) {
        return fail("expected: " + key + " <version>");
      }
      if (key == "target") {
        plan->target = v;
      } else {
        plan->rollback = v;
        plan->has_rollback = true;
      }
    } else if (key == "stage") {
      // stage [<name>] <permille> [hold <duration>] — a non-numeric token
      // after "stage" is the stage's name. Range checks live in the R005
      // lint, not here.
      RolloutPlanStage stage;
      std::size_t next = 1;
      std::uint64_t permille = 0;
      if (tokens.size() >= 3 && !ParseUint(tokens[1], permille)) {
        stage.name = tokens[1];
        next = 2;
      }
      if (next >= tokens.size() || !ParseUint(tokens[next], permille) ||
          permille > 0xFFFFFFFFull) {
        return fail("expected: stage [<name>] <permille> [hold <duration>]");
      }
      stage.permille = static_cast<std::uint32_t>(permille);
      ++next;
      if (next != tokens.size()) {
        if (tokens.size() != next + 2 || tokens[next] != "hold") {
          return fail("expected 'hold <duration>' after permille");
        }
        stage.hold = tokens[next + 1];
      }
      plan->stages.push_back(std::move(stage));
    } else if (key == "version") {
      std::uint64_t v = 0;
      if (tokens.size() != 3 || !ParseUint(tokens[1], v) ||
          (tokens[2] != "signed" && tokens[2] != "unsigned")) {
        return fail("expected: version <n> signed|unsigned");
      }
      plan->versions.emplace_back(v, tokens[2] == "signed");
    } else {
      return fail("unknown directive: " + key);
    }
  }
  line_no = 0;
  if (plan->sku.empty()) return fail("plan has no 'sku' line");
  if (plan->target == 0) return fail("plan has no 'target' line");
  return true;
}

}  // namespace iotsec::rollout
