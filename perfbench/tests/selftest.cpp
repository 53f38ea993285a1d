// Generator checks: every input generator yields the same inputs for the
// same seed and different inputs for a different seed. Exit code 0 iff
// every check holds.
//
//   .bench_build/perfbench_selftest
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "gen.h"
#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::uint64_t FleetDigest(std::uint64_t seed) {
  FleetGen gen;
  gen.devices = 5000;
  gen.seed = seed;
  std::uint64_t h = 0;
  int cross = 0;
  std::set<SimDuration> offsets;
  for (int i = 0; i < gen.devices; ++i) {
    const GenDevice d = gen.Device(i);
    offsets.insert(d.offset);
    h = Mix64(h, static_cast<std::uint64_t>(d.offset));
    h = Mix64(h, static_cast<std::uint64_t>(d.peer_slice + 1));
    cross += d.peer_slice >= 0 ? 1 : 0;
  }
  // The cross-slice share is the configured 1/8, give or take sampling.
  Check(cross > gen.devices / 10 && cross < gen.devices / 6,
        "fleet cross-slice share near 1/8 (seed " + std::to_string(seed) + ")");
  Check(offsets.size() == static_cast<std::size_t>(gen.devices) &&
            *offsets.rbegin() < gen.interval,
        "fleet send phases distinct and within the interval");
  return h;
}

std::uint64_t DpiDigest(std::uint64_t seed) {
  DpiGen gen;
  gen.seed = seed;
  std::uint64_t h = 0;
  int planted = 0;
  for (DeviceId id = 1; id <= 64; ++id) {
    for (const bool p : {false, true}) {
      const Bytes b = gen.Payload(id, kTagTelemetry, p);
      h = Mix64(h, Fnv64(b.data(), b.size()));
    }
    for (std::uint64_t k = 0; k < 64; ++k) {
      const bool p = gen.Planted(id, k);
      planted += p ? 1 : 0;
      h = Mix64(h, p ? 1 : 2);
    }
  }
  // 64 * 64 sends at 62 permille: about 254 planted.
  Check(planted > 150 && planted < 360, "dpi planted share near 6.2%");
  return h;
}

std::uint64_t FlipDigest(std::uint64_t seed) {
  FlipGen gen(seed, 256, 1500 * iotsec::kMicrosecond,
              3500 * iotsec::kMicrosecond);
  std::uint64_t h = 0;
  bool in_range = true;
  for (int i = 0; i < 2000; ++i) {
    const Flip f = gen.Next();
    in_range = in_range && f.gap >= 1500 * iotsec::kMicrosecond &&
               f.gap < 3500 * iotsec::kMicrosecond && f.device >= 0 &&
               f.device < 256;
    h = Mix64(h, static_cast<std::uint64_t>(f.gap));
    h = Mix64(h, static_cast<std::uint64_t>(f.device));
  }
  Check(in_range, "flip gaps and devices in range");
  return h;
}

void Determinism(const char* name, std::uint64_t (*digest)(std::uint64_t)) {
  const std::uint64_t a = digest(7);
  const std::uint64_t b = digest(7);
  const std::uint64_t c = digest(8);
  Check(a == b, std::string(name) + ": same seed, same inputs");
  Check(a != c, std::string(name) + ": different seed, different inputs");
}

std::uint64_t RulesDigest(std::uint64_t seed) {
  DpiGen gen;
  gen.seed = seed;
  std::uint64_t h = 0;
  const auto rules = gen.Rules();
  Check(rules.size() == gen.total_rules, "dpi ruleset has total_rules rules");
  for (const auto& r : rules) {
    const std::string text = r.ToText();
    h = Mix64(h, Fnv64(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
  }
  return h;
}

// The ruleset is deliberately seed-independent (see DpiGen::Rules).
void DpiRulesetFixed() {
  Check(RulesDigest(7) == RulesDigest(8), "dpi ruleset: same for every seed");
}

void BlockPatternsNeverInCleanPayloads() {
  DpiGen gen;
  gen.seed = 3;
  const auto patterns = gen.BlockPatterns();
  bool clean_ok = true;
  bool planted_ok = true;
  for (DeviceId id = 1; id <= 200; ++id) {
    const Bytes clean = gen.Payload(id, kTagTelemetry, false);
    const Bytes dirty = gen.Payload(id, kTagTelemetry, true);
    const std::string cs(clean.begin(), clean.end());
    const std::string ds(dirty.begin(), dirty.end());
    bool found = false;
    for (const auto& p : patterns) {
      if (cs.find(p) != std::string::npos) clean_ok = false;
      if (ds.find(p) != std::string::npos) found = true;
    }
    planted_ok = planted_ok && found && dirty.size() == gen.payload_len;
  }
  Check(clean_ok, "no clean payload contains a block pattern");
  Check(planted_ok, "every planted payload contains one");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  Determinism("fleet schedule", FleetDigest);
  Determinism("dpi payloads and planting", DpiDigest);
  DpiRulesetFixed();
  Determinism("flip schedule", FlipDigest);
  BlockPatternsNeverInCleanPayloads();
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
