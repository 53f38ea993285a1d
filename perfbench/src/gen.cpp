#include "gen.h"

#include <algorithm>
#include <numeric>

#include "sig/corpus.h"
#include "stats.h"

namespace perfbench {

GenDevice FleetGen::Device(int index) const {
  GenDevice d;
  d.id = static_cast<DeviceId>(index + 1);
  d.slice = static_cast<int>(d.id % static_cast<DeviceId>(slices));
  const auto id = static_cast<std::uint64_t>(d.id);
  // A seeded permutation gives each device its own slot of the interval,
  // jittered within the slot, so no two devices send at the same instant.
  const auto n = static_cast<std::uint64_t>(devices);
  std::uint64_t stride = Mix64(seed, 0x51u) % n | 1;
  while (std::gcd(stride, n) != 1) stride += 2;
  const std::uint64_t slot =
      (static_cast<std::uint64_t>(index) * stride + Mix64(seed, 0x52u)) % n;
  const std::uint64_t width = static_cast<std::uint64_t>(interval) / n;
  d.offset = static_cast<SimDuration>(slot * width + Mix64(seed, id) % width);
  if (slices > 1 && Mix64(0xC055u, id) % 1000 <
                        static_cast<std::uint64_t>(cross_permille)) {
    const auto hop = static_cast<int>(
        Mix64(0x9E37u, id) % static_cast<std::uint64_t>(slices - 1));
    d.peer_slice = (d.slice + 1 + hop) % slices;
  }
  return d;
}

DeviceId PayloadDevice(const std::uint8_t* payload, std::size_t len,
                       std::uint8_t* tag) {
  if (len < kIdBytes) return iotsec::kInvalidDevice;
  std::uint64_t v = 0;
  for (int i = 6; i >= 0; --i) v = (v << 8) | payload[i];
  *tag = payload[7];
  return static_cast<DeviceId>(v);
}

Bytes TelemetryPayload(DeviceId id, std::uint8_t tag) {
  Bytes p(kIdBytes);
  auto v = static_cast<std::uint64_t>(id);
  for (std::size_t i = 0; i < 7; ++i) {
    p[i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  p[7] = tag;
  return p;
}

std::vector<std::string> DpiGen::BlockPatterns() const {
  iotsec::Rng rng(0xB10C);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < block_rules; ++i) {
    // 'K'..'Z' and digits: never in the 'a'..'e' payload alphabet, not
    // even case-folded, so no clean frame can match a block rule.
    std::string p = "EXPLOIT-";
    for (int j = 0; j < 8; ++j) {
      p += static_cast<char>('K' + rng.NextBelow(16));
    }
    p += std::to_string(i);
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<iotsec::sig::Rule> DpiGen::Rules() const {
  using iotsec::sig::Rule;
  std::vector<Rule> rules = iotsec::sig::BuiltinRules();
  const std::size_t builtin = rules.size();
  const std::size_t content =
      total_rules > builtin + block_rules ? total_rules - builtin - block_rules
                                          : 0;
  // Content rules as bench_dpi generates them: 6-14 byte patterns over a
  // five-letter alphabet, a quarter of them case-insensitive, alerting.
  iotsec::Rng rng(0xC0DE);
  for (std::size_t i = 0; i < content; ++i) {
    const auto len = 6 + rng.NextBelow(9);
    std::string p;
    for (std::size_t j = 0; j < len; ++j) {
      p += static_cast<char>('a' + rng.NextBelow(5));
    }
    Rule rule;
    rule.action = iotsec::sig::RuleAction::kAlert;
    rule.proto = iotsec::sig::RuleProto::kTcp;
    rule.sid = static_cast<std::uint32_t>(10000 + i);
    rule.msg = "perfbench content";
    rule.contents.push_back(
        iotsec::sig::ContentPattern{p, /*nocase=*/rng.NextBool(0.25)});
    rules.push_back(std::move(rule));
  }
  const auto patterns = BlockPatterns();
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Rule rule;
    rule.action = iotsec::sig::RuleAction::kBlock;
    rule.proto = iotsec::sig::RuleProto::kTcp;
    rule.sid = static_cast<std::uint32_t>(20000 + i);
    rule.msg = "perfbench planted exploit";
    rule.contents.push_back(iotsec::sig::ContentPattern{patterns[i], false});
    rules.push_back(std::move(rule));
  }
  return rules;
}

Bytes DpiGen::Payload(DeviceId id, std::uint8_t tag, bool planted) const {
  Bytes p = TelemetryPayload(id, tag);
  iotsec::Rng rng(Mix64(seed ^ 0xDA7A, static_cast<std::uint64_t>(id)));
  p.reserve(payload_len);
  while (p.size() < payload_len) {
    p.push_back(static_cast<std::uint8_t>('a' + rng.NextBelow(5)));
  }
  if (planted) {
    const auto patterns = BlockPatterns();
    const std::string& pat =
        patterns[Mix64(seed ^ 0x91A7, static_cast<std::uint64_t>(id)) %
                 patterns.size()];
    const std::size_t room = payload_len - kIdBytes - pat.size();
    const std::size_t off = kIdBytes + rng.NextBelow(room);
    std::copy(pat.begin(), pat.end(), p.begin() + static_cast<long>(off));
  }
  return p;
}

bool DpiGen::Planted(DeviceId id, std::uint64_t k) const {
  return Mix64(Mix64(seed ^ 0x5EED, static_cast<std::uint64_t>(id)), k) %
             1000 <
         static_cast<std::uint64_t>(planted_permille);
}

FlipGen::FlipGen(std::uint64_t seed, int devices, SimDuration min_gap,
                 SimDuration max_gap)
    : rng_(Mix64(seed, 0xF11F)),
      devices_(devices),
      min_gap_(min_gap),
      max_gap_(max_gap) {}

Flip FlipGen::Next() {
  Flip f;
  f.gap = min_gap_ + static_cast<SimDuration>(rng_.NextBelow(
                         static_cast<std::uint64_t>(max_gap_ - min_gap_)));
  f.device = static_cast<int>(
      rng_.NextBelow(static_cast<std::uint64_t>(devices_)));
  return f;
}

}  // namespace perfbench
