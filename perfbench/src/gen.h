// Seeded input generators. Every input a workload feeds the program — the
// send schedule, frame bytes, the DPI ruleset, planted signatures and the
// context-flip schedule — is derived here from the run's seed and nothing
// else, so one seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "sig/rule.h"

namespace perfbench {

using iotsec::Bytes;
using iotsec::DeviceId;
using iotsec::SimDuration;

/// Placement and schedule of one fleet device.
struct GenDevice {
  DeviceId id = 0;
  int slice = 0;
  int peer_slice = -1;       // slice whose aggregator gets cross traffic
  SimDuration offset = 0;    // first send = start + offset
};

/// The fleet's topology (slices, cross-slice senders and their peers)
/// depends only on device ids, as in core::ShardedFleet; the seed sets
/// each device's send phase. Phases are distinct (at most one device per
/// interval / devices slot), so a send time identifies its device.
struct FleetGen {
  int devices = 1000;
  int slices = 8;
  SimDuration interval = 10 * iotsec::kMillisecond;
  /// Share of devices that also send across slices, in permille.
  int cross_permille = 125;
  std::uint64_t seed = 1;

  [[nodiscard]] GenDevice Device(int index) const;
};

/// Payload bytes 0..6 carry the device id (little endian), byte 7 a tag;
/// the sinks recover a frame's sender from them.
inline constexpr std::uint8_t kTagTelemetry = 1;
inline constexpr std::uint8_t kTagCross = 2;
inline constexpr std::size_t kIdBytes = 8;

[[nodiscard]] DeviceId PayloadDevice(const std::uint8_t* payload,
                                     std::size_t len, std::uint8_t* tag);

/// The 8-byte telemetry payload of `id`.
[[nodiscard]] Bytes TelemetryPayload(DeviceId id, std::uint8_t tag);

/// DPI workload inputs: the ruleset (builtin corpus + generated content
/// rules, a few of which block) and per-device payloads.
struct DpiGen {
  std::size_t total_rules = 1000;
  std::size_t block_rules = 32;
  std::size_t payload_len = 1448;
  /// Share of sends that carry a planted blocking signature, permille.
  int planted_permille = 62;
  std::uint64_t seed = 1;

  /// Builtin rules, then alert content rules over a narrow alphabet, then
  /// block rules whose patterns use bytes the payload alphabet lacks, so a
  /// frame is blocked exactly when a block pattern was planted in it. The
  /// ruleset is the same for every seed, as in bench_dpi: its automaton
  /// sets the scan cost, and the seed varies only the traffic.
  [[nodiscard]] std::vector<iotsec::sig::Rule> Rules() const;
  [[nodiscard]] std::vector<std::string> BlockPatterns() const;
  /// Payload for `id`; `planted` splices one block pattern in.
  [[nodiscard]] Bytes Payload(DeviceId id, std::uint8_t tag,
                              bool planted) const;
  /// Whether send number `k` of device `id` carries a planted signature.
  [[nodiscard]] bool Planted(DeviceId id, std::uint64_t k) const;
};

/// Posture-churn schedule: which device flips and when.
struct Flip {
  SimDuration gap = 0;  // simulated time since the previous flip
  int device = 0;       // device index
};

class FlipGen {
 public:
  FlipGen(std::uint64_t seed, int devices, SimDuration min_gap,
          SimDuration max_gap);
  Flip Next();

 private:
  iotsec::Rng rng_;
  int devices_;
  SimDuration min_gap_;
  SimDuration max_gap_;
};

}  // namespace perfbench
