// Vulnerability scanner: the SHODAN-like sweep as a reusable component.
//
// Given a target list, the scanner probes each device for every Table 1
// flaw class — banner grab, default credentials, unauthenticated
// management, firmware/key download, credential-less and backdoor IoTCtl,
// open DNS resolution — paced to respect link queues, and reports per-
// device findings. Deployments use it two ways: the Table 1 census bench,
// and operators bootstrapping device security contexts ("unpatched")
// before the crowd repository has signatures.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <vector>

#include "devices/attacker.h"
#include "devices/device.h"
#include "devices/registry.h"
#include "sim/simulator.h"

namespace iotsec::scan {

struct ScanTarget {
  net::Ipv4Address ip;
  net::MacAddress mac;
  DeviceId device = kInvalidDevice;  // optional correlation tag
};

struct ScanFinding {
  ScanTarget target;
  devices::Vulnerability vulnerability;
  std::string evidence;  // human-readable proof ("HTTP 200 on /admin", ...)
};

struct ScanReport {
  std::vector<ScanFinding> findings;
  std::size_t targets_probed = 0;
  std::size_t probes_sent = 0;

  [[nodiscard]] bool Has(DeviceId device, devices::Vulnerability v) const;
  [[nodiscard]] std::set<devices::Vulnerability> For(DeviceId device) const;
};

class VulnerabilityScanner {
 public:
  /// `probe` provides the network vantage point; the scanner drives it,
  /// scheduling probes on its simulator and advancing time with `run`.
  VulnerabilityScanner(sim::Simulator& simulator, sim::RunFn run,
                       devices::Attacker& probe);

  /// Sweeps the targets synchronously (advances time through `run`). The
  /// returned report is complete when the call returns.
  ScanReport Sweep(const std::vector<ScanTarget>& targets);

 private:
  void ProbeTarget(const ScanTarget& target, ScanReport& report);

  sim::Simulator& sim_;
  sim::RunFn run_;
  devices::Attacker& probe_;
};

/// Convenience: builds targets for every device in a registry.
std::vector<ScanTarget> TargetsOf(const devices::DeviceRegistry& registry);

}  // namespace iotsec::scan
