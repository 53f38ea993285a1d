#include "baseline/baseline.h"

#include "proto/frame.h"

namespace iotsec::baseline {

void PerimeterGateway::ConnectWan(net::Link* link, int my_end) {
  wan_ = link;
  wan_end_ = my_end;
  link->Attach(my_end, this, /*port=*/0);
}

void PerimeterGateway::ConnectLan(net::Link* link, int my_end) {
  lan_ = link;
  lan_end_ = my_end;
  link->Attach(my_end, this, /*port=*/1);
}

void PerimeterGateway::Receive(net::PacketPtr pkt, int port) {
  const auto* frame = pkt->Parsed();
  if (!frame) return;
  const SimTime now = sim_.Now();
  if (port == 1) {
    // Outbound: always allowed; primes the tracker so replies return.
    ++stats_.outbound;
    tracker_.Update(*frame, now);
    if (wan_ != nullptr) wan_->Send(wan_end_, std::move(pkt));
    return;
  }
  // Inbound: static policy first, then established-connection bypass.
  ++stats_.inbound;
  const auto verdict = policy_.Evaluate(*frame, &tracker_, now);
  if (verdict == policy::MatchActionVerdict::kDeny) {
    ++stats_.blocked;
    return;
  }
  tracker_.Update(*frame, now);
  if (lan_ != nullptr) lan_->Send(lan_end_, std::move(pkt));
}

HostAntivirus::FleetReport HostAntivirus::Assess(
    const std::vector<devices::Device*>& fleet) {
  FleetReport report;
  for (const devices::Device* device : fleet) {
    ++report.devices;
    const bool installable = Installable(*device);
    if (installable) ++report.installable;
    for (const auto vuln : device->spec().vulns) {
      ++report.vulnerabilities;
      if (installable && Mitigates(vuln)) ++report.mitigated;
    }
  }
  return report;
}

}  // namespace iotsec::baseline
