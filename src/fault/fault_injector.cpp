#include "fault/fault_injector.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "obs/obs.h"

namespace iotsec::fault {
namespace {

// Shape of every random-plan link flap and control degradation.
constexpr SimDuration kFlapDuration = 2 * kSecond;
constexpr double kFlapLossRate = 0.5;
constexpr SimDuration kDegradeDuration = 2 * kSecond;
constexpr double kDegradeDropRate = 0.5;
constexpr SimDuration kDegradeExtraDelay = 10 * kMillisecond;

}  // namespace

std::string_view FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kUmboxCrash: return "umbox_crash";
    case FaultKind::kHostCrash: return "host_crash";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kControlDegrade: return "control_degrade";
  }
  return "unknown";
}

std::string FaultEvent::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "t=%llu kind=%s device=%u host=%zu link=%zu dur=%llu "
                "loss=%.6f delay=%llu",
                static_cast<unsigned long long>(at),
                std::string(FaultKindName(kind)).c_str(), device, host_index,
                link_index, static_cast<unsigned long long>(duration),
                loss_rate, static_cast<unsigned long long>(extra_delay));
  return buf;
}

void FaultInjector::AddLink(net::Link* link) {
  links_.push_back(FlapTarget{link, link->config().loss_rate});
}

void FaultInjector::CrashUmboxOf(SimTime at, DeviceId device) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kUmboxCrash;
  ev.device = device;
  Schedule({ev});
}

void FaultInjector::CrashHost(SimTime at, std::size_t host_index) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kHostCrash;
  ev.host_index = host_index;
  Schedule({ev});
}

void FaultInjector::FlapLink(SimTime at, std::size_t link_index,
                             SimDuration duration, double loss_rate) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kLinkFlap;
  ev.link_index = link_index;
  ev.duration = duration;
  ev.loss_rate = loss_rate;
  Schedule({ev});
}

void FaultInjector::DegradeControl(SimTime at, SimDuration duration,
                                   double drop_rate,
                                   SimDuration extra_delay) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = FaultKind::kControlDegrade;
  ev.duration = duration;
  ev.loss_rate = drop_rate;
  ev.extra_delay = extra_delay;
  Schedule({ev});
}

std::vector<FaultEvent> FaultInjector::BuildPlan(
    const PlanConfig& config) const {
  Rng rng(seed_);
  std::vector<FaultEvent> plan;

  // One Poisson arrival stream per fault kind; the draw order below is
  // fixed, which is what makes the plan a pure function of the seed.
  const auto arrivals = [&](double rate_hz, auto&& make) {
    if (rate_hz <= 0.0) return;
    double t = static_cast<double>(config.start);
    const double end =
        static_cast<double>(config.start) + static_cast<double>(config.horizon);
    for (;;) {
      t += rng.NextExponential(1.0 / rate_hz) * static_cast<double>(kSecond);
      if (t >= end) break;
      FaultEvent ev = make();
      ev.at = static_cast<SimTime>(t);
      plan.push_back(ev);
    }
  };

  if (!config.devices.empty()) {
    arrivals(config.umbox_crash_rate_hz, [&] {
      FaultEvent ev;
      ev.kind = FaultKind::kUmboxCrash;
      ev.device = config.devices[rng.NextBelow(config.devices.size())];
      return ev;
    });
  }
  if (config.hosts > 0) {
    arrivals(config.host_crash_rate_hz, [&] {
      FaultEvent ev;
      ev.kind = FaultKind::kHostCrash;
      ev.host_index = rng.NextBelow(config.hosts);
      return ev;
    });
  }
  if (config.links > 0) {
    arrivals(config.link_flap_rate_hz, [&] {
      FaultEvent ev;
      ev.kind = FaultKind::kLinkFlap;
      ev.link_index = rng.NextBelow(config.links);
      ev.duration = kFlapDuration;
      ev.loss_rate = kFlapLossRate;
      return ev;
    });
  }
  arrivals(config.control_degrade_rate_hz, [&] {
    FaultEvent ev;
    ev.kind = FaultKind::kControlDegrade;
    ev.duration = kDegradeDuration;
    ev.loss_rate = kDegradeDropRate;
    ev.extra_delay = kDegradeExtraDelay;
    return ev;
  });

  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

void FaultInjector::Schedule(const std::vector<FaultEvent>& plan) {
  for (const FaultEvent& ev : plan) {
    sim_.At(ev.at, [this, ev] { Inject(ev); });
  }
}

void FaultInjector::Inject(const FaultEvent& event) {
  // Every injected fault is a flight-recorder breadcrumb, so a post-
  // incident dump shows the injection next to the detection/recovery
  // events it caused (target id: device for µmbox crashes, index for the
  // rest).
  if (obs::Enabled()) {
    obs::FlightRecorder::Global().Record(
        obs::TraceEventType::kFaultInjected, sim_.Now(),
        static_cast<std::uint32_t>(event.kind),
        event.kind == FaultKind::kUmboxCrash
            ? static_cast<std::uint64_t>(event.device)
            : static_cast<std::uint64_t>(event.host_index));
  }
  switch (event.kind) {
    case FaultKind::kUmboxCrash: {
      if (controller_ == nullptr || cluster_ == nullptr) {
        ++stats_.skipped;
        return;
      }
      const auto umbox = controller_->UmboxOf(event.device);
      if (!umbox) {
        ++stats_.skipped;
        return;
      }
      dataplane::UmboxHost* host = cluster_->HostOf(*umbox);
      if (host == nullptr || !host->CrashUmbox(*umbox)) {
        ++stats_.skipped;
        return;
      }
      ++stats_.umbox_crashes;
      IOTSEC_LOG_INFO("fault: crashed umbox %u (device %u)", *umbox,
                      event.device);
      return;
    }
    case FaultKind::kHostCrash: {
      if (cluster_ == nullptr ||
          event.host_index >= cluster_->hosts().size()) {
        ++stats_.skipped;
        return;
      }
      dataplane::UmboxHost* host = cluster_->hosts()[event.host_index];
      if (!host->alive()) {
        ++stats_.skipped;
        return;
      }
      host->Crash();
      ++stats_.host_crashes;
      IOTSEC_LOG_WARN("fault: crashed host %u (%d umboxes lost)",
                      host->id(), host->load());
      return;
    }
    case FaultKind::kLinkFlap: {
      if (event.link_index >= links_.size()) {
        ++stats_.skipped;
        return;
      }
      const FlapTarget target = links_[event.link_index];
      target.link->SetLossRate(event.loss_rate);
      ++stats_.link_flaps;
      sim_.After(event.duration, [target] {
        target.link->SetLossRate(target.base_loss_rate);
      });
      return;
    }
    case FaultKind::kControlDegrade: {
      if (controller_ == nullptr) {
        ++stats_.skipped;
        return;
      }
      controller_->SetControlChannelFault(event.loss_rate,
                                          event.extra_delay);
      ++stats_.control_degrades;
      sim_.After(event.duration, [this] {
        if (controller_ != nullptr) controller_->SetControlChannelFault(0, 0);
      });
      return;
    }
  }
}

}  // namespace iotsec::fault
