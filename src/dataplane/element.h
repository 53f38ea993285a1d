// Click-lite element framework for µmboxes.
//
// The paper (§5.2) calls for "a lightweight Click version ... that can
// serve as an extensible programming platform" for micro-middleboxes.
// An Element is a packet-processing stage with numbered input/output
// ports; a µmbox is a small directed graph of them, described in a
// Click-like config language (see graph.h) and hot-reconfigurable.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/packet.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace iotsec::dataplane {

/// Read-only view of the controller's global context (device states,
/// security contexts, environment levels). Keys use dotted paths:
///   "device.<name>.state"    -> FSM state ("on", "person_detected", ...)
///   "device.<name>.context"  -> security context ("normal", "suspicious")
///   "env.<variable>"         -> environment level name ("high", "on", ...)
class ContextView {
 public:
  virtual ~ContextView() = default;
  [[nodiscard]] virtual std::optional<std::string> Get(
      const std::string& key) const = 0;
};

/// Security event raised by an element (signature hit, anomaly, blocked
/// command); routed by the µmbox to the controller.
struct Alert {
  std::string element;
  std::string kind;    // "signature", "anomaly", "blocked", "auth"
  std::string detail;
  std::vector<std::uint32_t> sids;  // matched rule sids, if any
  SimTime at = 0;
};

/// key=value configuration for an element, parsed from the config text.
using ConfigMap = std::map<std::string, std::string>;

/// Parses "key=value, key2="a, quoted value"" into a ConfigMap.
/// Returns nullopt on syntax errors.
std::optional<ConfigMap> ParseConfigArgs(std::string_view args,
                                         std::string* error);

struct ElementContext {
  sim::Simulator* sim = nullptr;
  const ContextView* context = nullptr;
};

/// What an element type contributes to a security chain. The static
/// verifier keys fail-open analysis on this: a posture whose graph holds
/// no blocking/scanning element enforces nothing.
enum class ElementRole : std::uint8_t {
  kPlumbing,  // moves/copies/delays packets, never drops or alerts
  kScanning,  // raises alerts but forwards (AnomalyDetector, Logger-like)
  kBlocking,  // can drop packets on a security verdict
};

/// Tee's output arity comes from its `ports` config key, not the table.
inline constexpr int kVariadicOutPorts = -1;

/// Most ports any element has on either side: a graph's port indices are
/// 0..kMaxPorts-1, and Tee's `ports` is 1..kMaxPorts.
inline constexpr int kMaxPorts = 16;

/// Static metadata for one element type: the single source of truth the
/// factory and the µmbox-graph linter share.
struct ElementTypeInfo {
  std::string_view type;
  ElementRole role = ElementRole::kPlumbing;
  /// Output ports the element ever emits on (kVariadicOutPorts for Tee).
  int out_ports = 1;
  /// Config keys Configure understands; anything else is a typo that is
  /// silently ignored at build time (the linter flags it).
  std::vector<std::string_view> config_keys;
};

/// All registered element types, in factory order (deterministic).
const std::vector<ElementTypeInfo>& AllElementTypes();

/// Metadata for one type; nullptr for unknown types.
const ElementTypeInfo* FindElementType(std::string_view type);

class Element {
 public:
  // The per-type latency histogram is resolved at construction (build /
  // reconfigure time), so Accept() never pays a registry lookup. All
  // instances of a type share one histogram: "dp.element.Counter_ns".
  Element(std::string name, std::string type)
      : name_(std::move(name)),
        type_(std::move(type)),
        latency_hist_(obs::MetricsRegistry::Global().GetHistogram(
            "dp.element." + type_ + "_ns")) {}
  virtual ~Element() = default;

  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& type() const { return type_; }

  void SetContext(const ElementContext& ctx) { ctx_ = ctx; }

  /// Applies configuration; called at build time and again on hot
  /// reconfiguration. Returns false (with *error set) on bad config.
  virtual bool Configure(const ConfigMap& config, std::string* error) {
    (void)config;
    (void)error;
    return true;
  }

  /// Processes one packet arriving on `in_port`.
  virtual void Push(net::PacketPtr pkt, int in_port) = 0;

  /// Wires output port `out_port` to another element's input port.
  void ConnectOutput(int out_port, Element* next, int next_in_port);

  /// Packets leaving an unconnected output port exit the µmbox here.
  void SetEgress(std::function<void(net::PacketPtr)> egress) {
    egress_ = std::move(egress);
  }
  void SetAlertSink(std::function<void(Alert)> sink) {
    alert_sink_ = std::move(sink);
  }

  struct Stats {
    std::uint64_t in = 0;
    std::uint64_t out = 0;
    std::uint64_t dropped = 0;
    std::uint64_t alerts = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Entry point used by the graph (counts + dispatches to Push).
  void Accept(net::PacketPtr pkt, int in_port) {
    ++stats_.in;
    OBS_SPAN(latency_hist_);
    Push(std::move(pkt), in_port);
  }

  /// One wired output port: where packets leaving that port go. A null
  /// `next` means the port egresses the µmbox.
  struct Wire {
    Element* next = nullptr;
    int in_port = 0;
  };

  /// Wiring introspection for the graph linter: entry i is output port
  /// i's wire (ports past the vector's end are unconnected).
  [[nodiscard]] const std::vector<Wire>& wires() const { return outputs_; }

 protected:
  /// Forwards to the connected downstream element, or to the egress when
  /// the port is unconnected.
  void Output(net::PacketPtr pkt, int out_port = 0);

  /// Accounts a dropped packet (a drop verdict is a flight-recorder
  /// breadcrumb: it is the packet-level decision an operator replays).
  void Drop(const net::PacketPtr& pkt) {
    (void)pkt;
    ++stats_.dropped;
    if (obs::Enabled()) {
      obs::FlightRecorder::Global().Record(
          obs::TraceEventType::kPacketVerdict,
          ctx_.sim != nullptr ? ctx_.sim->Now() : 0,
          static_cast<std::uint32_t>(std::hash<std::string>{}(name_)),
          /*b=*/0);
    }
  }

  void RaiseAlert(std::string kind, std::string detail,
                  std::vector<std::uint32_t> sids = {});

  ElementContext ctx_;
  Stats stats_;

 private:
  std::string name_;
  std::string type_;
  obs::Histogram* latency_hist_ = nullptr;
  std::vector<Wire> outputs_;
  std::function<void(net::PacketPtr)> egress_;
  std::function<void(Alert)> alert_sink_;
};

/// Creates an element by type name ("Counter", "StatefulFirewall", ...).
/// Returns nullptr (with *error set) for unknown types.
std::unique_ptr<Element> CreateElement(const std::string& type,
                                       const std::string& name,
                                       std::string* error);

}  // namespace iotsec::dataplane
