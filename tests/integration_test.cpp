// End-to-end integration tests: the paper's two §5.3 proof-of-concept use
// cases, each run both in the "current world" (unmanaged network, attack
// succeeds) and under IoTSec (attack blocked), through the full stack:
// device <-> switch <-> tunnel <-> µmbox cluster, controller in the loop.
#include <gtest/gtest.h>

#include "core/iotsec.h"

namespace iotsec {
namespace {

using devices::Vulnerability;

// ----------------------------------------------- Figure 4: password proxy

TEST(Figure4Test, CurrentWorldDefaultPasswordWins) {
  core::DeploymentOptions opts;
  opts.with_iotsec = false;
  core::Deployment dep(opts);
  auto* cam = dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
                            /*credential=*/"admin");
  dep.Start();

  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                         std::make_pair(std::string("admin"),
                                        std::string("admin")),
                         [&](const proto::HttpResponse& resp) {
                           status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 200) << "current world: admin/admin opens the camera";
}

TEST(Figure4Test, IoTSecPasswordProxyBlocksDefaultAndAdmitsAdmin) {
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
                            /*credential=*/"admin");

  policy::FsmPolicy policy;
  policy.SetDefault(core::PasswordProxyPosture(
      cam->spec().ip, "admin", "N3w-Strong-Pass", "admin", "admin"));
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);  // let the µmbox boot

  // The hardcoded default no longer works from the network.
  int default_status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                         std::make_pair(std::string("admin"),
                                        std::string("admin")),
                         [&](const proto::HttpResponse& resp) {
                           default_status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(default_status, 401)
      << "IoTSec: the hardcoded password is dead at the network layer";

  // The administrator-chosen credential works (proxy rewrites it to the
  // device's unfixable one).
  int admin_status = 0;
  std::string body;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                         std::make_pair(std::string("admin"),
                                        std::string("N3w-Strong-Pass")),
                         [&](const proto::HttpResponse& resp) {
                           admin_status = resp.status;
                           body = resp.body;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(admin_status, 200);
  EXPECT_NE(body.find("admin console"), std::string::npos);

  // No credentials at all: rejected.
  int bare_status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                         std::nullopt, [&](const proto::HttpResponse& resp) {
                           bare_status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(bare_status, 401);
}

TEST(Figure4Test, ForgedVerdictTunnelDoesNotBypassTheProxy) {
  // The attacker wraps a default-password request in a "verdict" tunnel
  // frame addressed as if the camera's µmbox had already passed it. The
  // edge switch must not decapsulate it: it did not come from the
  // cluster, and delivering it by L2 would skip the password proxy.
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
                            /*credential=*/"admin");
  policy::FsmPolicy policy;
  policy.SetDefault(core::PasswordProxyPosture(
      cam->spec().ip, "admin", "N3w-Strong-Pass", "admin", "admin"));
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // The honest attempt goes through the proxy (and gives the switch a
  // µmbox-facing port, so the check below is not vacuous).
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                         std::make_pair(std::string("admin"),
                                        std::string("admin")),
                         [&](const proto::HttpResponse& resp) {
                           status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  ASSERT_EQ(status, 401);
  const auto decapsulated = dep.edge().stats().decapsulated;

  proto::HttpRequest req;
  req.method = "GET";
  req.path = "/admin";
  req.SetHeader("Authorization", proto::BasicAuthValue("admin", "admin"));
  proto::TcpHeader tcp;
  tcp.src_port = 41000;
  tcp.dst_port = 80;
  tcp.flags = proto::TcpFlags::kPsh | proto::TcpFlags::kAck;
  const Bytes inner = proto::BuildTcpFrame(
      dep.attacker().mac(), cam->spec().mac, dep.attacker().ip(),
      cam->spec().ip, tcp, req.Serialize());
  for (const SwitchId origin : {SwitchId{0}, dep.edge().id()}) {
    proto::TunnelHeader th;
    th.direction = proto::TunnelDirection::kFromUmbox;
    th.origin_switch = origin;
    dep.attacker().SendFrame(proto::Encapsulate(
        dep.attacker().mac(), net::MacAddress::Broadcast(), th, inner));
  }
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(cam->stats().commands_accepted, 0u)
      << "the forged verdict reached the camera past its proxy";
  EXPECT_EQ(dep.edge().stats().decapsulated, decapsulated);
}

// -------------------------------------- Figure 5: cross-device policy

struct Fig5World {
  core::Deployment dep;
  devices::Camera* cam;
  devices::SmartPlug* wemo;

  explicit Fig5World(bool with_iotsec) : dep(MakeOptions(with_iotsec)) {
    cam = dep.AddCamera("cam");
    wemo = dep.AddSmartPlug("wemo", "oven_power",
                            {Vulnerability::kBackdoor});
    if (with_iotsec) {
      policy::FsmPolicy policy;
      policy.SetDefault(core::MonitorPosture());
      // The Figure 5 rule: Wemo "ON" only while the camera sees a person.
      policy::PolicyRule gate;
      gate.name = "fig5-wemo-gate";
      gate.when = policy::StatePredicate::Any();
      gate.device = wemo->id();
      gate.posture = core::ContextGatePosture(
          proto::IotCommand::kTurnOn, "device.cam.state", "person_detected");
      gate.priority = 10;
      policy.Add(gate);
      dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    }
    dep.Start();
    dep.RunFor(kSecond);
  }

  static core::DeploymentOptions MakeOptions(bool with_iotsec) {
    core::DeploymentOptions opts;
    opts.with_iotsec = with_iotsec;
    return opts;
  }

  /// Attacker uses the backdoor to send "ON" to the Wemo.
  void AttackOn() {
    dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                  proto::IotCommand::kTurnOn, std::nullopt,
                                  /*backdoor=*/true, nullptr);
    dep.RunFor(2 * kSecond);
  }

  /// A legitimate "ON" (proper credential, no backdoor) — what the
  /// homeowner's app sends. The gate must decide purely on context.
  void LegitOn() {
    dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                  proto::IotCommand::kTurnOn,
                                  wemo->spec().credential,
                                  /*backdoor=*/false, nullptr);
    dep.RunFor(2 * kSecond);
  }

  void LegitOff() {
    dep.attacker().SendIotCommand(wemo->spec().ip, wemo->spec().mac,
                                  proto::IotCommand::kTurnOff,
                                  wemo->spec().credential, false, nullptr);
    dep.RunFor(2 * kSecond);
  }
};

TEST(Figure5Test, CurrentWorldBackdoorTurnsOvenOn) {
  Fig5World world(/*with_iotsec=*/false);
  EXPECT_EQ(world.wemo->State(), "off");
  world.AttackOn();
  EXPECT_EQ(world.wemo->State(), "on")
      << "current world: the backdoor actuates the oven with nobody home";
  EXPECT_TRUE(world.dep.environment().GetBool("oven_power"));
}

TEST(Figure5Test, IoTSecBlocksOnWhenNobodyHome) {
  Fig5World world(/*with_iotsec=*/true);
  world.AttackOn();
  EXPECT_EQ(world.wemo->State(), "off")
      << "IoTSec: ON must be gated on the camera context";
  EXPECT_FALSE(world.dep.environment().GetBool("oven_power"));
  EXPECT_GT(world.dep.controller().stats().alerts, 0u);

  // Even a fully credentialed ON is blocked while nobody is home — the
  // gate decides on context, not on who asks.
  world.LegitOn();
  EXPECT_EQ(world.wemo->State(), "off");
}

TEST(Figure5Test, IoTSecAllowsOnWhenPersonPresent) {
  Fig5World world(/*with_iotsec=*/true);
  // Someone walks in: camera detects, telemetry updates the view.
  world.dep.environment().SetBool("occupancy", true, world.dep.sim().Now());
  world.dep.RunFor(2 * kSecond);
  ASSERT_EQ(world.cam->State(), "person_detected");
  ASSERT_EQ(world.dep.controller().view().DeviceState("cam").value(),
            "person_detected");

  world.LegitOn();
  EXPECT_EQ(world.wemo->State(), "on")
      << "with a person present the legitimate ON goes through";
}

TEST(Figure5Test, GateReactsToContextFlips) {
  Fig5World world(/*with_iotsec=*/true);
  // Person present: ON allowed.
  world.dep.environment().SetBool("occupancy", true, world.dep.sim().Now());
  world.dep.RunFor(2 * kSecond);
  world.LegitOn();
  ASSERT_EQ(world.wemo->State(), "on");

  // Person leaves; the plug is turned off; further ONs are blocked.
  world.dep.environment().SetBool("occupancy", false, world.dep.sim().Now());
  world.dep.RunFor(2 * kSecond);
  world.LegitOff();
  ASSERT_EQ(world.wemo->State(), "off");
  world.LegitOn();
  EXPECT_EQ(world.wemo->State(), "off");
  world.AttackOn();
  EXPECT_EQ(world.wemo->State(), "off");
}

// -------------------------------------- DNS amplification containment

TEST(DnsContainmentTest, IoTSecDnsGuardStopsReflection) {
  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power",
                                {Vulnerability::kOpenDnsResolver});
  policy::FsmPolicy policy;
  policy.SetDefault(core::DnsGuardPosture(dep.lan_prefix()));
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  // Victim is an off-LAN address; spoofed-source queries must die in the
  // µmbox (src 203.0.113.80 is outside expected_clients).
  const auto baseline_out = wemo->stats().frames_out;  // boot telemetry
  dep.attacker().DnsAmplify(wemo->spec().ip, wemo->spec().mac,
                            net::Ipv4Address(203, 0, 113, 80), 20);
  dep.RunFor(5 * kSecond);
  // The resolver never even sees the queries, so it produces no responses.
  EXPECT_EQ(wemo->stats().frames_out, baseline_out);
  EXPECT_GT(dep.controller().stats().alerts, 0u);
}

// ---------------------------------------- Perimeter-baseline comparison

TEST(PerimeterTest, GatewayStopsWanButNotLanAttacks) {
  // WAN attacker behind a default-deny perimeter: blocked.
  core::DeploymentOptions wan_opts;
  wan_opts.with_iotsec = false;
  wan_opts.wan_attacker = true;
  core::Deployment wan_dep(wan_opts);
  auto* cam = wan_dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
                                "admin");
  policy::MatchActionPolicy fw;
  policy::MatchActionRule deny;
  deny.name = "default-deny-inbound";
  deny.match = sdn::FlowMatch::Any();
  deny.verdict = policy::MatchActionVerdict::kDeny;
  deny.allow_established = true;
  fw.Add(deny);
  wan_dep.gateway()->SetPolicy(std::move(fw));
  wan_dep.Start();

  int status = 0;
  wan_dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/admin",
                             std::make_pair(std::string("admin"),
                                            std::string("admin")),
                             [&](const proto::HttpResponse& resp) {
                               status = resp.status;
                             });
  wan_dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 0) << "perimeter blocks unsolicited WAN access";
  EXPECT_GT(wan_dep.gateway()->stats().blocked, 0u);

  // The same attack from inside the LAN sails straight through — the
  // paper's core argument against perimeter-only defense.
  core::DeploymentOptions lan_opts;
  lan_opts.with_iotsec = false;
  core::Deployment lan_dep(lan_opts);
  auto* cam2 = lan_dep.AddCamera("cam", {Vulnerability::kDefaultPassword},
                                 "admin");
  lan_dep.Start();
  int lan_status = 0;
  lan_dep.attacker().HttpGet(cam2->spec().ip, cam2->spec().mac, "/admin",
                             std::make_pair(std::string("admin"),
                                            std::string("admin")),
                             [&](const proto::HttpResponse& resp) {
                               lan_status = resp.status;
                             });
  lan_dep.RunFor(2 * kSecond);
  EXPECT_EQ(lan_status, 200) << "perimeter is blind to insider attacks";
}

// ----------------------------------------------- Steering verification

TEST(SteeringTest, DivertedTrafficTraversesUmbox) {
  core::Deployment dep;
  auto* cam = dep.AddCamera("cam");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.Start();
  dep.RunFor(kSecond);

  ASSERT_TRUE(dep.controller().UmboxOf(cam->id()).has_value());
  const UmboxId umbox_id = *dep.controller().UmboxOf(cam->id());
  dataplane::Umbox* box = dep.cluster().Find(umbox_id);
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(box->state(), dataplane::UmboxState::kRunning);

  const auto before = box->stats().processed;
  int status = 0;
  dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/", std::nullopt,
                         [&](const proto::HttpResponse& resp) {
                           status = resp.status;
                         });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 200) << "benign traffic flows through the monitor chain";
  EXPECT_GE(box->stats().processed, before + 2)
      << "both request and response must traverse the µmbox";
  EXPECT_GT(dep.edge().stats().tunneled, 0u);
  EXPECT_GT(dep.edge().stats().decapsulated, 0u);
}

}  // namespace
}  // namespace iotsec
