// End-to-end crowd-to-enforcement pipeline: a signature published (and
// quorum-accepted) in the repository live-patches the µmboxes of every
// device with the matching SKU — herd immunity without touching policy.
#include <gtest/gtest.h>

#include "core/iotsec.h"

namespace iotsec {
namespace {

// A flaw the built-in corpus does NOT cover: a malicious "reboot" loop
// triggered with the device's own (leaked) credential. Only a crowd rule
// can stop it.
constexpr char kCrowdRule[] =
    "block udp any any -> any 5009 (msg:\"leaked-cred reboot abuse\"; "
    "sid:9400; iotcmd:reboot; )";

struct PipelineWorld {
  core::Deployment dep;
  devices::SmartPlug* wemo;
  learn::CrowdRepo repo;

  explicit PipelineWorld(policy::Posture posture = core::MonitorPosture()) {
    wemo = dep.AddSmartPlug("wemo", "oven_power");  // SKU Wemo-Insight
    policy::FsmPolicy policy;
    policy.SetDefault(std::move(posture));
    dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
    dep.controller().AttachCrowdRepo(&repo);
    dep.Start();
    dep.RunFor(kSecond);
  }

  /// Sends the reboot-abuse command with the leaked credential; returns
  /// the device's response code ("" when blocked in the network).
  std::string SendRebootAbuse() {
    std::string result;
    dep.attacker().SendIotCommand(
        wemo->spec().ip, wemo->spec().mac, proto::IotCommand::kReboot,
        wemo->spec().credential, false,
        [&](const proto::IotCtlMessage& resp) {
          result = resp.Find(proto::IotTag::kResultCode).value_or("");
        });
    dep.RunFor(2 * kSecond);
    return result;
  }

  void PublishAndAccept() {
    learn::SignatureReport report;
    report.sku = "Wemo-Insight";
    report.rule_text = kCrowdRule;
    report.contributor = "some-other-home";
    const auto id = repo.Publish(report).id;
    for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
      repo.Vote(id, voter, true);
    }
    dep.RunFor(kSecond);  // distribution latency
  }
};

TEST(CrowdPipelineTest, AcceptedSignaturePatchesRunningUmboxes) {
  PipelineWorld w;
  // Before the crowd rule: the abuse goes through (credential is valid,
  // builtin corpus has nothing against reboot).
  EXPECT_EQ(w.SendRebootAbuse(), "unsupported")
      << "device saw (and answered) the abusive command";

  w.PublishAndAccept();
  EXPECT_GT(w.dep.controller().stats().crowd_rules_applied, 0u);

  // After: the µmbox eats the command before the device ever sees it.
  EXPECT_EQ(w.SendRebootAbuse(), "");
  // Benign commands still pass through the patched chain.
  std::string result;
  w.dep.attacker().SendIotCommand(
      w.wemo->spec().ip, w.wemo->spec().mac, proto::IotCommand::kTurnOn,
      w.wemo->spec().credential, false,
      [&](const proto::IotCtlMessage& resp) {
        result = resp.Find(proto::IotTag::kResultCode).value_or("");
      });
  w.dep.RunFor(2 * kSecond);
  EXPECT_EQ(result, "ok");
  EXPECT_EQ(w.wemo->State(), "on");
}

TEST(CrowdPipelineTest, SpliceGuardsTheConfigEntry) {
  // Posture configs are user text. Whatever its form, the crowd matcher
  // must end up in front of the config's entry, or it never sees a packet.
  for (const char* config : {
           // Entry set by an `entry` line, not by declaration order.
           "sig :: SignatureMatcher(rules=builtin)\n"
           "count :: Counter()\n"
           "entry count\n"
           "count -> sig\n",
           // No newline after the last line.
           "count :: Counter()\n"
           "sig :: SignatureMatcher(rules=builtin)\n"
           "count -> sig"}) {
    SCOPED_TRACE(config);
    policy::Posture posture = core::MonitorPosture();
    posture.umbox_config = config;
    PipelineWorld w(std::move(posture));
    EXPECT_EQ(w.SendRebootAbuse(), "unsupported");

    w.PublishAndAccept();
    EXPECT_GT(w.dep.controller().stats().crowd_rules_applied, 0u);
    EXPECT_EQ(w.SendRebootAbuse(), "")
        << "the spliced crowd rule must block the abuse";
  }
}

TEST(CrowdPipelineTest, SignaturesAcceptedBeforeAttachAreLoaded) {
  learn::CrowdRepo repo;
  learn::SignatureReport report;
  report.sku = "Wemo-Insight";
  report.rule_text = kCrowdRule;
  const auto id = repo.Publish(report).id;
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(id, voter, true);
  }

  core::Deployment dep;
  auto* wemo = dep.AddSmartPlug("wemo", "oven_power");
  policy::FsmPolicy policy;
  policy.SetDefault(core::MonitorPosture());
  dep.UsePolicy(dep.BuildStateSpace(), std::move(policy));
  dep.controller().AttachCrowdRepo(&repo);  // rule already accepted
  dep.Start();
  dep.RunFor(kSecond);

  std::string result = "unset";
  dep.attacker().SendIotCommand(
      wemo->spec().ip, wemo->spec().mac, proto::IotCommand::kReboot,
      wemo->spec().credential, false,
      [&](const proto::IotCtlMessage& resp) {
        result = resp.Find(proto::IotTag::kResultCode).value_or("");
      });
  dep.RunFor(2 * kSecond);
  EXPECT_EQ(result, "unset") << "pre-accepted rule must be active at launch";
}

TEST(CrowdPipelineTest, OtherSkusUnaffected) {
  PipelineWorld w;
  auto* cam = w.dep.AddCamera("cam");  // SKU Avtech-AVN801
  // Late-added device: give it a posture by restarting policy evaluation.
  w.dep.controller().Start();
  w.dep.RunFor(kSecond);
  w.PublishAndAccept();

  // The camera's chain was not touched (different SKU); it still answers.
  int status = 0;
  w.dep.attacker().HttpGet(cam->spec().ip, cam->spec().mac, "/",
                           std::nullopt, [&](const proto::HttpResponse& r) {
                             status = r.status;
                           });
  w.dep.RunFor(2 * kSecond);
  EXPECT_EQ(status, 200);
}

}  // namespace
}  // namespace iotsec
