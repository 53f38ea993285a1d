// Tests for the §4 learning machinery: crowd-sourced signature repo,
// abstract model library, interaction fuzzer, attack graphs.
#include <gtest/gtest.h>

#include "devices/models.h"
#include "devices/registry.h"
#include "env/dynamics.h"
#include "learn/attack_graph.h"
#include "learn/crowd.h"
#include "learn/fuzzer.h"
#include "obs/obs.h"

namespace iotsec::learn {
namespace {

constexpr char kValidRule[] =
    "block udp any any -> any 5009 (msg:\"wemo backdoor\"; sid:9001; "
    "iot_backdoor; )";

TEST(AnonymizeTest, StripsIdentityAndGeneralizesIps) {
  SignatureReport report;
  report.contributor = "alice@example.com";
  report.observables["src_ip"] = "192.168.7.44";
  report.observables["site"] = "acme-hq";
  report.observables["note"] = "seen twice";
  AnonymizeReport(report);
  EXPECT_TRUE(report.contributor.empty());
  EXPECT_EQ(report.observables["src_ip"], "192.168.0.0/16");
  EXPECT_NE(report.observables["site"], "acme-hq");
  EXPECT_TRUE(report.observables["site"].starts_with("anon-"));
  EXPECT_EQ(report.observables["note"], "seen twice");
}

TEST(CrowdRepoTest, PublishVoteAcceptNotifies) {
  CrowdRepo repo;
  std::vector<std::string> notified;
  repo.Subscribe("Wemo-Insight", "freerider", [&](const SharedSignature& s) {
    notified.push_back("freerider:" + std::to_string(s.id));
  });
  repo.Subscribe("Wemo-Insight", "contributor", [&](const SharedSignature& s) {
    notified.push_back("contributor:" + std::to_string(s.id));
  });

  SignatureReport report;
  report.sku = "Wemo-Insight";
  report.rule_text = kValidRule;
  report.contributor = "contributor";
  const auto result = repo.Publish(report);
  ASSERT_TRUE(result.accepted_for_review) << result.error;

  // Quorum is 3.0 of weighted votes; fresh voters weigh 0.5 each.
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5"}) {
    repo.Vote(result.id, voter, true);
  }
  const auto* sig = repo.Find(result.id);
  ASSERT_NE(sig, nullptr);
  // 5 * 0.5 = 2.5 < 3.0: still pending.
  EXPECT_EQ(sig->status, SignatureStatus::kPending);
  repo.Vote(result.id, "v6", true);
  EXPECT_EQ(sig->status, SignatureStatus::kAccepted);

  // Contributors get priority delivery (notified first).
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_TRUE(notified[0].starts_with("contributor:"));
  EXPECT_EQ(repo.AcceptedFor("Wemo-Insight").size(), 1u);
  EXPECT_TRUE(repo.AcceptedFor("Other-SKU").empty());
}

TEST(CrowdRepoTest, RejectsMalformedAndOverbroadRules) {
  CrowdRepo repo;
  SignatureReport bad;
  bad.sku = "X";
  bad.rule_text = "this is not a rule";
  EXPECT_FALSE(repo.Publish(bad).accepted_for_review);

  SignatureReport overbroad;
  overbroad.sku = "X";
  overbroad.rule_text = "block ip any any -> any any (msg:\"all\"; sid:1;)";
  const auto result = repo.Publish(overbroad);
  EXPECT_FALSE(result.accepted_for_review);
  EXPECT_NE(result.error.find("overbroad"), std::string::npos);
  EXPECT_EQ(repo.stats().rejected_at_ingest, 2u);
}

TEST(CrowdRepoTest, DoubleVoteIgnored) {
  CrowdRepo repo;
  SignatureReport report;
  report.sku = "X";
  report.rule_text = kValidRule;
  const auto result = repo.Publish(report);
  EXPECT_TRUE(repo.Vote(result.id, "v1", true));
  EXPECT_FALSE(repo.Vote(result.id, "v1", true));
  EXPECT_FALSE(repo.Vote(99999, "v1", true));
}

/// kValidRule with a distinct sid — the repo deduplicates identical
/// rules at ingest, so reputation-building needs distinct signatures.
std::string RuleWithSid(int sid) {
  return "block udp any any -> any 5009 (msg:\"wemo backdoor\"; sid:" +
         std::to_string(sid) + "; iot_backdoor; )";
}

TEST(CrowdRepoTest, ReputationWeightsVotes) {
  CrowdRepo repo;
  // Build reputation: "expert" votes correctly on several signatures.
  for (int i = 0; i < 5; ++i) {
    SignatureReport r;
    r.sku = "SKU";
    r.rule_text = RuleWithSid(100 + i);
    const auto res = repo.Publish(r);
    repo.Vote(res.id, "expert", true);
    repo.ReportOutcome(res.id, /*was_correct=*/true);
  }
  EXPECT_GT(repo.Reputation("expert"), 0.8);
  EXPECT_DOUBLE_EQ(repo.Reputation("unknown"), 0.5);

  // Poisoners who repeatedly misvote lose weight.
  for (int i = 0; i < 5; ++i) {
    SignatureReport r;
    r.sku = "SKU";
    r.rule_text = RuleWithSid(200 + i);
    const auto res = repo.Publish(r);
    repo.Vote(res.id, "troll", true);
    repo.ReportOutcome(res.id, /*was_correct=*/false);
  }
  EXPECT_LT(repo.Reputation("troll"), 0.25);

  // Now the expert's single vote counts ~0.86 while three trolls
  // together muster < 0.6: poisoning cannot reach quorum alone.
  SignatureReport target;
  target.sku = "SKU";
  target.rule_text = RuleWithSid(300);
  const auto res = repo.Publish(target);
  repo.Vote(res.id, "troll", true);
  const auto* sig = repo.Find(res.id);
  EXPECT_EQ(sig->status, SignatureStatus::kPending);
  EXPECT_LT(sig->up_weight, 0.3);
}

TEST(CrowdRepoTest, DeduplicatesRepublishedRules) {
  CrowdRepo repo;
  const auto dupes_before = obs::M().learn_crowd_duplicates->Value();

  SignatureReport first;
  first.sku = "Wemo-Insight";
  first.rule_text = kValidRule;
  first.contributor = "alice";
  const auto original = repo.Publish(first);
  ASSERT_TRUE(original.accepted_for_review) << original.error;

  // Same SKU + same rule (even reformatted — dedupe keys on the parsed
  // canonical text) folds into the original id with no new review entry.
  SignatureReport again;
  again.sku = "Wemo-Insight";
  again.rule_text = "block   udp any any ->   any 5009 "
                    "(msg:\"wemo backdoor\"; sid:9001; iot_backdoor; )";
  again.contributor = "bob";
  const auto dup = repo.Publish(again);
  EXPECT_FALSE(dup.accepted_for_review);
  EXPECT_EQ(dup.id, original.id);
  EXPECT_NE(dup.error.find("duplicate"), std::string::npos);
  EXPECT_EQ(repo.stats().published, 1u);
  EXPECT_EQ(repo.stats().duplicates, 1u);
  EXPECT_EQ(obs::M().learn_crowd_duplicates->Value(), dupes_before + 1);

  // The same rule for a DIFFERENT SKU is not a duplicate.
  SignatureReport other_sku;
  other_sku.sku = "Hue-Bridge";
  other_sku.rule_text = kValidRule;
  EXPECT_TRUE(repo.Publish(other_sku).accepted_for_review);
  EXPECT_EQ(repo.stats().duplicates, 1u);
}

TEST(CrowdRepoTest, VoteOnResolvedSignatureIgnored) {
  CrowdRepo repo;
  SignatureReport report;
  report.sku = "X";
  report.rule_text = kValidRule;
  const auto result = repo.Publish(report);
  for (const auto* voter : {"v1", "v2", "v3", "v4", "v5", "v6"}) {
    repo.Vote(result.id, voter, true);
  }
  ASSERT_EQ(repo.Find(result.id)->status, SignatureStatus::kAccepted);
  // Votes after resolution no longer move the (settled) signature.
  EXPECT_FALSE(repo.Vote(result.id, "latecomer", false));
  EXPECT_EQ(repo.Find(result.id)->status, SignatureStatus::kAccepted);
}

TEST(CrowdRepoTest, ReportOutcomeUnknownIdIsNoop) {
  CrowdRepo repo;
  SignatureReport report;
  report.sku = "X";
  report.rule_text = kValidRule;
  const auto result = repo.Publish(report);
  repo.Vote(result.id, "v1", true);
  const double before = repo.Reputation("v1");
  repo.ReportOutcome(424242, /*was_correct=*/false);  // no such signature
  EXPECT_DOUBLE_EQ(repo.Reputation("v1"), before);
}

TEST(CrowdRepoTest, ReputationStaysBounded) {
  CrowdRepo repo;
  // Long winning and losing streaks must keep the Beta mean strictly
  // inside (0, 1) — the prior never fully washes out.
  for (int i = 0; i < 200; ++i) {
    SignatureReport r;
    r.sku = "SKU";
    r.rule_text = RuleWithSid(1000 + i);
    const auto res = repo.Publish(r);
    repo.Vote(res.id, "saint", true);
    repo.Vote(res.id, "gremlin", true);
    repo.ReportOutcome(res.id, /*was_correct=*/(i % 2 == 0));
  }
  // Alternating outcomes: both hover near 0.5 but stay bounded.
  EXPECT_GT(repo.Reputation("saint"), 0.0);
  EXPECT_LT(repo.Reputation("saint"), 1.0);
  for (int i = 0; i < 200; ++i) {
    SignatureReport r;
    r.sku = "SKU";
    r.rule_text = RuleWithSid(2000 + i);
    const auto res = repo.Publish(r);
    repo.Vote(res.id, "oracle", true);
    repo.ReportOutcome(res.id, /*was_correct=*/true);
    SignatureReport w;
    w.sku = "SKU";
    w.rule_text = RuleWithSid(3000 + i);
    const auto wres = repo.Publish(w);
    repo.Vote(wres.id, "jinx", true);
    repo.ReportOutcome(wres.id, /*was_correct=*/false);
  }
  EXPECT_GT(repo.Reputation("oracle"), 0.9);
  EXPECT_LT(repo.Reputation("oracle"), 1.0);
  EXPECT_GT(repo.Reputation("jinx"), 0.0);
  EXPECT_LT(repo.Reputation("jinx"), 0.1);
}

TEST(ModelLibraryTest, BuiltinCoversEveryDeviceClass) {
  const auto lib = ModelLibrary::Builtin();
  using devices::DeviceClass;
  for (int c = 0; c <= static_cast<int>(DeviceClass::kHandheldScanner); ++c) {
    const auto cls = static_cast<DeviceClass>(c);
    if (cls == DeviceClass::kAttacker) continue;
    EXPECT_NE(lib.For(cls), nullptr)
        << "missing model for " << devices::DeviceClassName(cls);
  }
  const auto* plug = lib.For(DeviceClass::kSmartPlug);
  ASSERT_NE(plug, nullptr);
  EXPECT_FALSE(plug->commands.empty());
  EXPECT_FALSE(plug->states.empty());
}

// ---------------------------------------------------------------- Fuzzer

struct FuzzRig {
  sim::Simulator sim;
  std::unique_ptr<env::Environment> env = env::MakeSmartHomeEnvironment();
  devices::DeviceRegistry registry;
  ModelLibrary library = ModelLibrary::Builtin();
  WorldModel world;
  std::vector<devices::Device*> fleet;
  DeviceId next_id = 1;

  FuzzRig() { env->AttachTo(sim); }

  devices::DeviceSpec Spec(const std::string& name,
                           devices::DeviceClass cls) {
    devices::DeviceSpec spec;
    spec.id = next_id++;
    spec.name = name;
    spec.cls = cls;
    spec.mac = net::MacAddress::FromId(spec.id);
    spec.ip = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(spec.id));
    return spec;
  }

  template <typename T, typename... Args>
  T* Add(const std::string& name, devices::DeviceClass cls, Args&&... args) {
    auto dev = std::make_unique<T>(Spec(name, cls), sim, env.get(),
                                   std::forward<Args>(args)...);
    T* ptr = dev.get();
    registry.Add(std::move(dev));
    fleet.push_back(ptr);
    ptr->Start();
    return ptr;
  }
};

TEST(FuzzerTest, DiscoversImplicitCouplings) {
  FuzzRig rig;
  rig.Add<devices::SmartPlug>("wemo", devices::DeviceClass::kSmartPlug,
                              "oven_power");
  rig.Add<devices::LightBulb>("hue", devices::DeviceClass::kLightBulb);
  rig.Add<devices::LightSensor>("lux", devices::DeviceClass::kLightSensor);
  rig.Add<devices::FireAlarm>("protect", devices::DeviceClass::kFireAlarm);
  rig.world.actuates = {{"wemo", "oven_power"}, {"hue", "bulb_on"}};
  rig.world.senses = {{"lux", "illuminance"}, {"protect", "smoke"}};

  InteractionFuzzer fuzzer(
      rig.sim, [&](SimDuration d) { rig.sim.RunFor(d); }, *rig.env,
      rig.fleet, rig.library, rig.world);
  const auto truth = fuzzer.ComputeGroundTruth();
  // The light chain and the heat chain must both be in the ground truth.
  EXPECT_TRUE(truth.count({"hue", "env:illuminance"}));
  EXPECT_TRUE(truth.count({"hue", "dev:lux"}));
  EXPECT_TRUE(truth.count({"wemo", "env:temperature"}));
  EXPECT_TRUE(truth.count({"wemo", "env:smoke"}));
  EXPECT_TRUE(truth.count({"wemo", "dev:protect"}));

  FuzzConfig config;
  config.rounds = 40;
  config.settle_seconds = 150;
  const auto report = fuzzer.Run(config);
  EXPECT_GT(report.commands_issued, 0);
  // The bulb -> sensor coupling is fast and must be found; the oven ->
  // smoke chain needs the long settle and must also be found.
  EXPECT_TRUE(report.discovered.count({"hue", "dev:lux"}));
  EXPECT_TRUE(report.discovered.count({"wemo", "env:temperature"}));
  EXPECT_TRUE(report.discovered.count({"wemo", "dev:protect"}));
  EXPECT_GE(report.recall, 0.8);
  EXPECT_GE(report.precision, 0.5);
  EXPECT_EQ(report.edges_over_rounds.size(),
            static_cast<std::size_t>(config.rounds));
}

TEST(FuzzerTest, DeterministicForSeed) {
  auto run = [] {
    FuzzRig rig;
    rig.Add<devices::LightBulb>("hue", devices::DeviceClass::kLightBulb);
    rig.Add<devices::LightSensor>("lux", devices::DeviceClass::kLightSensor);
    rig.world.actuates = {{"hue", "bulb_on"}};
    rig.world.senses = {{"lux", "illuminance"}};
    InteractionFuzzer fuzzer(
        rig.sim, [&](SimDuration d) { rig.sim.RunFor(d); }, *rig.env,
        rig.fleet, rig.library, rig.world);
    FuzzConfig config;
    config.rounds = 10;
    config.seed = 42;
    return fuzzer.Run(config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.discovered, b.discovered);
  EXPECT_EQ(a.commands_issued, b.commands_issued);
}

// ----------------------------------------------------------- AttackGraph

TEST(AttackGraphTest, ForwardChainingAndPlan) {
  AttackGraph graph;
  graph.AddFact("net_access");
  graph.AddExploit({"break plug", {"net_access"}, {"ctrl:plug"}, 1});
  graph.AddExploit({"heat room", {"ctrl:plug"}, {"env:hot"}, 1});
  graph.AddExploit({"window opens", {"env:hot"}, {"window_open"}, 2});
  graph.AddExploit({"unreachable", {"magic"}, {"extra"}, 3});

  EXPECT_TRUE(graph.CanReach("window_open"));
  EXPECT_FALSE(graph.CanReach("extra"));

  const auto plan = graph.FindPlan("window_open");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->steps.size(), 3u);
  EXPECT_EQ(plan->steps[0]->name, "break plug");
  EXPECT_EQ(plan->steps[2]->name, "window opens");
  EXPECT_FALSE(graph.FindPlan("extra").has_value());
}

TEST(AttackGraphTest, PaperScenarioMultiStagePlan) {
  // The §2.1 story: compromise the Wemo (backdoor), it powers the A/C —
  // turning it off heats the room — the IFTTT recipe opens the window,
  // physical break-in follows.
  FuzzRig rig;
  rig.Add<devices::SmartPlug>("wemo", devices::DeviceClass::kSmartPlug,
                              "oven_power");
  auto* window = rig.Add<devices::WindowActuator>(
      "window", devices::DeviceClass::kWindowActuator);
  (void)window;
  // Mark the plug vulnerable.
  auto spec = rig.registry.ByName("wemo")->spec();
  // (vulnerability set at construction in real flows; here rebuild)
  rig.world.actuates = {{"wemo", "oven_power"}};

  devices::DeviceRegistry registry;
  auto wemo_spec = rig.Spec("wemo2", devices::DeviceClass::kSmartPlug);
  wemo_spec.vulns = {devices::Vulnerability::kBackdoor};
  registry.Add(std::make_unique<devices::SmartPlug>(wemo_spec, rig.sim,
                                                    rig.env.get(),
                                                    "oven_power"));
  auto window_spec = rig.Spec("window2", devices::DeviceClass::kWindowActuator);
  registry.Add(std::make_unique<devices::WindowActuator>(window_spec, rig.sim,
                                                         rig.env.get()));

  // Couplings: wemo2 drives temperature (via oven_power chain).
  std::set<CouplingEdge> couplings = {{"wemo2", "env:temperature"}};
  // Automation: a temperature-triggered recipe actuates the window. The
  // trigger source here is the thermostat-ish sensor; model it as the
  // wemo2's influence reaching a "thermo" device that the recipe reads.
  couplings.insert({"wemo2", "dev:thermo"});
  const std::vector<std::pair<std::string, std::string>> automation = {
      {"thermo", "window2"}};

  auto graph = BuildAttackGraph(registry, couplings, automation);
  EXPECT_TRUE(graph.CanReach("physical_entry"));
  const auto plan = graph.FindPlan("physical_entry");
  ASSERT_TRUE(plan.has_value());
  // The plan must begin with the backdoor and end with physical entry.
  EXPECT_NE(plan->steps.front()->name.find("backdoor"), std::string::npos);
  EXPECT_NE(plan->steps.back()->name.find("physical entry"),
            std::string::npos);
  EXPECT_GE(plan->steps.size(), 4u);
  (void)spec;
}

TEST(AttackGraphTest, NoVulnNoPath) {
  FuzzRig rig;
  devices::DeviceRegistry registry;
  auto spec = rig.Spec("window", devices::DeviceClass::kWindowActuator);
  registry.Add(std::make_unique<devices::WindowActuator>(spec, rig.sim,
                                                         rig.env.get()));
  auto graph = BuildAttackGraph(registry, {}, {});
  EXPECT_FALSE(graph.CanReach("physical_entry"))
      << "without a flaw there is no path to control the window";
}

TEST(AttackGraphTest, StolenKeysGiveTwoStepControl) {
  FuzzRig rig;
  devices::DeviceRegistry registry;
  auto spec = rig.Spec("cctv", devices::DeviceClass::kCamera);
  spec.vulns = {devices::Vulnerability::kUnprotectedKeys};
  registry.Add(std::make_unique<devices::Camera>(spec, rig.sim,
                                                 rig.env.get()));
  auto graph = BuildAttackGraph(registry, {}, {});
  const auto plan = graph.FindPlan("ctrl:dev:cctv");
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->steps.size(), 2u);
  EXPECT_NE(plan->steps[0]->name.find("extract firmware keys"),
            std::string::npos);
  EXPECT_NE(plan->steps[1]->name.find("impersonate"), std::string::npos);
}

}  // namespace
}  // namespace iotsec::learn
