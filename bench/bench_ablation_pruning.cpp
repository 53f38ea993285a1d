// Ablation A3: what each pruning stage buys (google-benchmark + table).
//
// Compares the cost of working with the FSM policy with and without the
// §3.2 prunings:
//   - brute-force enumeration of the full state space (only feasible for
//     tiny deployments — the point);
//   - symbolic per-state evaluation (what the controller actually runs);
//   - full AnalyzePolicy (partition + projection + conflict detection).
#include <benchmark/benchmark.h>

#include "core/postures.h"
#include "policy/analysis.h"

using namespace iotsec;

namespace {

struct Workload {
  policy::StateSpace space;
  policy::FsmPolicy policy;
  std::vector<DeviceId> devices;

  explicit Workload(int homes) {
    for (int h = 0; h < homes; ++h) {
      const std::string smoke = "env:smoke" + std::to_string(h);
      space.AddDimension({smoke, policy::DimensionKind::kEnvVar,
                          kInvalidDevice, {"off", "on"}});
      for (int d = 0; d < 4; ++d) {
        const auto id = static_cast<DeviceId>(h * 16 + d);
        devices.push_back(id);
        std::string name = "h";
        name += std::to_string(h);
        name += 'd';
        name += std::to_string(d);
        space.AddDimension({"ctx:" + name,
                            policy::DimensionKind::kDeviceContext, id,
                            policy::DefaultSecurityContexts()});
        policy::PolicyRule rule;
        rule.name = "r";
        rule.name += std::to_string(id);
        rule.when.And("ctx:" + name, "suspicious").And(smoke, "on");
        rule.device = id;
        rule.posture = core::QuarantinePosture();
        rule.priority = 10;
        policy.Add(rule);
      }
    }
    policy.SetDefault(core::MonitorPosture());
  }
};

/// Brute force: enumerate *every* global state and evaluate one device's
/// posture in each — the thing the paper says cannot scale.
void BM_BruteForceEnumeration(benchmark::State& state) {
  Workload w(static_cast<int>(state.range(0)));
  const auto dims = w.space.DimensionCount();
  for (auto _ : state) {
    std::vector<std::size_t> counter(dims, 0);
    std::size_t visited = 0;
    policy::SystemState s = w.space.InitialState();
    for (;;) {
      for (std::size_t i = 0; i < dims; ++i) {
        s.values[i] = static_cast<int>(counter[i]);
      }
      benchmark::DoNotOptimize(
          w.policy.Evaluate(w.space, s, w.devices.front()));
      ++visited;
      std::size_t pos = 0;
      while (pos < dims) {
        if (++counter[pos] < w.space.Dim(pos).values.size()) break;
        counter[pos] = 0;
        ++pos;
      }
      if (pos == dims) break;
    }
    state.counters["states"] = static_cast<double>(visited);
  }
}

/// Symbolic: evaluate the current state only (the controller hot path).
void BM_SymbolicEvaluate(benchmark::State& state) {
  Workload w(static_cast<int>(state.range(0)));
  auto s = w.space.InitialState();
  w.space.Assign(s, "ctx:h0d0", "suspicious");
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.policy.Evaluate(w.space, s, w.devices[i % w.devices.size()]));
    ++i;
  }
}

/// Full analysis with pruning: the offline check before deploying policy.
void BM_AnalyzeWithPruning(benchmark::State& state) {
  Workload w(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy::AnalyzePolicy(w.policy, w.space, w.devices));
  }
}

}  // namespace

// Brute force only fits in memory/time for 1 home (4*4 ctx dims + smoke =
// 2*4^4 = 512 states) or 2 homes (~0.5M); beyond that it is hopeless,
// which is the point of the ablation.
BENCHMARK(BM_BruteForceEnumeration)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SymbolicEvaluate)->Arg(1)->Arg(2)->Arg(8)->Arg(32)->Arg(128);
BENCHMARK(BM_AnalyzeWithPruning)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
