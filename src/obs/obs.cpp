#include "obs/obs.h"

#include <array>
#include <string>

namespace iotsec::obs {

Metrics& M() {
  static Metrics m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    Metrics out;
    out.fastpath_parse_full = r.GetCounter("fastpath.parse_full");
    out.fastpath_parse_cached = r.GetCounter("fastpath.parse_cached");
    out.fastpath_pool_fresh = r.GetCounter("fastpath.pool_fresh");
    out.fastpath_pool_reused = r.GetCounter("fastpath.pool_reused");
    out.net_pool_free = r.GetGauge("net.pool_free");
    out.net_pool_foreign_release = r.GetCounter("net.pool_foreign_release");
    out.net_pool_exhausted = r.GetCounter("net.pool_exhausted");
    out.sdn_microflow_hits = r.GetCounter("sdn.microflow_hits");
    out.sdn_microflow_misses = r.GetCounter("sdn.microflow_misses");
    out.sdn_microflow_stale = r.GetCounter("sdn.microflow_stale");
    out.dp_packets = r.GetCounter("dp.packets");
    out.dp_boot_drops = r.GetCounter("dp.boot_drops");
    out.dp_chain_ns = r.GetHistogram("dp.chain_ns");
    out.dp_boot_queue = r.GetGauge("dp.boot_queue");
    out.sig_scan_ns = r.GetHistogram("sig.scan_ns");
    out.sig_compiles = r.GetCounter("sig.compiles");
    out.sig_cache_hits = r.GetCounter("sig.cache_hits");
    out.sig_cache_misses = r.GetCounter("sig.cache_misses");
    out.sig_cache_expired = r.GetCounter("sig.cache_expired");
    out.sig_evaluations = r.GetCounter("sig.evaluations");
    out.sig_scan_bytes = r.GetCounter("sig.scan_bytes");
    out.sig_matches = r.GetCounter("sig.matches");
    out.ctl_policy_transitions = r.GetCounter("ctl.policy_transitions");
    out.ctl_heartbeats = r.GetCounter("ctl.heartbeats");
    out.ctl_heartbeat_misses = r.GetCounter("ctl.heartbeat_misses");
    out.ctl_recoveries = r.GetCounter("ctl.recoveries");
    out.ctl_mttr_ns = r.GetHistogram("ctl.mttr_ns");
    out.ctl_admission_level = r.GetGauge("ctl.admission.level");
    out.ctl_admission_transitions = r.GetCounter("ctl.admission.transitions");
    out.ctl_admission_shed_launches =
        r.GetCounter("ctl.admission.shed_launches");
    out.ctl_admission_deferred_restarts =
        r.GetCounter("ctl.admission.deferred_restarts");
    out.ctl_admission_backpressure_drops =
        r.GetCounter("ctl.admission.backpressure_drops");
    out.ctl_reevals_coalesced = r.GetCounter("ctl.reevals_coalesced");
    out.ctl_msg_rule_pushes = r.GetCounter("ctl.msg.rule_pushes");
    out.ctl_msg_context_syncs = r.GetCounter("ctl.msg.context_syncs");
    out.ctl_msg_heartbeat_forwards =
        r.GetCounter("ctl.msg.heartbeat_forwards");
    out.ctl_fed_sync_keys = r.GetCounter("ctl.fed.sync_keys");
    out.ctl_fed_push_ops = r.GetCounter("ctl.fed.push_ops");
    out.ctl_fed_local_reevals = r.GetCounter("ctl.fed.local_reevals");
    out.ctl_fed_remote_reevals = r.GetCounter("ctl.fed.remote_reevals");
    out.ctl_rollout_active = r.GetGauge("ctl.rollout.active");
    out.ctl_rollout_stages = r.GetCounter("ctl.rollout.stages");
    out.ctl_rollout_promotions = r.GetCounter("ctl.rollout.promotions");
    out.ctl_rollout_rollbacks = r.GetCounter("ctl.rollout.rollbacks");
    out.ctl_rollout_deferred = r.GetCounter("ctl.rollout.deferred");
    out.ctl_rollout_applies = r.GetCounter("ctl.rollout.applies");
    out.ctl_rollout_rejected = r.GetCounter("ctl.rollout.rejected_manifests");
    out.ctl_rollout_push_msgs = r.GetCounter("ctl.rollout.push_msgs");
    out.ctl_rollout_push_bytes = r.GetCounter("ctl.rollout.push_bytes");
    out.learn_crowd_duplicates = r.GetCounter("learn.crowd.duplicates");
    return out;
  }();
  return m;
}

Counter* ShardPackets(int shard) {
  static constexpr int kMaxCached = 32;
  static const std::array<Counter*, kMaxCached> cache = [] {
    std::array<Counter*, kMaxCached> out{};
    MetricsRegistry& r = MetricsRegistry::Global();
    for (int i = 0; i < kMaxCached; ++i) {
      out[static_cast<std::size_t>(i)] =
          r.GetCounter("dp.shard." + std::to_string(i) + ".packets");
    }
    return out;
  }();
  if (shard < 0) shard = 0;
  if (shard >= kMaxCached) shard = kMaxCached - 1;
  return cache[static_cast<std::size_t>(shard)];
}

}  // namespace iotsec::obs
