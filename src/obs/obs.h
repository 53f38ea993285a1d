// Observability: the pre-registered metric handles every layer shares.
//
// Hot paths must not pay a name lookup (mutex + map probe) per event, so
// the well-known metrics are registered once and exposed as a plain
// struct of stable pointers. Call sites write obs::M().sdn_microflow_hits
// ->Inc() — M() is a function-local static, one guard load after the
// first call.
//
// Naming follows "<layer>.<what>[_<unit>]"; everything lands in
// MetricsRegistry::Global() and therefore in the JSON / Prometheus
// exports and bench_obs' snapshots.
#pragma once

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace iotsec::obs {

struct Metrics {
  // ---- fastpath: parse-once header caching and pooled packet allocation
  // (DESIGN.md §3 "fast path"). The per-switch microflow-cache counters
  // live on the cache itself (sdn::MicroflowCache::Stats).
  Counter* fastpath_parse_full;    // computed from raw bytes
  Counter* fastpath_parse_cached;  // served from the cached view
  Counter* fastpath_pool_fresh;    // packets heap-allocated
  Counter* fastpath_pool_reused;   // recycled from a free list

  // ---- net: packet allocation.
  Gauge* net_pool_free;            // PacketPool free-list occupancy
  Counter* net_pool_foreign_release;  // releases landing on a thread that
                                      // doesn't own the packet's pool
  Counter* net_pool_exhausted;     // admission samples whose live-packet
                                   // total exceeded the configured budget

  // ---- sdn: classification.
  Counter* sdn_microflow_hits;     // exact-match cache served
  Counter* sdn_microflow_misses;   // fell through to the linear scan
  Counter* sdn_microflow_stale;    // generation-invalidated probes

  // ---- dataplane: µmbox chains.
  Counter* dp_packets;             // frames entering running µmboxes
  Counter* dp_boot_drops;          // frames lost while booting/crashed
  Histogram* dp_chain_ns;          // per-µmbox-chain processing latency
  Gauge* dp_boot_queue;            // packets parked in boot queues

  // ---- sig: detection engine (DESIGN.md "DPI engine"). The compile
  // counters are the compile-once-deploy-everywhere proof: M µmboxes
  // loading the same SKU ruleset show M-1 cache hits and one compile.
  Histogram* sig_scan_ns;          // CompiledRuleset::Evaluate latency
  Counter* sig_compiles;           // rulesets compiled (DFA built)
  Counter* sig_cache_hits;         // served by the shared cache
  Counter* sig_cache_misses;       // had to compile (incl. expired)
  Counter* sig_cache_expired;      // found but fully released
  Counter* sig_evaluations;        // Evaluate calls
  Counter* sig_scan_bytes;         // payload bytes through the DFA
  Counter* sig_matches;            // evaluations with >=1 rule hit (the
                                   // rollout health gate's baseline signal)

  // ---- control: the controller's reaction loop.
  Counter* ctl_policy_transitions; // posture changes applied
  Counter* ctl_heartbeats;         // heartbeats delivered
  Counter* ctl_heartbeat_misses;   // failures declared by silence
  Counter* ctl_recoveries;         // restarts + failovers completed
  Histogram* ctl_mttr_ns;          // detection -> forwarding restored
                                   // (simulated time, unlike the
                                   // wall-clock spans above)

  // ---- control: admission / brownout (see control/admission.h).
  Gauge* ctl_admission_level;      // current BrownoutLevel (0..3)
  Counter* ctl_admission_transitions;        // level changes
  Counter* ctl_admission_shed_launches;      // µmbox launches refused
  Counter* ctl_admission_deferred_restarts;  // recovery restarts delayed
  Counter* ctl_admission_backpressure_drops; // ingress frames shed

  // ---- control: reevaluation coalescing + control-fabric messages.
  // ctl.msg.* meters what crosses the *global* control fabric: per-event
  // in flat mode, per-delta/batch/summary in federated mode — the ratio
  // the federation bench gates on.
  Counter* ctl_reevals_coalesced;      // duplicate wakeups absorbed
  Counter* ctl_msg_rule_pushes;        // switch-bound rule-push messages
  Counter* ctl_msg_context_syncs;      // view/context sync messages
  Counter* ctl_msg_heartbeat_forwards; // heartbeats (or summaries) forwarded

  // ---- control: federation (see control/federation.h).
  Counter* ctl_fed_sync_keys;      // delta entries shipped to the global tier
  Counter* ctl_fed_push_ops;       // flow-mod ops emitted inside batches
  Counter* ctl_fed_local_reevals;  // segment-local reevaluations
  Counter* ctl_fed_remote_reevals; // sync/env-wakeup-driven reevaluations

  // ---- control: ruleset OTA rollout (see rollout/coordinator.h).
  Gauge* ctl_rollout_active;       // rollouts currently in flight
  Counter* ctl_rollout_stages;     // stage applications
  Counter* ctl_rollout_promotions; // versions promoted to the fleet
  Counter* ctl_rollout_rollbacks;  // health-gate / operator rollbacks
  Counter* ctl_rollout_deferred;   // stage advances held by brownout
  Counter* ctl_rollout_applies;    // per-device manifest applies
  Counter* ctl_rollout_rejected;   // manifests rejected at a receiver
                                   // (tamper / out-of-chain / bad payload)
  Counter* ctl_rollout_push_msgs;  // batched distribution messages
  Counter* ctl_rollout_push_bytes; // manifest bytes on the channel

  // ---- learn: crowd repository (see learn/crowd.h).
  Counter* learn_crowd_duplicates; // reports deduplicated at ingest
};

/// The shared handle bundle (registered on first use).
Metrics& M();

/// Per-shard dataplane packet counter, registered as
/// "dp.shard.<i>.packets". Handles are cached so sharded hot paths pay a
/// bounds check + array load, never a registry lookup. Shards beyond the
/// cache alias the last slot (registry names stay exact up to the cap).
Counter* ShardPackets(int shard);

}  // namespace iotsec::obs
