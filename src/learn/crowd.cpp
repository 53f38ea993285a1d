#include "learn/crowd.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/strings.h"
#include "net/address.h"
#include "obs/obs.h"
#include "rollout/version_store.h"

namespace iotsec::learn {
namespace {

/// Stable non-cryptographic hash used for pseudonymizing observables.
/// (A deployment would use a keyed hash; the privacy property exercised
/// here is that the original value is not recoverable from the stored
/// form by inspection.)
std::string PseudonymizeValue(const std::string& value) {
  const std::uint64_t h = Fnv1a64(kFnvTruncatedBasis, value);
  char buf[20];
  std::snprintf(buf, sizeof(buf), "anon-%012llx",
                static_cast<unsigned long long>(h & 0xffffffffffffull));
  return buf;
}

bool IsSensitiveKey(const std::string& key) {
  return key == "user" || key == "host" || key == "email" ||
         key == "site" || key == "org";
}

}  // namespace

void AnonymizeReport(SignatureReport& report) {
  report.contributor.clear();
  for (auto& [key, value] : report.observables) {
    if (auto ip = net::Ipv4Address::Parse(value)) {
      // Generalize to /16: keeps "which network neighborhood" utility,
      // drops host identity.
      value = net::Ipv4Prefix(*ip, 16).ToString();
    } else if (IsSensitiveKey(key)) {
      value = PseudonymizeValue(value);
    }
  }
}

void CrowdRepo::Subscribe(const std::string& sku, const std::string& name,
                          Notification callback) {
  subscribers_[sku].push_back(Subscriber{name, std::move(callback)});
}

bool CrowdRepo::IsOverbroad(const sig::Rule& rule) {
  // A rule with no narrowing predicate would match (and possibly block)
  // every packet — the data-quality DoS §4.1 warns about.
  return rule.contents.empty() && !rule.iot_command &&
         !rule.require_iot_backdoor && !rule.require_iot_auth_absent &&
         !rule.http_path_prefix && !rule.require_http_auth_absent &&
         !rule.require_dns_qtype_any && !rule.src_port && !rule.dst_port &&
         rule.src == net::Ipv4Prefix::Any() &&
         rule.dst == net::Ipv4Prefix::Any();
}

CrowdRepo::PublishResult CrowdRepo::Publish(SignatureReport report) {
  PublishResult result;
  std::string error;
  auto rule = sig::ParseRule(report.rule_text, &error);
  if (!rule) {
    ++stats_.rejected_at_ingest;
    result.error = error.empty() ? "empty rule" : error;
    return result;
  }
  if (IsOverbroad(*rule)) {
    ++stats_.rejected_at_ingest;
    result.error = "rejected: rule matches all traffic (overbroad)";
    return result;
  }

  // Ingest dedupe, keyed by the *parsed* rule's canonical text so
  // whitespace/formatting variants of the same rule collapse too. A
  // duplicate republication stores nothing, earns no contribution
  // credit (republishing the crowd's own rule is not a contribution),
  // and hands back the original id so the publisher can vote on it.
  const std::uint64_t content_key = sig::CompiledRuleset::ContentHash(
      report.sku + '\n' + rule->ToText());
  if (const auto dup = content_index_.find(content_key);
      dup != content_index_.end()) {
    ++stats_.duplicates;
    obs::M().learn_crowd_duplicates->Inc();
    result.id = dup->second;
    result.error = "duplicate: already published as id " +
                   std::to_string(dup->second);
    return result;
  }

  const std::string contributor = report.contributor;
  AnonymizeReport(report);

  SharedSignature sig;
  sig.id = next_id_++;
  content_index_[content_key] = sig.id;
  sig.sku = report.sku;
  sig.rule = std::move(*rule);
  sig.observables = std::move(report.observables);
  signatures_[sig.id] = std::move(sig);
  if (!contributor.empty()) ++contributions_[contributor];
  ++stats_.published;

  result.accepted_for_review = true;
  result.id = next_id_ - 1;
  return result;
}

double CrowdRepo::Reputation(const std::string& who) const {
  const auto it = reputation_.find(who);
  if (it == reputation_.end()) return 0.5;
  return it->second.alpha / (it->second.alpha + it->second.beta);
}

bool CrowdRepo::Vote(std::uint64_t signature_id, const std::string& voter,
                     bool up) {
  auto it = signatures_.find(signature_id);
  if (it == signatures_.end()) return false;
  SharedSignature& sig = it->second;
  if (sig.status != SignatureStatus::kPending) return false;
  // One vote per voter per signature.
  auto& records = votes_[signature_id];
  for (const auto& record : records) {
    if (record.voter == voter) return false;
  }
  records.push_back(VoteRecord{voter, up});

  const double weight = Reputation(voter);
  if (up) {
    sig.up_weight += weight;
  } else {
    sig.down_weight += weight;
  }
  if (sig.up_weight >= config_.quorum) {
    sig.status = SignatureStatus::kAccepted;
    ++stats_.accepted;
    NotifyAccepted(sig);
  } else if (sig.down_weight >= config_.quorum) {
    sig.status = SignatureStatus::kRejected;
    ++stats_.rejected_by_vote;
  }
  return true;
}

void CrowdRepo::ReportOutcome(std::uint64_t signature_id, bool was_correct) {
  const auto vit = votes_.find(signature_id);
  if (vit == votes_.end()) return;
  for (const auto& record : vit->second) {
    ReputationState& rep = reputation_[record.voter];
    // A voter is "right" when their vote direction matches the outcome.
    const bool voter_right = record.up == was_correct;
    if (voter_right) {
      rep.alpha += 1.0;
    } else {
      rep.beta += 1.0;
    }
  }
}

std::shared_ptr<const sig::CompiledRuleset> CrowdRepo::CompiledFor(
    const std::string& sku) const {
  std::vector<sig::Rule> rules;
  for (const auto& [id, sig] : signatures_) {
    if (sig.sku == sku && sig.status == SignatureStatus::kAccepted) {
      rules.push_back(sig.rule);
    }
  }
  return sig::CompiledRulesetCache::Instance().GetOrCompile(rules);
}

void CrowdRepo::NotifyAccepted(const SharedSignature& signature) {
  // Repository-side compile-once: warm the shared cache before fan-out so
  // a push to N deployments pays one automaton build total. The handle is
  // kept until the next acceptance, holding the cache entry alive through
  // the push window so every µmbox load of this ruleset is a hit.
  warm_compile_ = CompiledFor(signature.sku);
  // OTA pipeline hook: every acceptance cuts a new signed version of the
  // SKU's full accepted ruleset. The store derives the delta vs the
  // previous version; the rollout coordinator (subscribed downstream)
  // stages it through the canary cohorts.
  if (version_store_ != nullptr) {
    std::vector<std::string> texts;
    for (const auto& [id, sig] : signatures_) {
      if (sig.sku == signature.sku &&
          sig.status == SignatureStatus::kAccepted) {
        texts.push_back(sig.rule.ToText());
      }
    }
    version_store_->Cut(signature.sku, texts);
  }
  auto it = subscribers_.find(signature.sku);
  if (it == subscribers_.end()) return;
  // Incentive mechanism: order delivery by contribution count, highest
  // first; free-riders hear about new signatures last.
  std::vector<const Subscriber*> ordered;
  for (const auto& sub : it->second) ordered.push_back(&sub);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [this](const Subscriber* a, const Subscriber* b) {
                     const auto ca = contributions_.find(a->name);
                     const auto cb = contributions_.find(b->name);
                     const std::uint64_t na =
                         ca == contributions_.end() ? 0 : ca->second;
                     const std::uint64_t nb =
                         cb == contributions_.end() ? 0 : cb->second;
                     return na > nb;
                   });
  for (const Subscriber* sub : ordered) {
    ++stats_.notifications;
    sub->callback(signature);
  }
}

std::vector<SharedSignature> CrowdRepo::AcceptedFor(
    const std::string& sku) const {
  std::vector<SharedSignature> out;
  for (const auto& [id, sig] : signatures_) {
    if (sig.sku == sku && sig.status == SignatureStatus::kAccepted) {
      out.push_back(sig);
    }
  }
  return out;
}

const SharedSignature* CrowdRepo::Find(std::uint64_t id) const {
  const auto it = signatures_.find(id);
  return it == signatures_.end() ? nullptr : &it->second;
}

}  // namespace iotsec::learn
