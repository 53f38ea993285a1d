#include "control/audit.h"

namespace iotsec::control {

std::string_view AuditCategoryName(AuditCategory c) {
  switch (c) {
    case AuditCategory::kContext: return "context";
    case AuditCategory::kPosture: return "posture";
    case AuditCategory::kUmbox: return "umbox";
    case AuditCategory::kFlow: return "flow";
    case AuditCategory::kAlert: return "alert";
    case AuditCategory::kCrowd: return "crowd";
    case AuditCategory::kFailure: return "failure";
    case AuditCategory::kRecovery: return "recovery";
  }
  return "?";
}

std::string AuditEntry::ToString() const {
  std::string out = "[";
  out += FormatDuration(at);
  out += "] ";
  out += AuditCategoryName(category);
  if (!device.empty()) out += " " + device;
  out += ": " + message;
  return out;
}

void AuditLog::Record(SimTime at, AuditCategory category, std::string device,
                      std::string message) {
  ++total_;
  entries_.push_back(
      AuditEntry{at, category, std::move(device), std::move(message)});
  while (entries_.size() > capacity_) entries_.pop_front();
}

std::vector<AuditEntry> AuditLog::For(const std::string& device) const {
  std::vector<AuditEntry> out;
  for (const auto& e : entries_) {
    if (e.device == device) out.push_back(e);
  }
  return out;
}

std::vector<AuditEntry> AuditLog::Of(AuditCategory category) const {
  std::vector<AuditEntry> out;
  for (const auto& e : entries_) {
    if (e.category == category) out.push_back(e);
  }
  return out;
}

std::vector<AuditEntry> AuditLog::Tail(std::size_t n) const {
  std::vector<AuditEntry> out;
  const std::size_t start = entries_.size() > n ? entries_.size() - n : 0;
  for (std::size_t i = start; i < entries_.size(); ++i) {
    out.push_back(entries_[i]);
  }
  return out;
}

}  // namespace iotsec::control
