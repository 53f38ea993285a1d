// Streaming statistics helper used by the benchmark harnesses. Process-wide
// counters live in the obs::MetricsRegistry (see obs/obs.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace iotsec {

/// Collects samples and reports count/mean/min/max/percentiles.
/// Percentile queries sort a copy, so they are intended for end-of-run
/// reporting rather than hot paths.
class SampleStats {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sum_ += v;
  }

  [[nodiscard]] std::size_t Count() const { return samples_.size(); }
  [[nodiscard]] double Sum() const { return sum_; }
  [[nodiscard]] double Mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  [[nodiscard]] double Min() const {
    return samples_.empty()
               ? 0.0
               : *std::min_element(samples_.begin(), samples_.end());
  }
  [[nodiscard]] double Max() const {
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }

  /// p in [0,100]. Nearest-rank percentile.
  [[nodiscard]] double Percentile(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto idx = static_cast<std::size_t>(rank);
    return sorted[std::min(idx, sorted.size() - 1)];
  }

  void Clear() {
    samples_.clear();
    sum_ = 0;
  }

 private:
  std::vector<double> samples_;
  double sum_ = 0;
};

}  // namespace iotsec
