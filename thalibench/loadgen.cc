#include "loadgen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/rng.h"
#include "base/string_util.h"
#include "bench_common.h"

namespace thali {
namespace thalibench {

std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds) {
  const int64_t n = std::llround(rate * seconds);
  Rng rng(seed);
  std::vector<double> times(static_cast<size_t>(std::max<int64_t>(n, 0)));
  for (double& t : times) {
    // 53 random bits -> a double uniform in [0, 1).
    t = static_cast<double>(rng.NextU64() >> 11) * 0x1.0p-53 * seconds;
  }
  std::sort(times.begin(), times.end());
  return times;
}

double TailPercentileFor(int64_t count) {
  if (count < 20) return 0.0;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(count));
}

bool PercentileSupported(int64_t count, double pct) {
  return static_cast<double>(count) * (1.0 - pct / 100.0) >= 10.0 - 1e-9;
}

TimingSummary SummarizeTiming(const std::vector<double>& samples) {
  TimingSummary t;
  t.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return t;
  t.p50 = bench::Percentile(samples, 50.0);
  t.tail_pct = TailPercentileFor(t.count);
  if (t.tail_pct > 0.0) t.tail = bench::Percentile(samples, t.tail_pct);
  return t;
}

std::string FormatTiming(const TimingSummary& t) {
  std::string s = StrFormat("n=%lld p50=%.4f", static_cast<long long>(t.count),
                            t.p50);
  if (t.tail_pct > 0.0) s += StrFormat(" p%.2f=%.4f", t.tail_pct, t.tail);
  return s;
}

std::vector<std::vector<double>> SliceSamples(const std::vector<double>& at_s,
                                              const std::vector<double>& values,
                                              double slice_s, int num_slices) {
  std::vector<std::vector<double>> slices(
      static_cast<size_t>(std::max(num_slices, 0)));
  for (size_t i = 0; i < at_s.size() && i < values.size(); ++i) {
    if (at_s[i] < 0.0) continue;
    const double k = std::floor(at_s[i] / slice_s);
    if (k < static_cast<double>(num_slices)) {
      slices[static_cast<size_t>(k)].push_back(values[i]);
    }
  }
  return slices;
}

double MedianOverSlices(std::vector<double> per_slice) {
  std::erase_if(per_slice, [](double v) { return std::isnan(v); });
  if (per_slice.empty()) return std::nan("");
  return bench::Percentile(per_slice, 50.0);
}

double MinOverSlices(const std::vector<double>& per_slice) {
  double best = std::nan("");
  for (double v : per_slice) {
    if (!std::isnan(v) && !(v >= best)) best = v;
  }
  return best;
}

double GoodputRps(const std::vector<Outcome>& outcomes,
                  const std::vector<double>& limit_ms, double window_s) {
  int64_t good = 0;
  for (const Outcome& o : outcomes) {
    if (o.ok && o.latency_ms <= limit_ms.at(static_cast<size_t>(o.cls))) {
      ++good;
    }
  }
  return window_s > 0.0 ? static_cast<double>(good) / window_s : 0.0;
}

double SelfTimeMs(const Span& span, const std::vector<Span>& spans) {
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != span.id) continue;
    const double a = std::max(c.start_ms, span.start_ms);
    const double b = std::min(c.end_ms, span.end_ms);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_ms = 0.0;
  double reach = span.start_ms;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) union_ms += b - from;
    reach = std::max(reach, b);
  }
  return (span.end_ms - span.start_ms) - union_ms;
}

}  // namespace thalibench
}  // namespace thali
