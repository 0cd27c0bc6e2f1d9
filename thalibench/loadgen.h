#ifndef THALI_THALIBENCH_LOADGEN_H_
#define THALI_THALIBENCH_LOADGEN_H_

// The benchmark's own arithmetic: arrival schedules, the percentile
// reporting rule, goodput accounting, slice medians and span self time.
// Kept apart from the benchmark binary (thalibench.cc) so
// loadgen_test.cc can pin each rule.

#include <cstdint>
#include <string>
#include <vector>

namespace thali {
namespace thalibench {

// Send times (seconds from the start of the window, ascending) of a
// Poisson stream of `rate` per second over [0, seconds), conditioned on
// its expected count: exactly round(rate * seconds) arrivals, each
// uniform in the window. Given its count a Poisson process's arrival
// times are iid uniform, so this is a Poisson stream whose offered
// rate does not vary from seed to seed. The same seed gives the same
// schedule.
std::vector<double> PoissonSchedule(uint64_t seed, double rate,
                                    double seconds);

// Percentile reporting rule: a timing is reported as its sample count,
// its median, and the highest percentile that has at least ten samples
// beyond it, 100 * (1 - 10 / n). Fewer than 20 samples support no tail
// percentile (tail_pct stays 0).
struct TimingSummary {
  int64_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
};
double TailPercentileFor(int64_t count);
TimingSummary SummarizeTiming(const std::vector<double>& samples);
// True when `pct` has at least ten of `count` samples beyond it.
bool PercentileSupported(int64_t count, double pct);
// "n=1500 p50=3.120 p99.33=7.810" (values in the caller's unit).
std::string FormatTiming(const TimingSummary& t);

// One request as the client saw it. `ok` is false for refused, failed
// and timed-out requests; latency is measured from the scheduled send
// time and ignored when !ok.
struct Outcome {
  int cls = 0;  // index into the per-class latency limits
  bool ok = false;
  double latency_ms = 0.0;
};

// Slice statistics. The measured window is cut into `num_slices` slices
// of `slice_s` seconds; each sample lands in the slice holding its time
// stamp `at_s[i]` (samples outside the window are dropped). A metric is
// then computed per slice and reported as the median over slices, so a
// host stall that disturbs one slice does not move the result.
std::vector<std::vector<double>> SliceSamples(const std::vector<double>& at_s,
                                              const std::vector<double>& values,
                                              double slice_s, int num_slices);
// Median of `per_slice`, ignoring NaN entries (slices with too few
// samples for the statistic); NaN when none remain.
double MedianOverSlices(std::vector<double> per_slice);
// Smallest entry of `per_slice`, ignoring NaN entries; NaN when none
// remain. On a shared host a neighbour's load only adds waiting, so for
// a latency the least disturbed slice is the lowest.
double MinOverSlices(const std::vector<double>& per_slice);

// Requests completed OK within their class limit, per second of
// `window_s`. Refused, failed and late requests all count as misses.
double GoodputRps(const std::vector<Outcome>& outcomes,
                  const std::vector<double>& limit_ms, double window_s);

// One traced call: a span at a layer boundary. Spans of one request
// share `request`; `parent` is the id of the span that caused this one
// (-1 for a root).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

// A span's self time: its duration minus the part of its interval that
// its child spans cover (overlapping children are counted once, and
// the parts of a child outside the parent are not counted).
double SelfTimeMs(const Span& span, const std::vector<Span>& spans);

}  // namespace thalibench
}  // namespace thali

#endif  // THALI_THALIBENCH_LOADGEN_H_
