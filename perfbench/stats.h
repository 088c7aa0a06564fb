// Small statistics helpers of the repo benchmark: tail-percentile
// choice, the output digest, and span self-time arithmetic.

#ifndef MULTICAST_PERFBENCH_STATS_H_
#define MULTICAST_PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `per100k / 1000` (e.g. 99000 = p99) of
/// `samples`; integer rank arithmetic, so p99.9 of 1000 samples is the
/// 999th value and not the 1000th. 0 for an empty sample.
double PercentileE5(std::vector<double> samples, int64_t per100k);

double Median(std::vector<double> samples);

/// The tail a sample of this size supports: the highest percentile of
/// {50, 90, 99, 99.9, 99.99} with at least ten samples strictly beyond
/// its nearest rank. A sample too small for even p50 reports its
/// maximum (percentile 100, `beyond` below ten).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(const std::vector<double>& samples);

/// 64-bit FNV-1a over raw bytes; doubles hash by bit pattern, so two
/// digests agree exactly when the values are bit-identical.
class Fnv1a {
 public:
  void AddBytes(const void* data, size_t size);
  void AddU64(uint64_t v);
  void AddDouble(double v);
  void AddString(const std::string& s);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// A timed interval on the steady clock, in nanoseconds.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

/// Self time of `parent`: its duration minus the part of its interval
/// covered by at least one child (children are clipped to the parent
/// and overlapping children count once).
int64_t SelfNs(const Span& parent, std::vector<Span> children);

/// Nanoseconds on the steady clock.
int64_t NowNs();

}  // namespace perfbench

#endif  // MULTICAST_PERFBENCH_STATS_H_
