#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace perfbench {

double PercentileE5(std::vector<double> samples, int64_t per100k) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  // Nearest rank: the smallest k with k / n >= p, i.e. ceil(p * n).
  int64_t rank = (per100k * n + 99999) / 100000;
  rank = std::clamp<int64_t>(rank, 1, n);
  return samples[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> samples) {
  return PercentileE5(std::move(samples), 50000);
}

Tail TailPercentile(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  const int64_t n = static_cast<int64_t>(samples.size());
  static constexpr int64_t kCandidates[] = {99990, 99900, 99000, 90000,
                                            50000};
  for (int64_t per100k : kCandidates) {
    const int64_t rank = (per100k * n + 99999) / 100000;
    if (n - rank >= 10) {
      tail.percentile = static_cast<double>(per100k) / 1000.0;
      tail.value = PercentileE5(samples, per100k);
      tail.beyond = static_cast<size_t>(n - rank);
      return tail;
    }
  }
  tail.value = *std::max_element(samples.begin(), samples.end());
  return tail;
}

void Fnv1a::AddBytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::AddU64(uint64_t v) { AddBytes(&v, sizeof v); }

void Fnv1a::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  AddU64(bits);
}

void Fnv1a::AddString(const std::string& s) {
  AddU64(s.size());
  AddBytes(s.data(), s.size());
}

int64_t SelfNs(const Span& parent, std::vector<Span> children) {
  for (Span& c : children) {
    c.start_ns = std::max(c.start_ns, parent.start_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t reach = parent.start_ns;  // end of the union covered so far
  for (const Span& c : children) {
    const int64_t from = std::max(c.start_ns, reach);
    if (c.end_ns <= from) continue;  // empty after clipping, or covered
    covered += c.end_ns - from;
    reach = c.end_ns;
  }
  return parent.duration() - covered;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
