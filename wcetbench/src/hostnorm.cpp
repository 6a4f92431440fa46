#include "hostnorm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>

namespace wcetbench {

namespace {

volatile std::uint64_t g_kernel_sink = 0;

} // namespace

double run_ref_kernel() {
  const Clock::time_point start = Clock::now();
  // Part 1: eight independent shift/xor/add chains, a throughput-bound
  // loop in registers.
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int k = 0; k < 400000; ++k) {
    a += b ^ (a << 3);
    b += c ^ (b >> 5);
    c += d ^ (c << 7);
    d += e ^ (d >> 11);
    e += f ^ (e << 13);
    f += g ^ (f >> 2);
    g += h ^ (g << 9);
    h += a ^ (h >> 4);
  }
  // Part 2: a std::map of small vectors, allocation- and pointer-heavy.
  std::map<std::uint32_t, std::vector<std::uint32_t>> table;
  std::uint32_t x = 0x2545F491u;
  for (int k = 0; k < 6000; ++k) {
    x = x * 1664525u + 1013904223u;
    std::vector<std::uint32_t>& slot = table[x >> 21];
    slot.push_back(x);
    if (slot.size() > 5) slot.erase(slot.begin());
  }
  std::uint64_t sum = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
  for (const auto& [key, slot] : table) {
    for (const std::uint32_t v : slot) sum += v ^ key;
  }
  g_kernel_sink = g_kernel_sink + sum;
  return ms_between(start, Clock::now());
}

void HostScale::sample() {
  const Clock::time_point start = Clock::now();
  const double kernel_ms = run_ref_kernel();
  samples_.push_back(Sample{ms_between(origin_, start) + kernel_ms / 2, kernel_ms});
}

double HostScale::factor_at(Clock::time_point t) const {
  if (samples_.empty()) throw std::logic_error("host scale has no kernel samples");
  const double at = ms_between(origin_, t);
  std::vector<double> near;
  for (const Sample& s : samples_) {
    if (std::abs(s.at_ms - at) <= kWindowMs) near.push_back(s.kernel_ms);
  }
  if (near.size() < kMinSamples) {
    std::vector<Sample> by_distance = samples_;
    std::sort(by_distance.begin(), by_distance.end(), [at](const Sample& a, const Sample& b) {
      return std::abs(a.at_ms - at) < std::abs(b.at_ms - at);
    });
    near.clear();
    for (std::size_t k = 0; k < std::min(kMinSamples, by_distance.size()); ++k) {
      near.push_back(by_distance[k].kernel_ms);
    }
  }
  return kNominalKernelMs / median(near);
}

double HostScale::normalise(double raw_ms, Clock::time_point start,
                            Clock::time_point end) const {
  return raw_ms * factor_at(start + (end - start) / 2);
}

double HostScale::median_kernel_ms() const {
  std::vector<double> all;
  for (const Sample& s : samples_) all.push_back(s.kernel_ms);
  return median(all);
}

SetupClock::SetupClock(Clock::time_point origin) : step_start_(origin) { step_done(); }

void SetupClock::step_done() {
  step_ms_.push_back(ms_between(step_start_, Clock::now()));
  for (std::size_t k = 0; k < kSamplesPerStep; ++k) kernel_ms_.push_back(run_ref_kernel());
  step_start_ = Clock::now();
}

double SetupClock::raw_s() const {
  double sum = 0;
  for (const double ms : step_ms_) sum += ms;
  return sum / 1000.0;
}

double SetupClock::normalised_s() const {
  double sum = 0;
  for (std::size_t j = 0; j < step_ms_.size(); ++j) {
    const auto first = kernel_ms_.begin() + static_cast<std::ptrdiff_t>(
                                                (j == 0 ? 0 : j - 1) * kSamplesPerStep);
    const auto last = kernel_ms_.begin() + static_cast<std::ptrdiff_t>((j + 1) * kSamplesPerStep);
    sum += step_ms_[j] * kNominalKernelMs / median(std::vector<double>(first, last));
  }
  return sum / 1000.0;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

} // namespace wcetbench
