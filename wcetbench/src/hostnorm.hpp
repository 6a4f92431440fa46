// Host normalisation: a fixed reference kernel timed next to the
// measured requests.
//
// The hosts this benchmark runs on switch between a fast regime and one
// about 1.5x slower for seconds at a time. CPU time tracks wall time
// through it, and a dependent multiply chain or a random walk over DRAM
// barely slows, while throughput-bound and allocation-heavy code slows
// much like the analyser. The reference kernel is a fixed mix of both
// kinds (a register-only loop of independent chains, and a std::map of
// small vectors) and calls nothing in libwcet_core, so a change to the
// analyser cannot move it. Each measured time is divided by the kernel
// time measured around it and multiplied by kNominalKernelMs, so a
// normalised figure stays in milliseconds and reads what the request
// would have cost with the kernel at its nominal speed.
#pragma once

#include <chrono>
#include <vector>

namespace wcetbench {

// The kernel's time in the fast regime of the reference host (4-vCPU
// x86-64 guest, Release build, g++ 12). A constant, so normalised
// figures from different runs and hosts share one scale.
inline constexpr double kNominalKernelMs = 1.65;

// Runs the reference kernel once; returns its wall time in ms.
double run_ref_kernel();

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Kernel samples taken through a run, and the normalisation they give.
class HostScale {
public:
  explicit HostScale(Clock::time_point origin) : origin_(origin) {}

  // Runs the kernel now and records its time.
  void sample();
  // Multiplier for a measurement centred at `t`: kNominalKernelMs over
  // the median kernel time within kWindowMs of `t` (the nearest
  // kMinSamples samples when the window holds fewer).
  double factor_at(Clock::time_point t) const;
  double normalise(double raw_ms, Clock::time_point start, Clock::time_point end) const;
  // Median raw kernel time over the whole run.
  double median_kernel_ms() const;

private:
  static constexpr double kWindowMs = 600.0;
  static constexpr std::size_t kMinSamples = 5;
  struct Sample {
    double at_ms;
    double kernel_ms;
  };
  Clock::time_point origin_;
  std::vector<Sample> samples_;
};

// Set-up time, from `origin` (the start of main) to the first timed
// request, taken in steps. Every step (a compile, the priming) is
// followed by kSamplesPerStep kernel samples whose own time is left out,
// and each step is normalised by the median of the samples just before
// and just after it, so one disturbed sample does not move it. Set-up
// runs once per process, cold; the samples see the host regime of the
// moment each step ran.
class SetupClock {
public:
  // Closes the first step (process start-up) and takes its samples.
  explicit SetupClock(Clock::time_point origin);

  // Closes the current step and takes its kernel samples.
  void step_done();
  double raw_s() const;
  double normalised_s() const;

private:
  static constexpr std::size_t kSamplesPerStep = 3;
  Clock::time_point step_start_;
  std::vector<double> step_ms_;
  std::vector<double> kernel_ms_; // kSamplesPerStep per step, in order
};

double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);

} // namespace wcetbench
