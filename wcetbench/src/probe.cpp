#include "probe.hpp"

#include <cstdio>

#include "hostnorm.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace wcetbench {

namespace {

struct Shape {
  const char* name;
  int diamonds;
  int modes;
};

} // namespace

int run_probe() {
  const Clock::time_point origin = Clock::now();
  const wcet::mem::HwConfig hw = wcet::mem::typical_hw();
  Tracer tracer(false, origin);
  HostScale scale(origin);
  const Shape shapes[] = {
      {"diamond", 30, 0}, {"diamond", 60, 0}, {"mode", 0, 70}, {"mode", 0, 140},
      {"mixed", 34, 20},
  };
  std::printf("shape      nodes  ipet        sese  cache_ms(raw/norm)   ilp_ms(raw/norm)  "
              "total_ms(norm)\n");
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const BenchImage img =
          compile_image(make_single_function(seed, shape.diamonds, shape.modes, 2), tracer);
      const wcet::Analyzer analyzer(img.image, hw, img.annotations);
      for (const auto mode : {wcet::analysis::IpetDecomposition::recursive,
                              wcet::analysis::IpetDecomposition::monolithic}) {
        wcet::AnalysisOptions options;
        options.decomposition = mode;
        for (int k = 0; k < 3; ++k) scale.sample();
        const Clock::time_point t0 = Clock::now();
        const wcet::WcetReport r = analyzer.analyze(options);
        const Clock::time_point t1 = Clock::now();
        for (int k = 0; k < 3; ++k) scale.sample();
        const double f = scale.factor_at(t0 + (t1 - t0) / 2);
        std::printf("%-7s %2d/%3d %5d  %-10s %5d  %8.1f / %8.1f  %8.1f / %8.1f  %8.1f\n",
                    shape.name, shape.diamonds, shape.modes, r.sg_nodes,
                    mode == wcet::analysis::IpetDecomposition::monolithic ? "monolithic"
                                                                          : "recursive",
                    r.sese_regions, r.timings.cache_ms, r.timings.cache_ms * f,
                    r.timings.ilp_ms, r.timings.ilp_ms * f, ms_between(t0, t1) * f);
      }
    }
  }
  std::printf("reference kernel: median %.3f ms over the probe (nominal %.3f ms)\n",
              scale.median_kernel_ms(), kNominalKernelMs);
  return 0;
}

} // namespace wcetbench
