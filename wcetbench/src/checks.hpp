// Output checks, run after the timed part of every workload.
//
// Each check compares the analyser against an independent computation
// or a property the method must have, never against stored output:
//   soundness      BCET <= simulated cycles <= WCET on seeded io inputs
//   compiled code  simulator exit code == the generator's own evaluation
//   loop bounds    every analysed bound >= the generated trip count
//   warm == cold   every served result == a fresh cold Analyzer run
//   decomposition  recursive IPET bounds == monolithic bounds
//   oracle         path-exploration bracket holds, witness replay lies
//                  within [BCET, WCET]
// The self-test feeds each predicate one corrupted result and requires
// it to fail, so a check that cannot fail is caught.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/hwmodel.hpp"
#include "programs.hpp"
#include "wcet/analyzer.hpp"

namespace wcetbench {

struct BenchImage {
  GenProgram program;
  wcet::isa::Image image;
  std::string annotations;
};

class CheckLog {
public:
  void expect(bool holds, const std::string& what);
  int passed() const { return passed_; }
  const std::vector<std::string>& failures() const { return failures_; }

private:
  int passed_ = 0;
  std::vector<std::string> failures_;
};

struct SimRun {
  Inputs inputs;
  std::uint64_t cycles = 0;
  std::uint32_t exit_code = 0;
  bool completed = false;
};

// The predicates; each is true when its property holds.
bool same_result(const wcet::WcetReport& a, const wcet::WcetReport& b);
bool within_bounds(const wcet::WcetReport& report, std::uint64_t cycles);
bool bounds_equal(const wcet::WcetReport& a, const wcet::WcetReport& b);
bool oracle_ok(const wcet::WcetReport& validated);
bool exit_code_ok(const BenchImage& img, const SimRun& run);
// Empty when every loop of `img` is bounded at or above its generated
// trip count; otherwise the first violation.
std::string loop_bound_violation(const BenchImage& img,
                                 const std::vector<wcet::LoopInfo>& loops);


// What the checks computed for one image; the self-test reuses it.
struct ImageVerdict {
  wcet::WcetReport reference; // cold, validated Analyzer run
  std::vector<SimRun> runs;
  double tightness = 0;       // WCET / witness-replay cycles
};

// Runs every check on one image. `served` is a result the workload
// returned for this image (nullptr: none to compare); `decomposition`
// adds the recursive-against-monolithic check.
ImageVerdict check_image(const BenchImage& img, const wcet::mem::HwConfig& hw,
                         const wcet::WcetReport* served, bool decomposition,
                         std::uint64_t input_seed, CheckLog& log);

// Feeds each predicate one corrupted copy of a verdict's data; every
// corrupted case must be rejected.
void self_test(const BenchImage& img, const ImageVerdict& verdict, CheckLog& log);

} // namespace wcetbench
