#include "checks.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "sim/simulator.hpp"

namespace wcetbench {

namespace {

constexpr int kInputVectors = 4;

SimRun simulate(const BenchImage& img, const wcet::mem::HwConfig& hw, const Inputs& inputs) {
  wcet::sim::Simulator sim(img.image, hw);
  const std::uint32_t in_addr = img.image.find_symbol("in")->addr;
  const wcet::isa::Symbol* mode = img.image.find_symbol("mode");
  const std::uint32_t mode_addr = mode != nullptr ? mode->addr : 0xFFFFFFFFu;
  sim.set_mmio_read([&](std::uint32_t addr, int) -> std::uint32_t {
    if (addr == mode_addr) return inputs.mode;
    if (addr >= in_addr && addr < in_addr + 16) return inputs.in[(addr - in_addr) / 4];
    return 0;
  });
  const wcet::sim::SimResult result = sim.run();
  SimRun run;
  run.inputs = inputs;
  run.cycles = result.cycles;
  run.exit_code = result.exit_code;
  run.completed = result.completed();
  return run;
}

std::string describe(const wcet::WcetReport& r) {
  std::ostringstream os;
  os << "ok=" << r.ok << " wcet=" << r.wcet_cycles << " bcet=" << r.bcet_cycles
     << " obstructions=" << r.obstructions.size() << " degradations=" << r.degradations.size();
  return os.str();
}

} // namespace

void CheckLog::expect(bool holds, const std::string& what) {
  if (holds) {
    ++passed_;
  } else {
    failures_.push_back(what);
  }
}

bool same_result(const wcet::WcetReport& a, const wcet::WcetReport& b) {
  return a.ok == b.ok && a.wcet_cycles == b.wcet_cycles && a.bcet_cycles == b.bcet_cycles &&
         a.wcet_block_counts == b.wcet_block_counts;
}

bool within_bounds(const wcet::WcetReport& report, std::uint64_t cycles) {
  return report.ok && report.bcet_cycles <= cycles && cycles <= report.wcet_cycles;
}

bool bounds_equal(const wcet::WcetReport& a, const wcet::WcetReport& b) {
  return a.ok && b.ok && a.wcet_cycles == b.wcet_cycles && a.bcet_cycles == b.bcet_cycles;
}

bool oracle_ok(const wcet::WcetReport& v) {
  return v.validated && v.oracle_bracket_ok && v.witness_replayed &&
         v.bcet_cycles <= v.measured_cycles && v.measured_cycles <= v.wcet_cycles;
}

bool exit_code_ok(const BenchImage& img, const SimRun& run) {
  return run.exit_code == img.program.evaluate(run.inputs);
}

std::string loop_bound_violation(const BenchImage& img,
                                 const std::vector<wcet::LoopInfo>& loops) {
  for (const GenFunction& fn : img.program.functions) {
    const wcet::isa::Symbol* sym = img.image.find_symbol(fn.name);
    if (sym == nullptr) return "no symbol for " + fn.name;
    // Loop headers by address; codegen lays loops out in source order.
    std::map<std::uint32_t, std::uint64_t> bounds;
    for (const wcet::LoopInfo& loop : loops) {
      if (loop.header_addr < sym->addr || loop.header_addr >= sym->addr + sym->size) continue;
      const std::uint64_t bound = loop.analyzed_bound.value_or(0);
      const auto [it, fresh] = bounds.emplace(loop.header_addr, bound);
      if (!fresh) it->second = std::min(it->second, bound);
    }
    const std::vector<int> trips = img.program.trip_counts(fn);
    if (bounds.size() != trips.size()) {
      return fn.name + ": " + std::to_string(bounds.size()) + " analysed loops, " +
             std::to_string(trips.size()) + " generated";
    }
    std::size_t k = 0;
    for (const auto& [header, bound] : bounds) {
      if (bound < static_cast<std::uint64_t>(trips[k])) {
        std::ostringstream os;
        os << fn.name << " loop " << k << " @0x" << std::hex << header << std::dec
           << ": bound " << bound << " < trip count " << trips[k];
        return os.str();
      }
      ++k;
    }
  }
  return {};
}

ImageVerdict check_image(const BenchImage& img, const wcet::mem::HwConfig& hw,
                         const wcet::WcetReport* served, bool decomposition,
                         std::uint64_t input_seed, CheckLog& log) {
  ImageVerdict v;
  const wcet::Analyzer analyzer(img.image, hw, img.annotations);
  wcet::AnalysisOptions validated;
  validated.validate = true;
  validated.validate_max_paths = 4000;
  validated.validate_max_steps = 400'000;
  v.reference = analyzer.analyze(validated);
  const wcet::WcetReport& ref = v.reference;
  log.expect(ref.ok && ref.obstructions.empty() && !ref.degraded,
             "analysis bounded without obstruction or degradation: " + describe(ref));
  if (!ref.ok) return v;

  for (int k = 0; k < kInputVectors; ++k) {
    const SimRun run = simulate(img, analyzer.hw(), make_inputs(input_seed * 131 + k));
    log.expect(run.completed && within_bounds(ref, run.cycles),
               "soundness: simulated " + std::to_string(run.cycles) + " cycles outside [" +
                   std::to_string(ref.bcet_cycles) + ", " + std::to_string(ref.wcet_cycles) +
                   "]");
    log.expect(exit_code_ok(img, run),
               "compiled code: exit code " + std::to_string(run.exit_code) + ", generator " +
                   std::to_string(img.program.evaluate(run.inputs)));
    v.runs.push_back(run);
  }

  const std::string loop_issue = loop_bound_violation(img, ref.loops);
  log.expect(loop_issue.empty(), "loop bounds: " + loop_issue);

  if (served != nullptr) {
    log.expect(same_result(*served, ref),
               "warm == cold: served " + describe(*served) + ", cold " + describe(ref));
  }

  if (decomposition) {
    wcet::AnalysisOptions mono;
    mono.decomposition = wcet::analysis::IpetDecomposition::monolithic;
    const wcet::WcetReport monolithic = analyzer.analyze(mono);
    log.expect(bounds_equal(ref, monolithic), "decomposition: recursive " + describe(ref) +
                                                  ", monolithic " + describe(monolithic));
  }

  log.expect(oracle_ok(ref), "validation oracle: bracket_ok=" +
                                 std::to_string(ref.oracle_bracket_ok) + " replayed=" +
                                 std::to_string(ref.witness_replayed) + " measured=" +
                                 std::to_string(ref.measured_cycles));
  if (ref.measured_cycles > 0) {
    v.tightness = static_cast<double>(ref.wcet_cycles) / static_cast<double>(ref.measured_cycles);
  }
  return v;
}

void self_test(const BenchImage& img, const ImageVerdict& v, CheckLog& log) {
  const wcet::WcetReport& ref = v.reference;
  if (!ref.ok || v.runs.empty()) return;

  std::uint64_t max_cycles = 0;
  for (const SimRun& run : v.runs) max_cycles = std::max(max_cycles, run.cycles);
  wcet::WcetReport low = ref;
  low.wcet_cycles = max_cycles - 1;
  log.expect(!within_bounds(low, max_cycles),
             "self-test: soundness accepts a WCET one cycle below the longest run");

  wcet::WcetReport warm = ref;
  if (!warm.wcet_block_counts.empty()) warm.wcet_block_counts.begin()->second += 1;
  log.expect(!same_result(warm, ref),
             "self-test: warm == cold accepts a changed block count");

  // The first loop of the first function, bounded one below its trips.
  std::vector<wcet::LoopInfo> loops = ref.loops;
  const GenFunction& fn = img.program.functions.front();
  const wcet::isa::Symbol* sym = img.image.find_symbol(fn.name);
  std::uint32_t first_header = 0xFFFFFFFFu;
  for (const wcet::LoopInfo& loop : loops) {
    if (sym != nullptr && loop.header_addr >= sym->addr &&
        loop.header_addr < sym->addr + sym->size) {
      first_header = std::min(first_header, loop.header_addr);
    }
  }
  for (wcet::LoopInfo& loop : loops) {
    if (loop.header_addr == first_header) {
      loop.analyzed_bound = static_cast<std::uint64_t>(img.program.trip_counts(fn).front() - 1);
    }
  }
  log.expect(!loop_bound_violation(img, loops).empty(),
             "self-test: loop-bound check accepts a bound below the trip count");

  wcet::WcetReport mono = ref;
  mono.wcet_cycles += 1;
  log.expect(!bounds_equal(ref, mono),
             "self-test: decomposition check accepts a differing monolithic bound");

  wcet::WcetReport replay = ref;
  replay.measured_cycles = ref.wcet_cycles + 1;
  log.expect(!oracle_ok(replay),
             "self-test: oracle check accepts a replay above the WCET");

  SimRun wrong = v.runs.front();
  wrong.exit_code += 1;
  log.expect(!exit_code_ok(img, wrong),
             "self-test: compiled-code check accepts a wrong exit code");
}

} // namespace wcetbench
