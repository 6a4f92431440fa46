#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "mcc/runtime.hpp"
#include "support/rng.hpp"

namespace wcetbench {

namespace {

std::uint64_t image_seed(std::uint64_t seed, int k) {
  return seed * 1000003u + static_cast<std::uint64_t>(k) * 7919u + 17u;
}

// cold_calltree: eight Arg(64)-style call trees, each analysed cold by a
// fresh Analyzer per request.
void make_cold_calltree(Workload& w, std::uint64_t seed, Tracer& tracer, SetupClock& clock) {
  for (int k = 0; k < 8; ++k) {
    w.images.push_back(compile_image(make_call_tree(image_seed(seed, k), 64), tracer));
    clock.step_done();
    w.round.push_back(Request{RequestKind::analyze, k});
  }
}

// edit_stream: twelve one-loop edits of distinct functions of one
// Arg(64) call tree are applied one by one and then undone one by one,
// giving 24 distinct images that each differ from the previous one in
// one function. After every third edit, one of the last eight images
// used is resubmitted. A round is 24 edits and 8 resubmits; 24
// distinct edit images against an 8-slot report cache means an edit's
// image has always been evicted before it recurs.
void make_edit_stream(Workload& w, std::uint64_t seed, const wcet::mem::HwConfig& hw,
                      Tracer& tracer, SetupClock& clock) {
  const GenProgram base = make_call_tree(image_seed(seed, 0), 64);
  wcet::Rng rng(image_seed(seed, 1));
  std::vector<int> fns(base.functions.size());
  for (std::size_t f = 0; f < fns.size(); ++f) fns[f] = static_cast<int>(f);
  struct Toggle {
    int function;
    int loop;
    int trips;
  };
  std::vector<Toggle> toggles;
  for (int t = 0; t < 12; ++t) {
    const std::size_t pick = t + rng.below(static_cast<std::uint32_t>(fns.size() - t));
    std::swap(fns[static_cast<std::size_t>(t)], fns[pick]);
    Toggle tg{fns[static_cast<std::size_t>(t)], static_cast<int>(rng.below(3)), 0};
    const int old = base.functions[static_cast<std::size_t>(tg.function)]
                        .body[static_cast<std::size_t>(tg.loop)]
                        .then_loops[0]
                        .trips;
    tg.trips = 3 + static_cast<int>((static_cast<std::uint32_t>(old - 3) + 1 + rng.below(7)) % 8);
    toggles.push_back(tg);
  }
  // State j (0..23): toggles 0..j applied for j < 12, toggles j-11..11
  // applied for j >= 12; state 23 is the base program.
  for (int j = 0; j < 24; ++j) {
    GenProgram p = base;
    const int lo = j < 12 ? 0 : j - 11;
    const int hi = j < 12 ? j : 11;
    for (int t = lo; t <= hi; ++t) {
      const Toggle& tg = toggles[static_cast<std::size_t>(t)];
      p = with_trips(p, tg.function, tg.loop, tg.trips);
    }
    w.images.push_back(compile_image(std::move(p), tracer));
    clock.step_done();
  }
  // A resubmit picks among the images this round has used most recently
  // (tracked like the server's LRU), so it is a report-cache hit in
  // every round whatever the previous round left in the cache.
  std::vector<int> recent; // most recent first, at most 8
  const auto touch = [&recent](int image) {
    recent.erase(std::remove(recent.begin(), recent.end(), image), recent.end());
    recent.insert(recent.begin(), image);
    if (recent.size() > 8) recent.pop_back();
  };
  for (int j = 0; j < 24; ++j) {
    w.round.push_back(Request{RequestKind::edit, j});
    touch(j);
    if (j % 3 == 2) {
      const int image = recent[rng.below(static_cast<std::uint32_t>(recent.size()))];
      w.round.push_back(Request{RequestKind::hit, image});
      touch(image);
    }
  }
  w.server = std::make_unique<wcet::serve::AnalysisServer>(hw);
  w.server->submit(w.images.back().image, w.images.back().annotations);
  clock.step_done();
}

// single_function: six large single functions of 34 diamonds and 20 mode
// switches (1033 supergraph nodes each), analysed cold.
void make_single_function_workload(Workload& w, std::uint64_t seed, Tracer& tracer,
                                   SetupClock& clock) {
  for (int k = 0; k < 6; ++k) {
    w.images.push_back(
        compile_image(make_single_function(image_seed(seed, k), 34, 20, 2), tracer));
    clock.step_done();
    w.round.push_back(Request{RequestKind::analyze, k});
  }
  w.decomposition_check = true;
}

} // namespace

const char* span_name(RequestKind kind) {
  switch (kind) {
  case RequestKind::analyze: return "analyzer.analyze";
  case RequestKind::edit: return "serve.submit.edit";
  case RequestKind::hit: return "serve.submit.hit";
  }
  return "?";
}

unsigned pool_workers() {
  const unsigned cpus = std::thread::hardware_concurrency();
  return std::clamp(cpus, 1u, 4u);
}

BenchImage compile_image(GenProgram program, Tracer& tracer) {
  ScopedSpan span(tracer, "mcc.compile");
  wcet::mcc::CompileResult built = wcet::mcc::compile_program(program.source());
  BenchImage img{std::move(program), std::move(built.image), ""};
  img.annotations = img.program.annotations(img.image);
  return img;
}

std::vector<wcet::serve::BatchJob> batch_jobs(const std::vector<BenchImage>& images) {
  std::vector<wcet::serve::BatchJob> jobs;
  for (const BenchImage& img : images) {
    wcet::serve::BatchJob job;
    job.image = &img.image;
    job.annotation_text = img.annotations;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const wcet::mem::HwConfig& hw, Tracer& tracer, SetupClock& clock) {
  Workload w;
  w.name = name;
  if (name == "cold_calltree") {
    make_cold_calltree(w, seed, tracer, clock);
  } else if (name == "edit_stream") {
    make_edit_stream(w, seed, hw, tracer, clock);
  } else if (name == "single_function") {
    make_single_function_workload(w, seed, tracer, clock);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

wcet::WcetReport run_request(Workload& w, const Request& r, const wcet::mem::HwConfig& hw) {
  const BenchImage& img = w.images[static_cast<std::size_t>(r.image)];
  if (r.kind == RequestKind::analyze) {
    const wcet::Analyzer analyzer(img.image, hw, img.annotations);
    return analyzer.analyze();
  }
  return w.server->submit(img.image, img.annotations);
}

} // namespace wcetbench
