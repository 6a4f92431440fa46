// The workloads: their seeded images and one round of requests.
//
// All load is a closed loop from one client: a request goes out only
// after the previous one returned. A run repeats whole rounds, so every
// run attempts the same mix of operations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hostnorm.hpp"
#include "serve/analysis_server.hpp"
#include "trace.hpp"

namespace wcetbench {

enum class RequestKind {
  analyze, // fresh Analyzer, cold, threads 1
  edit,    // server submit of an image not among the last eight
  hit,     // server resubmit of one of the last eight images
};

const char* span_name(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::analyze;
  int image = -1;
};

struct Workload {
  std::string name;
  std::vector<BenchImage> images;
  std::vector<Request> round;
  std::unique_ptr<wcet::serve::AnalysisServer> server;
  bool decomposition_check = false;
};

// Worker count of the pool speedup metrics: the host's CPUs, at most 4.
unsigned pool_workers();

// Compiles the workload's programs (a "mcc.compile" span each) and
// primes its server, closing a set-up step after each compile and after
// the priming. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const wcet::mem::HwConfig& hw, Tracer& tracer, SetupClock& clock);

// Runs one request; returns its report.
wcet::WcetReport run_request(Workload& w, const Request& r, const wcet::mem::HwConfig& hw);

BenchImage compile_image(GenProgram program, Tracer& tracer);

// One batch job per image, in image order.
std::vector<wcet::serve::BatchJob> batch_jobs(const std::vector<BenchImage>& images);

} // namespace wcetbench
