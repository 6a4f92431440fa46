// Span recording for the traced run, and the traced Figure-1 driver.
//
// Spans are recorded by the benchmark around its calls into each layer
// (compile, analyse, submit, submit_batch, and each Figure-1 pass), kept in
// memory and written out as Chrome trace-event JSON when the run ends.
// A disabled tracer records nothing, so timed runs pay one branch per
// call.
#pragma once

#include <string>
#include <vector>

#include "hostnorm.hpp"
#include "mem/hwmodel.hpp"
#include "wcet/analyzer.hpp"

namespace wcetbench {

class Tracer {
public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  // enclosing span, -1 at top level
    int request = -1; // request the span belongs to, -1 outside requests
    Clock::time_point start;
    Clock::time_point end;
  };

  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  // Opens a span nested in the innermost open span; returns its id
  // (-1 when disabled).
  int begin(std::string name, int request = -1);
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }
  // Writes every closed span as Chrome trace-event JSON; false on I/O
  // failure.
  bool write_chrome_json(const std::string& path) const;

private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
public:
  ScopedSpan(Tracer& tracer, std::string name, int request = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  Tracer& tracer_;
  int id_;
};

// Runs the Figure-1 passes on `image` through the public pass-manager
// API, the way Analyzer::analyze_entry drives them at threads 1, with a
// "pass.<name>" span around every pass run. The returned report carries
// the bounds, counters and the per-pass timings.
wcet::WcetReport run_figure1_traced(const wcet::isa::Image& image, const wcet::mem::HwConfig& hw,
                                    const std::string& annotation_text,
                                    const wcet::AnalysisOptions& options, Tracer& tracer,
                                    int request);

} // namespace wcetbench
