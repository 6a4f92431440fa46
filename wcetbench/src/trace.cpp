#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "annot/annotations.hpp"
#include "support/budget.hpp"
#include "wcet/pipeline.hpp"

namespace wcetbench {

int Tracer::begin(std::string name, int request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  bool first = true;
  for (const Span& s : spans_) {
    const double ts = ms_between(origin_, s.start) * 1000.0;
    const double dur = ms_between(s.start, s.end) * 1000.0;
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

wcet::WcetReport run_figure1_traced(const wcet::isa::Image& image,
                                    const wcet::mem::HwConfig& base_hw,
                                    const std::string& annotation_text,
                                    const wcet::AnalysisOptions& options, Tracer& tracer,
                                    int request) {
  if (options.threads > 1) throw std::invalid_argument("the traced driver runs at threads 1");
  // Analyzer's constructor: parse the annotations, merge their regions
  // into the memory map.
  const wcet::annot::AnnotationDb annotations =
      wcet::annot::parse_annotations(annotation_text, image);
  wcet::mem::HwConfig hw = base_hw;
  for (const wcet::mem::Region& region : annotations.regions) {
    hw.memory.add_region_override(region);
  }

  // Analyzer::analyze_entry with a null pool (threads 1).
  wcet::AnalysisContext ctx(image, hw, annotations, options, image.entry());
  if (options.use_annotations) {
    ctx.hints.indirect_targets = annotations.indirect_targets;
    ctx.sg_options.recursion_depths = annotations.recursion_depths;
  }
  wcet::AnalysisGovernor governor(options.budget);
  ctx.governor = &governor;
  wcet::AnalysisPassManager manager;
  const std::size_t back_half = wcet::register_figure1_passes(manager);
  const auto run = [&](std::size_t i) {
    ScopedSpan span(tracer, std::string("pass.") + manager.pass(i).name(), request);
    manager.run_pass(ctx, i);
  };
  for (int round = 0; round < std::max(1, options.max_decode_rounds); ++round) {
    for (std::size_t i = 0; i < back_half; ++i) run(i);
    if (ctx.program->fully_resolved()) break;
    if (!ctx.absorb_resolved_indirect_targets()) break;
  }
  for (std::size_t i = back_half; i < manager.size(); ++i) run(i);

  wcet::WcetReport report = std::move(ctx.report);
  report.degradations = governor.degradations();
  report.degraded = !report.degradations.empty();
  report.timings.decode_ms = manager.timing_ms("decode");
  report.timings.value_ms = manager.timing_ms("value");
  report.timings.loop_ms = manager.timing_ms("loop");
  report.timings.cache_ms = manager.timing_ms("cache");
  report.timings.pipeline_ms = manager.timing_ms("pipeline");
  report.timings.path_ms = manager.timing_ms("path");
  return report;
}

} // namespace wcetbench
