// wcetbench: end-to-end and per-layer benchmark of the WCET analyser.
//
//   wcetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   wcetbench --probe
//
// A run builds the workload's seeded programs (set-up), repeats whole
// rounds of requests for --seconds (the timed part, tracing off when
// --trace 0), then checks every distinct image against independent
// oracles. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the metrics are the
// end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
// Every time is host-normalised (see hostnorm.hpp); the line before the
// result gives the raw figures beside the normalised ones.
#include <sys/resource.h>

#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "hostnorm.hpp"
#include "probe.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace wcetbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool probe = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe") {
      args.probe = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!args.probe && (args.workload.empty() || !have_seconds || args.seconds <= 0)) {
    throw std::invalid_argument("need --workload <name> and --seconds <s> > 0");
  }
  return args;
}

struct Sample {
  bool failed = false;
  Clock::time_point start;
  Clock::time_point end;
  double raw_ms = 0;
};

// A warm edit run of a traced edit_stream run: its sample, the server's
// phase times and the report's counters.
struct TracedEdit {
  std::size_t sample = 0;
  wcet::PhaseTimings timings;
  wcet::WcetReport report;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

class Metrics {
public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os << std::setprecision(10) << '{';
    for (std::size_t k = 0; k < entries_.size(); ++k) {
      const Entry& e = entries_[k];
      os << (k ? ", " : "") << '"' << e.name << "\": {\"value\": "
         << (std::isfinite(e.value) ? e.value : 0.0) << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << '}';
    return os.str();
  }

private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Normalised duration of every span named `name`.
std::vector<double> span_ms(const Tracer& tracer, const HostScale& scale,
                            const std::string& name) {
  std::vector<double> out;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == name) out.push_back(scale.normalise(ms_between(s.start, s.end), s.start, s.end));
  }
  return out;
}

// Times submit_batch of every image of `w` on a fresh server with
// `workers` pool workers (a "serve.submit_batch" span); returns raw ms.
double time_batch(const Workload& w, const wcet::mem::HwConfig& hw, unsigned workers,
                  Tracer& tracer) {
  const std::vector<wcet::serve::BatchJob> jobs = batch_jobs(w.images);
  wcet::serve::ServeOptions options;
  options.analysis.threads = static_cast<int>(workers);
  wcet::serve::AnalysisServer server(hw, options);
  ScopedSpan span(tracer, "serve.submit_batch");
  const Clock::time_point t0 = Clock::now();
  server.submit_batch(jobs);
  return ms_between(t0, Clock::now());
}

// Times a cold Analyzer run of each of the first images of `w` at
// `threads`; returns the summed raw ms.
double time_analyses(const Workload& w, const wcet::mem::HwConfig& hw, int threads) {
  wcet::AnalysisOptions options;
  options.threads = threads;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < std::min<std::size_t>(w.images.size(), 6); ++k) {
    const wcet::Analyzer analyzer(w.images[k].image, hw, w.images[k].annotations);
    analyzer.analyze(options);
  }
  return ms_between(t0, Clock::now());
}

// Median over three alternating pairs of the ratio slow/fast.
template <typename Slow, typename Fast>
double speedup(Slow slow, Fast fast) {
  std::vector<double> a;
  std::vector<double> b;
  for (int rep = 0; rep < 3; ++rep) {
    a.push_back(slow());
    b.push_back(fast());
  }
  return median(a) / median(b);
}

int run(const Args& args, Clock::time_point process_start) {
  const wcet::mem::HwConfig hw = wcet::mem::typical_hw();
  Tracer tracer(args.trace, process_start);

  // ---------------------------------------------------------------- set-up
  SetupClock setup(process_start);
  Workload w = make_workload(args.workload, args.seed, hw, tracer, setup);
  HostScale scale(process_start);
  for (int k = 0; k < 3; ++k) scale.sample();
  const wcet::serve::ServeStats primed =
      w.server != nullptr ? w.server->stats() : wcet::serve::ServeStats{};

  // ------------------------------------------------------------ timed part
  // The kernel runs whenever 25 ms of requests have passed since its
  // last sample, so every request has samples within the scale window.
  constexpr double kKernelEveryMs = 25.0;
  std::vector<Sample> samples;
  std::vector<TracedEdit> traced_edits;
  std::vector<std::optional<wcet::WcetReport>> first(w.images.size());
  CheckLog log;
  const Clock::time_point timed_start = Clock::now();
  double since_kernel = 0;
  int rounds = 0;
  int request_id = 0;
  while (true) {
    for (const Request& r : w.round) {
      Sample s;
      std::optional<wcet::WcetReport> answer;
      {
        ScopedSpan span(tracer, span_name(r.kind), request_id);
        s.start = Clock::now();
        try {
          answer = run_request(w, r, hw);
        } catch (const std::exception& e) {
          s.failed = true;
          std::cerr << "request " << request_id << " failed: " << e.what() << '\n';
        }
        s.end = Clock::now();
      }
      s.raw_ms = ms_between(s.start, s.end);
      if (answer) {
        s.failed = s.failed || !answer->ok;
        auto& seen = first[static_cast<std::size_t>(r.image)];
        if (!seen) {
          seen = answer;
        } else if (!same_result(*seen, *answer)) {
          log.expect(false, "warm == cold: request " + std::to_string(request_id) +
                                " answered image " + std::to_string(r.image) +
                                " differently from its first answer");
        }
      }
      if (args.trace && r.kind == RequestKind::edit && !s.failed) {
        traced_edits.push_back(
            TracedEdit{samples.size(), w.server->stats().last_timings, std::move(*answer)});
      }
      samples.push_back(std::move(s));
      ++request_id;
      since_kernel += samples.back().raw_ms;
      if (since_kernel >= kKernelEveryMs) {
        scale.sample();
        since_kernel = 0;
      }
    }
    ++rounds;
    if (ms_between(timed_start, Clock::now()) >= args.seconds * 1000.0) break;
  }
  for (int k = 0; k < 3; ++k) scale.sample();
  const double rss_mb = peak_rss_mb();

  std::vector<double> norm;
  std::vector<double> raw;
  int failed = 0;
  for (const Sample& s : samples) {
    norm.push_back(scale.normalise(s.raw_ms, s.start, s.end));
    raw.push_back(s.raw_ms);
    failed += s.failed ? 1 : 0;
  }
  double norm_total_ms = 0;
  for (const double x : norm) norm_total_ms += x;
  const double timed_kernel_ms = scale.median_kernel_ms();

  // ----------------------------------------------------- traced extras
  Metrics layer;
  std::vector<wcet::WcetReport> traced_reports;
  if (args.trace) {
    // The traced Figure-1 runs continue the request numbering.
    const int first_traced = request_id;
    for (std::size_t k = 0; k < w.images.size(); ++k) {
      const BenchImage& img = w.images[k];
      const int id = first_traced + static_cast<int>(k);
      ScopedSpan span(tracer, "figure1", id);
      traced_reports.push_back(run_figure1_traced(img.image, hw, img.annotations, {}, tracer, id));
      scale.sample();
    }
    layer.add("mcc.compile_ms", median(span_ms(tracer, scale, "mcc.compile")), "ms");

    // Phase times and counters: of the warm runs on edit_stream, of the
    // traced cold runs elsewhere.
    std::vector<wcet::PhaseTimings> phases;
    std::vector<const wcet::WcetReport*> runs;
    if (w.name == "edit_stream") {
      for (const TracedEdit& e : traced_edits) {
        const Sample& s = samples[e.sample];
        const double f = scale.factor_at(s.start + (s.end - s.start) / 2);
        wcet::PhaseTimings t = e.timings;
        for (double* x : {&t.decode_ms, &t.value_ms, &t.loop_ms, &t.cache_ms, &t.pipeline_ms,
                          &t.path_ms, &t.ilp_ms}) {
          *x *= f;
        }
        phases.push_back(t);
        runs.push_back(&e.report);
      }
    } else {
      std::map<int, wcet::PhaseTimings> per_image;
      for (const Tracer::Span& s : tracer.spans()) {
        if (s.name.rfind("pass.", 0) != 0) continue;
        const double ms = scale.normalise(ms_between(s.start, s.end), s.start, s.end);
        wcet::PhaseTimings& t = per_image[s.request - first_traced];
        if (s.name == "pass.decode") t.decode_ms += ms;
        if (s.name == "pass.value") t.value_ms += ms;
        if (s.name == "pass.loop") t.loop_ms += ms;
        if (s.name == "pass.cache") t.cache_ms += ms;
        if (s.name == "pass.pipeline") t.pipeline_ms += ms;
        if (s.name == "pass.path") t.path_ms += ms;
      }
      for (auto& [k, t] : per_image) {
        const wcet::WcetReport& r = traced_reports[static_cast<std::size_t>(k)];
        // The path pass times its ILP solves itself; scale them like the
        // pass that contains them.
        t.ilp_ms = r.timings.path_ms > 0 ? r.timings.ilp_ms * t.path_ms / r.timings.path_ms : 0;
        phases.push_back(t);
      }
      for (const wcet::WcetReport& r : traced_reports) runs.push_back(&r);
    }
    const auto phase = [&](double wcet::PhaseTimings::*field) {
      std::vector<double> v;
      for (const wcet::PhaseTimings& t : phases) v.push_back(t.*field);
      return median(v);
    };
    const auto count = [&](auto get) {
      std::vector<double> v;
      for (const wcet::WcetReport* r : runs) v.push_back(static_cast<double>(get(*r)));
      return mean(v);
    };
    using R = const wcet::WcetReport&;
    layer.add("cfg.decode_ms", phase(&wcet::PhaseTimings::decode_ms), "ms");
    layer.add("cfg.sg_nodes", count([](R r) { return r.sg_nodes; }), "count");
    layer.add("value.ms", phase(&wcet::PhaseTimings::value_ms), "ms");
    layer.add("loop.ms", phase(&wcet::PhaseTimings::loop_ms), "ms");
    layer.add("cache.ms", phase(&wcet::PhaseTimings::cache_ms), "ms");
    layer.add("cache.joins", count([](R r) { return r.cache_joins; }), "count");
    layer.add("cache.join_skips", count([](R r) { return r.cache_join_skips; }), "count");
    layer.add("cache.set_image_allocs", count([](R r) { return r.set_image_allocs; }), "count");
    layer.add("cache.live_set_images_peak", count([](R r) { return r.live_set_images_peak; }),
              "count");
    layer.add("pipeline.ms", phase(&wcet::PhaseTimings::pipeline_ms), "ms");
    layer.add("path.ms", phase(&wcet::PhaseTimings::path_ms), "ms");
    layer.add("ilp.ms", phase(&wcet::PhaseTimings::ilp_ms), "ms");
    layer.add("ilp.phase1_pivots", count([](R r) { return r.phase1_pivots; }), "count");
    layer.add("ilp.phase2_pivots", count([](R r) { return r.phase2_pivots; }), "count");
    layer.add("ipet.sub_ilps", count([](R r) { return r.ipet_sub_ilps; }), "count");
    layer.add("ipet.sese_regions", count([](R r) { return r.sese_regions; }), "count");

    // Server layer: edit_stream only. Counters are per round of requests.
    double edit_ms = 0;
    double hit_ms = 0;
    double overhead_ms = 0;
    wcet::serve::ServeStats per_round;
    if (w.name == "edit_stream") {
      edit_ms = median(span_ms(tracer, scale, span_name(RequestKind::edit)));
      hit_ms = median(span_ms(tracer, scale, span_name(RequestKind::hit)));
      const wcet::serve::ServeStats& st = w.server->stats();
      const auto per = [&](std::uint64_t now, std::uint64_t before) {
        return static_cast<std::uint64_t>(std::llround(static_cast<double>(now - before) / rounds));
      };
      per_round.warm_runs = per(st.warm_runs, primed.warm_runs);
      per_round.cold_runs = per(st.cold_runs, primed.cold_runs);
      per_round.warm_fallbacks = per(st.warm_fallbacks, primed.warm_fallbacks);
      per_round.path_reuses = per(st.path_reuses, primed.path_reuses);
      per_round.dirty_instances = per(st.dirty_instances, primed.dirty_instances);
      per_round.fingerprint_hits = per(st.fingerprint_hits, primed.fingerprint_hits);
      // Server overhead: a cold server submit (incremental reuse off,
      // each image evicted before it recurs) against a cold Analyzer
      // run of the same image.
      wcet::serve::ServeOptions cold_options;
      cold_options.enable_incremental = false;
      wcet::serve::AnalysisServer cold_server(hw, cold_options);
      std::vector<double> diffs;
      for (const BenchImage& img : w.images) {
        Clock::time_point t0 = Clock::now();
        cold_server.submit(img.image, img.annotations);
        Clock::time_point t1 = Clock::now();
        const double server_ms = scale.normalise(ms_between(t0, t1), t0, t1);
        t0 = Clock::now();
        const wcet::Analyzer analyzer(img.image, hw, img.annotations);
        analyzer.analyze();
        t1 = Clock::now();
        diffs.push_back(server_ms - scale.normalise(ms_between(t0, t1), t0, t1));
        scale.sample();
      }
      overhead_ms = median(diffs);
    }
    layer.add("serve.edit_ms", edit_ms, "ms");
    layer.add("serve.report_hit_ms", hit_ms, "ms");
    layer.add("serve.overhead_ms", overhead_ms, "ms");
    layer.add("serve.warm_runs", static_cast<double>(per_round.warm_runs), "count");
    layer.add("serve.cold_runs", static_cast<double>(per_round.cold_runs), "count");
    layer.add("serve.warm_fallbacks", static_cast<double>(per_round.warm_fallbacks), "count");
    layer.add("serve.path_reuses", static_cast<double>(per_round.path_reuses), "count");
    layer.add("serve.dirty_instances", static_cast<double>(per_round.dirty_instances), "count");
    layer.add("serve.fingerprint_hits", static_cast<double>(per_round.fingerprint_hits),
              "count");

    const unsigned workers = pool_workers();
    layer.add("pool.batch_speedup",
              speedup([&] { return time_batch(w, hw, 1, tracer); },
                      [&] { return time_batch(w, hw, workers, tracer); }),
              "x");
    layer.add("pool.analysis_speedup",
              speedup([&] { return time_analyses(w, hw, 1); },
                      [&] { return time_analyses(w, hw, static_cast<int>(workers)); }),
              "x");
    layer.add("host.ref_kernel_ms", timed_kernel_ms, "ms");
    layer.add("host.raw_request_ms", median(raw), "ms");
  }

  // ---------------------------------------------------------------- checks
  std::vector<double> tightness;
  for (std::size_t k = 0; k < w.images.size(); ++k) {
    const wcet::WcetReport* served = first[k] ? &*first[k] : nullptr;
    const ImageVerdict v = check_image(w.images[k], hw, served, w.decomposition_check,
                                       args.seed * 1000 + k, log);
    if (v.tightness > 0) tightness.push_back(v.tightness);
    self_test(w.images[k], v, log);
    if (args.trace) {
      log.expect(bounds_equal(traced_reports[k], v.reference),
                 "traced driver: WCET/BCET differ from Analyzer::analyze on image " +
                     std::to_string(k));
    }
  }
  for (const std::string& f : log.failures()) std::cerr << "CHECK FAILED: " << f << '\n';
  double log_sum = 0;
  for (const double t : tightness) log_sum += std::log(t);
  const double geo_tightness =
      tightness.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(tightness.size()));

  Metrics e2e;
  e2e.add("setup_s", setup.normalised_s(), "s");
  e2e.add("request_ms", median(norm), "ms");
  e2e.add("images_per_s",
          norm_total_ms > 0 ? static_cast<double>(samples.size()) / (norm_total_ms / 1000.0) : 0.0,
          "1/s");
  e2e.add("peak_rss_mb", rss_mb, "MB");
  e2e.add("wcet_tightness", geo_tightness, "ratio");

  if (args.trace && !args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
    std::cerr << "could not write trace to " << args.trace_out << '\n';
    return 1;
  }

  const bool correct = log.failures().empty() && tightness.size() == w.images.size();
  std::ostringstream context;
  context << std::setprecision(6) << "context {\"workload\": \"" << w.name
          << "\", \"seed\": " << args.seed << ", \"rounds\": " << rounds
          << ", \"requests\": " << samples.size() << ", \"images\": " << w.images.size()
          << ", \"raw_setup_s\": " << setup.raw_s() << ", \"raw_request_ms\": " << median(raw)
          << ", \"raw_request_p90_ms\": " << percentile(raw, 0.9)
          << ", \"request_p90_ms\": " << percentile(norm, 0.9)
          << ", \"ref_kernel_ms\": " << timed_kernel_ms
          << ", \"nominal_kernel_ms\": " << kNominalKernelMs
          << ", \"checks_passed\": " << log.passed()
          << ", \"checks_failed\": " << log.failures().size() << "}";
  std::cout << context.str() << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << samples.size() << ", \"failed\": " << failed
            << ", \"metrics\": " << (args.trace ? layer.json() : e2e.json()) << "}"
            << std::endl;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  try {
    const Args args = parse_args(argc, argv);
    if (args.probe) return run_probe();
    return run(args, process_start);
  } catch (const std::exception& e) {
    std::cerr << "wcetbench: " << e.what() << '\n';
    return 2;
  }
}
