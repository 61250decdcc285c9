#include <algorithm>
#include <utility>

#include "workloads.hpp"

namespace perfbench {

using namespace bglpred;

namespace {

/// Every per-layer metric a traced run prints (BENCHMARK.json
/// "per_layer" lists the same names). A workload that does not exercise
/// a layer reports it as 0.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"wall.pass_s", "s"},
    {"wall.records_per_s", "1/s"},
    {"simgen.batch_s", "s"},
    {"simgen.records", "count"},
    {"raslog.format_s", "s"},
    {"raslog.parse_s", "s"},
    {"raslog.parse_mb_per_s", "MB/s"},
    {"raslog.rejected", "count"},
    {"taxonomy.classify_s", "s"},
    {"taxonomy.phrase_match_ratio", "ratio"},
    {"preprocess.temporal_s", "s"},
    {"preprocess.spatial_s", "s"},
    {"preprocess.kept_ratio", "ratio"},
    {"eval.cv_meta_s", "s"},
    {"eval.cv_rule_s", "s"},
    {"eval.cv_statistical_s", "s"},
    {"predict.train_s", "s"},
    {"predict.observe_ns", "ns"},
    {"mining.transactions", "count"},
    {"mining.rules", "count"},
    {"meta.dispatch_rule_only", "count"},
    {"meta.dispatch_stat_only", "count"},
    {"meta.dispatch_by_confidence", "count"},
    {"meta.suppressed", "count"},
    {"parallel.fold_busy_ratio", "ratio"},
    {"core.online.feed_ns", "ns"},
    {"core.online.forwarded", "count"},
    {"core.online.skew_ratio", "ratio"},
    {"serve.flood_records_per_s", "1/s"},
    {"serve.client_encode_s", "s"},
    {"serve.frames_in", "count"},
    {"serve.records_rejected", "count"},
    {"serve.records_per_wakeup", "count"},
    {"serve.submit_micros_p50", "us"},
    {"serve.submit_micros_p99", "us"},
    {"serve.loop_busy_ratio", "ratio"},
    {"serve.predictor_observe_ns", "ns"},
    {"serve.served_precision", "ratio"},
    {"serve.served_recall", "ratio"},
    {"serve.warning_p50_us", "us"},
    {"serve.warning_p99_us", "us"},
    {"serve.warnings_timed", "count"},
    {"serve.submit_p50_us", "us"},
    {"serve.submit_p99_us", "us"},
    {"serve.frames_timed", "count"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.cpu_busy_ratio", "ratio"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"self_s.simgen", "s"},
    {"self_s.raslog", "s"},
    {"self_s.taxonomy", "s"},
    {"self_s.preprocess", "s"},
    {"self_s.eval", "s"},
    {"self_s.predict", "s"},
    {"self_s.core", "s"},
    {"self_s.serve", "s"},
    {"self_s.loadgen", "s"},
};

}  // namespace

ThreePhaseOptions paper_options(const std::string& profile, Duration window) {
  ThreePhaseOptions opt;
  opt.prediction.window = window;
  opt.rule.rule_generation_window =
      profile == "SDSC" ? 25 * kMinute : 15 * kMinute;
  opt.cv_folds = 10;
  return opt;
}

ThreadPool& cv_pool() {
  static ThreadPool pool(kCvThreads);
  return pool;
}

double timed_setup(const RunOptions& opt, const std::function<void()>& setup) {
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  std::vector<double> cpu;
  for (int i = 0; i < repeats; ++i) {
    const PassTimer timer;
    setup();
    const PassCost cost = timer.cost();
    cpu.push_back(cost.cpu_s);
    std::fprintf(stderr, "set-up %d: %.4f s wall, %.4f s cpu\n", i + 1,
                 cost.wall_s, cost.cpu_s);
  }
  return median(cpu);
}

void zero_fill_per_layer(Result& result) {
  for (const auto& [name, unit] : kPerLayer) {
    result.metric(name, 0.0, unit);
  }
}

bool same_cv(const CvResult& a, const CvResult& b) {
  if (a.folds.size() != b.folds.size() ||
      a.macro_precision != b.macro_precision ||
      a.macro_recall != b.macro_recall) {
    return false;
  }
  for (std::size_t i = 0; i < a.folds.size(); ++i) {
    const FoldResult& x = a.folds[i];
    const FoldResult& y = b.folds[i];
    if (x.warnings != y.warnings || x.test_records != y.test_records ||
        x.test_failures != y.test_failures ||
        x.confusion.covered_failures != y.confusion.covered_failures ||
        x.confusion.missed_failures != y.confusion.missed_failures ||
        x.confusion.true_warnings != y.confusion.true_warnings ||
        x.confusion.false_warnings != y.confusion.false_warnings) {
      return false;
    }
  }
  return true;
}

void report_cv_probe(const PredictorProbe& probe, double passes, double cv_s,
                     Result& result) {
  const auto per_pass = [&](const std::atomic<std::uint64_t>& c) {
    return static_cast<double>(c.load()) / passes;
  };
  result.metric("predict.train_s", per_pass(probe.train_ns) * 1e-9, "s");
  result.metric("predict.observe_ns", probe.observe_mean_ns(), "ns");
  result.metric("mining.transactions", per_pass(probe.transactions), "count");
  result.metric("mining.rules", per_pass(probe.rules), "count");
  result.metric("meta.dispatch_rule_only", per_pass(probe.dispatch_rule_only),
                "count");
  result.metric("meta.dispatch_stat_only", per_pass(probe.dispatch_stat_only),
                "count");
  result.metric("meta.dispatch_by_confidence",
                per_pass(probe.dispatch_by_confidence), "count");
  result.metric("meta.suppressed", per_pass(probe.suppressed), "count");
  result.metric("parallel.fold_busy_ratio",
                per_pass(probe.lifetime_ns) * 1e-9 /
                    (static_cast<double>(cv_pool().thread_count()) *
                     cv_s),
                "ratio");
}

void finish_traced_run(const RunOptions& opt, const PassTimes& times,
                       const Tracer& setup_tracer, const Tracer& pass_tracer,
                       Result& result) {
  result.metric("trace.overhead_ratio", times.overhead_ratio(), "ratio");
  const auto passes = static_cast<double>(times.traced.size());
  std::map<std::string, double> self = setup_tracer.self_seconds_by_layer();
  for (const auto& [layer, s] : pass_tracer.self_seconds_by_layer()) {
    self[layer] += s / passes;
  }
  for (const char* layer : {"simgen", "raslog", "taxonomy", "preprocess",
                            "eval", "predict", "core", "serve", "loadgen"}) {
    const auto it = self.find(layer);
    result.metric(std::string("self_s.") + layer,
                  it == self.end() ? 0.0 : it->second, "s");
  }
  for (const auto& [tracer, part] :
       {std::pair{&setup_tracer, "setup"}, std::pair{&pass_tracer, "passes"}}) {
    tracer->write(opt.trace_dir + "/" + opt.workload + "_seed" +
                  std::to_string(opt.seed) + "_" + part + ".jsonl");
  }
}

}  // namespace perfbench
