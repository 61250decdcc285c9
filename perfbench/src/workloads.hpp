// The benchmark's workloads and the helpers they share.
//
//   offline_anl  generate ANL as text (set-up); parse, Phase 1, 10-fold
//                meta CV (timed)
//   paper_grid   preprocess ANL and SDSC (set-up); the Figure 4/5 grid of
//                30 cross-validations (timed)
//   serve_anl    train the meta predictor on ANL's first 80 % and start a
//                server (set-up); replay the raw 20 % tail over loopback,
//                paced then flood (timed)
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/three_phase.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "simgen/stream.hpp"

namespace perfbench {

/// Set-up is repeated this many times in an untraced run and setup_s is
/// the median; a traced run sets up once.
inline constexpr int kSetupRepeats = 3;

void run_offline_anl(const RunOptions& opt, Result& result);
void run_paper_grid(const RunOptions& opt, Result& result);
void run_serve_anl(const RunOptions& opt, Result& result);

/// Worker threads of cv_pool().
inline constexpr std::size_t kCvThreads = 2;

/// The pool every cross-validation of the benchmark fans its folds out
/// on. Two workers, not one per vCPU: on the shared 4-vCPU reference box
/// four busy threads get about 1.7 CPUs from the host, and the CPU time
/// of a 4-thread grid pass drifts about half again as much from run to
/// run as that of a 2-thread pass (NOTES.md, "Steadiness").
bglpred::ThreadPool& cv_pool();

/// The paper's options for one profile and prediction window: 10 folds,
/// the §3.2.2 rule-generation window (15 min ANL, 25 min SDSC).
bglpred::ThreePhaseOptions paper_options(const std::string& profile,
                                         bglpred::Duration window);

/// Full-scale streamed generation config for a run seed.
inline bglpred::StreamConfig stream_config(std::uint64_t seed) {
  bglpred::StreamConfig config;
  config.scale = 1.0;
  config.seed_offset = seed;
  return config;
}

/// Runs `setup` kSetupRepeats times (once when traced) and returns the
/// median of their process CPU seconds. Each call must rebuild the
/// workload's inputs from scratch; the last call's inputs are the ones
/// measured.
double timed_setup(const RunOptions& opt, const std::function<void()>& setup);

/// What one timed pass cost: wall seconds and process CPU seconds (all
/// threads), measured around the pass itself and not its checks.
struct PassCost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Starts timing a pass or a set-up; cost() reads the time since.
class PassTimer {
 public:
  PassTimer() : wall0_(now_ns()), cpu0_(process_cpu_seconds()) {}
  PassCost cost() const {
    return PassCost{seconds_since(wall0_), process_cpu_seconds() - cpu0_};
  }

 private:
  std::int64_t wall0_;
  double cpu0_;
};

/// Wall and CPU times of a run's timed passes.
struct PassTimes {
  std::vector<double> untraced;      ///< wall seconds
  std::vector<double> untraced_cpu;  ///< process CPU seconds, all threads
  std::vector<double> traced;        ///< wall seconds

  /// The reported cost: the CPU seconds of the cheapest untraced pass.
  /// CPU time leaves out steal and run-queue waits, which on a shared
  /// host move a pass's wall time by tens of percent from one minute to
  /// the next; co-tenants that remain (cache and memory contention) only
  /// ever add time, so the cheapest pass is the steadiest (NOTES.md,
  /// "Steadiness").
  double best_cpu() const {
    return *std::min_element(untraced_cpu.begin(), untraced_cpu.end());
  }

  /// The fastest untraced pass, wall seconds (a traced-run diagnostic).
  double best_wall() const {
    return *std::min_element(untraced.begin(), untraced.end());
  }

  /// Traced-vs-untraced median wall difference, as a share of untraced.
  double overhead_ratio() const {
    return traced.empty() ? 0.0 : median(traced) / median(untraced) - 1.0;
  }
};

/// Repeats timed passes until `opt.seconds` have elapsed (at least one).
/// `pass(traced)` runs one pass and returns its PassCost. An untraced
/// run times untraced passes only; a traced run alternates an untraced
/// pass with a traced one, with `tracer` active only during the latter.
template <typename Pass>
PassTimes run_passes(const RunOptions& opt, Tracer& tracer, Pass&& pass) {
  PassTimes times;
  const std::int64_t start = now_ns();
  do {
    const PassCost cost = pass(false);
    times.untraced.push_back(cost.wall_s);
    times.untraced_cpu.push_back(cost.cpu_s);
    std::fprintf(stderr, "pass %zu: %.4f s wall, %.4f s cpu\n",
                 times.untraced.size(), times.untraced.back(),
                 times.untraced_cpu.back());
    if (opt.trace) {
      Tracer::activate(&tracer);
      times.traced.push_back(pass(true).wall_s);
      Tracer::activate(nullptr);
      std::fprintf(stderr, "traced pass %zu: %.4f s\n", times.traced.size(),
                   times.traced.back());
    }
  } while (seconds_since(start) < opt.seconds);
  return times;
}

/// Records every per-layer metric of the span tracer that a workload
/// does not exercise as 0, so each traced run prints the full set.
void zero_fill_per_layer(Result& result);

/// True when two CV results agree fold by fold and in their averages.
bool same_cv(const bglpred::CvResult& a, const bglpred::CvResult& b);

/// Reports the cross-validation probe per traced pass: predictor train
/// and observe cost, mining and meta-dispatch counts, and how busy the
/// fold threads were during `cv_s`, the per-pass CV wall time.
void report_cv_probe(const PredictorProbe& probe, double passes, double cv_s,
                     Result& result);

/// The common tail of a traced run: trace.overhead_ratio, each layer's
/// self time ("self_s.<layer>"; set-up spans count once, pass spans are
/// averaged per traced pass), and the spans written to
/// <trace_dir>/<workload>_seed<n>_{setup,passes}.jsonl.
void finish_traced_run(const RunOptions& opt, const PassTimes& times,
                       const Tracer& setup_tracer, const Tracer& pass_tracer,
                       Result& result);

}  // namespace perfbench
