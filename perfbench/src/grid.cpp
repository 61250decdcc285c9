// paper_grid: the Figure 4/5 evaluation grid.
//
// Set-up streams kLogSets pairs of full-scale ANL and SDSC logs out of the
// generator through the fused Phase-1 ingest; pair j of run seed n uses
// seed offset n * kLogSets + j. Each timed pass runs, on every pair, the
// 30 cross-validations of {meta, rule, statistical} x the five Figure 5
// prediction windows x both profiles (rule-generation windows 15/25 min),
// one after another, each fanning its 10 folds out on cv_pool(). No text
// is parsed.
//
// Mining cost depends on the log: the grid's CPU time on one pair differs
// by up to about 15 % between seeds. Several independent pairs per run
// average that out, so a run's cost tracks the code more than the seed.
//
// Gate: every cell is identical in every pass.
#include "preprocess/fused_ingest.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bglpred;

namespace {

constexpr const char* kProfiles[] = {"ANL", "SDSC"};
constexpr Duration kWindows[] = {5 * kMinute, 15 * kMinute, 30 * kMinute,
                                 45 * kMinute, 60 * kMinute};
constexpr Method kMethods[] = {Method::kMeta, Method::kRule,
                               Method::kStatistical};
/// Independent (ANL, SDSC) log pairs per run.
constexpr std::size_t kLogSets = 3;
constexpr std::size_t kLogs = 2 * kLogSets;  ///< log i is profile i % 2

struct Prepared {
  RasLog logs[kLogs];
  PreprocessStats stats[kLogs];
  double batch_s = 0.0;
  std::uint64_t records = 0;
};

void prepare(std::uint64_t seed, Prepared& out) {
  out.batch_s = 0.0;
  out.records = 0;
  for (std::size_t i = 0; i < kLogs; ++i) {
    StreamRecordSource source(
        i % 2 == 0 ? SystemProfile::anl() : SystemProfile::sdsc(),
        stream_config(seed * kLogSets + i / 2));
    TimedSource timed(source);
    const Span span("preprocess.ingest_classified");
    out.logs[i] = ingest_classified(timed, PreprocessOptions{}, &out.stats[i]);
    out.batch_s += timed.seconds();
    out.records += timed.records();
  }
}

const char* cv_span(Method m) {
  switch (m) {
    case Method::kMeta:
      return "eval.cv_meta";
    case Method::kRule:
      return "eval.cv_rule";
    default:
      return "eval.cv_statistical";
  }
}

std::vector<CvResult> run_grid(const Prepared& prep, PredictorProbe* probe) {
  std::vector<CvResult> cells;
  for (std::size_t i = 0; i < kLogs; ++i) {
    for (const Duration w : kWindows) {
      const ThreePhasePredictor tpp(paper_options(kProfiles[i % 2], w));
      for (const Method m : kMethods) {
        const Span span(cv_span(m), /*fork_point=*/true);
        cells.push_back(cross_validate(
            prep.logs[i], tpp.options().cv_folds,
            probed_factory([&tpp, m] { return tpp.make_predictor(m); },
                           probe),
            cv_pool()));
      }
    }
  }
  return cells;
}

}  // namespace

void run_paper_grid(const RunOptions& opt, Result& result) {
  Tracer setup_tracer;
  Tracer pass_tracer;
  if (opt.trace) {
    Tracer::activate(&setup_tracer);
  }
  Prepared prep;
  const double setup_s = timed_setup(opt, [&] { prepare(opt.seed, prep); });
  Tracer::activate(nullptr);

  PredictorProbe probe;
  std::vector<CvResult> first;
  bool passes_agree = true;
  const PassTimes times = run_passes(opt, pass_tracer, [&](bool traced) {
    const PassTimer timer;
    std::vector<CvResult> cells = run_grid(prep, traced ? &probe : nullptr);
    const PassCost cost = timer.cost();
    if (first.empty()) {
      first = std::move(cells);
    } else {
      for (std::size_t c = 0; c < cells.size(); ++c) {
        passes_agree = passes_agree && same_cv(first[c], cells[c]);
      }
    }
    return cost;
  });
  result.check(passes_agree,
               "paper_grid: a grid cell differs between passes");

  if (!opt.trace) {
    double precision = 0.0;
    double recall = 0.0;
    double meta_cells = 0.0;
    for (std::size_t c = 0; c < first.size(); c += std::size(kMethods)) {
      precision += first[c].macro_precision;  // kMethods[0] is meta
      recall += first[c].macro_recall;
      meta_cells += 1.0;
    }
    result.metric("setup_s", setup_s, "s");
    result.metric("cpu_s", times.best_cpu(), "s");
    result.metric("meta_precision", precision / meta_cells, "ratio");
    result.metric("meta_recall", recall / meta_cells, "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const auto n = static_cast<double>(times.traced.size());
  const auto per = [&](const char* span) {
    return pass_tracer.total_seconds(span) / n;
  };
  const double cv_s =
      per("eval.cv_meta") + per("eval.cv_rule") + per("eval.cv_statistical");
  std::size_t raw = 0;
  std::size_t by_phrase = 0;
  for (const PreprocessStats& s : prep.stats) {
    raw += s.raw_records;
    by_phrase += s.classification.classified_by_phrase;
  }
  std::size_t kept = 0;
  for (const RasLog& log : prep.logs) {
    kept += log.size();
  }
  // Phase-1 records run through cross-validation per pass.
  const double evaluated = static_cast<double>(
      std::size(kWindows) * std::size(kMethods) * kept);
  zero_fill_per_layer(result);
  result.metric("wall.pass_s", times.best_wall(), "s");
  result.metric("wall.records_per_s", evaluated / times.best_wall(), "1/s");
  result.metric("simgen.batch_s", prep.batch_s, "s");
  result.metric("simgen.records", static_cast<double>(prep.records), "count");
  result.metric("taxonomy.phrase_match_ratio",
                static_cast<double>(by_phrase) / static_cast<double>(raw),
                "ratio");
  result.metric("preprocess.kept_ratio",
                static_cast<double>(kept) / static_cast<double>(raw),
                "ratio");
  result.metric("eval.cv_meta_s", per("eval.cv_meta"), "s");
  result.metric("eval.cv_rule_s", per("eval.cv_rule"), "s");
  result.metric("eval.cv_statistical_s", per("eval.cv_statistical"), "s");
  report_cv_probe(probe, n, cv_s, result);
  finish_traced_run(opt, times, setup_tracer, pass_tracer, result);
}

}  // namespace perfbench
