// offline_anl: the paper pipeline on full-scale ANL.
//
// Set-up streams the ANL log out of the generator and formats it as
// text. Each timed pass parses that text, runs Phase 1 (classify,
// temporal and spatial compression) and the 10-fold meta-learner
// cross-validation at the paper's 30-minute prediction window with a
// 15-minute rule-generation window.
//
// Gates: records generated == records parsed; the Phase-1 output equals
// ingest_classified over the same text; every pass's CV result is
// identical (so the traced pass matches the untraced one).
#include <istream>
#include <streambuf>

#include "preprocess/fused_ingest.hpp"
#include "raslog/fast_io.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bglpred;

namespace {

/// Read-only istream buffer over a string, so parsing a 400 MB text
/// does not first copy it into a stringstream.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& text) {
    char* p = const_cast<char*>(text.data());
    setg(p, p, p + text.size());
  }
};

struct GeneratedText {
  std::string text;
  std::uint64_t records = 0;
  double batch_s = 0.0;
  double format_s = 0.0;
};

/// Set-up: stream ANL out of the generator, formatting each batch.
void generate_text(std::uint64_t seed, GeneratedText& out) {
  out.text.clear();  // keeps capacity: repeated set-ups reuse the buffer
  StreamRecordSource source(SystemProfile::anl(), stream_config(seed));
  TimedSource timed(source);
  std::int64_t format_ns = 0;
  RasLog batch;
  while (timed.next_batch(batch)) {
    const Span span("raslog.format_record_to");
    const std::int64_t t0 = now_ns();
    for (const RasRecord& rec : batch.records()) {
      format_record_to(out.text, batch, rec);
      out.text.push_back('\n');
    }
    format_ns += now_ns() - t0;
  }
  out.records = timed.records();
  out.batch_s = timed.seconds();
  out.format_s = static_cast<double>(format_ns) * 1e-9;
}

struct Pass {
  IngestReport report;
  std::size_t parsed = 0;
  ClassificationStats classification;
  RasLog phase1;
  CvResult cv;
};

PassCost run_pass(const std::string& text, const ThreePhasePredictor& tpp,
                  PredictorProbe* probe, Pass& p) {
  p = Pass{};  // free the previous pass's log before timing this one
  const PassTimer timer;
  {
    const Span span("raslog.read_log_fast");
    MemoryBuf buf(text);
    std::istream is(&buf);
    p.phase1 = read_log_fast(is, ReadOptions::lenient(), &p.report);
  }
  p.parsed = p.phase1.size();
  if (!p.phase1.is_time_sorted()) {
    p.phase1.sort_by_time();
  }
  {
    const Span span("taxonomy.classify_all");
    p.classification = EventClassifier().classify_all(p.phase1);
  }
  {
    const Span span("preprocess.compress_temporal");
    compress_temporal(p.phase1, tpp.options().preprocess.temporal_threshold);
  }
  {
    const Span span("preprocess.compress_spatial");
    compress_spatial(p.phase1, tpp.options().preprocess.spatial_threshold);
  }
  {
    const Span span("eval.cross_validate", /*fork_point=*/true);
    p.cv = cross_validate(
        p.phase1, tpp.options().cv_folds,
        probed_factory([&tpp] { return tpp.make_predictor(Method::kMeta); },
                       probe),
        cv_pool());
  }
  return timer.cost();
}

bool same_log(const RasLog& a, const RasLog& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RasRecord& x = a.records()[i];
    const RasRecord& y = b.records()[i];
    if (x.time != y.time || x.job != y.job || x.location != y.location ||
        x.event_type != y.event_type || x.facility != y.facility ||
        x.severity != y.severity || x.subcategory != y.subcategory ||
        a.text_of(x) != b.text_of(y)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_offline_anl(const RunOptions& opt, Result& result) {
  Tracer setup_tracer;
  Tracer pass_tracer;
  if (opt.trace) {
    Tracer::activate(&setup_tracer);
  }
  GeneratedText gen;
  const double setup_s = timed_setup(opt, [&] { generate_text(opt.seed, gen); });
  Tracer::activate(nullptr);

  const ThreePhasePredictor tpp(paper_options("ANL", 30 * kMinute));
  PredictorProbe probe;
  CvResult first;
  Pass last;
  bool passes_agree = true;
  const PassTimes times = run_passes(opt, pass_tracer, [&](bool traced) {
    const PassCost cost =
        run_pass(gen.text, tpp, traced ? &probe : nullptr, last);
    if (first.folds.empty()) {
      first = last.cv;
    } else {
      passes_agree = passes_agree && same_cv(first, last.cv);
    }
    return cost;
  });

  // ---- gates --------------------------------------------------------------
  result.check(last.report.records_kept == gen.records &&
                   last.parsed == gen.records &&
                   last.report.records_dropped == 0,
               "offline_anl: records generated (" +
                   std::to_string(gen.records) + ") != records parsed (" +
                   std::to_string(last.parsed) + ")");
  {
    MemoryBuf buf(gen.text);
    std::istream is(&buf);
    const RasLog fused = ingest_classified(is, ReadOptions::lenient(),
                                           tpp.options().preprocess);
    result.check(same_log(last.phase1, fused),
                 "offline_anl: Phase-1 output differs from ingest_classified");
  }
  result.check(passes_agree,
               "offline_anl: CV result differs between passes "
               "(traced vs untraced when tracing)");

  if (!opt.trace) {
    result.metric("setup_s", setup_s, "s");
    result.metric("cpu_s", times.best_cpu(), "s");
    result.metric("meta_precision", last.cv.macro_precision, "ratio");
    result.metric("meta_recall", last.cv.macro_recall, "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const auto n = static_cast<double>(times.traced.size());
  const auto per = [&](const char* span) {
    return pass_tracer.total_seconds(span) / n;
  };
  const double cv_s = per("eval.cross_validate");
  zero_fill_per_layer(result);
  result.metric("wall.pass_s", times.best_wall(), "s");
  result.metric("wall.records_per_s",
                static_cast<double>(gen.records) / times.best_wall(), "1/s");
  result.metric("simgen.batch_s", gen.batch_s, "s");
  result.metric("simgen.records", static_cast<double>(gen.records), "count");
  result.metric("raslog.format_s", gen.format_s, "s");
  result.metric("raslog.parse_s", per("raslog.read_log_fast"), "s");
  result.metric("raslog.parse_mb_per_s",
                static_cast<double>(gen.text.size()) * 1e-6 /
                    per("raslog.read_log_fast"),
                "MB/s");
  result.metric("raslog.rejected",
                static_cast<double>(last.report.records_dropped), "count");
  result.metric("taxonomy.classify_s", per("taxonomy.classify_all"), "s");
  result.metric("taxonomy.phrase_match_ratio",
                static_cast<double>(last.classification.classified_by_phrase) /
                    static_cast<double>(last.classification.total),
                "ratio");
  result.metric("preprocess.temporal_s", per("preprocess.compress_temporal"),
                "s");
  result.metric("preprocess.spatial_s", per("preprocess.compress_spatial"),
                "s");
  result.metric("preprocess.kept_ratio",
                static_cast<double>(last.phase1.size()) /
                    static_cast<double>(last.parsed),
                "ratio");
  result.metric("eval.cv_meta_s", cv_s, "s");
  report_cv_probe(probe, n, cv_s, result);
  finish_traced_run(opt, times, setup_tracer, pass_tracer, result);
}

}  // namespace perfbench
