// google-benchmark: Phase-1 throughput — categorization plus temporal and
// spatial compression, in records/second. This is the path that must keep
// up with CMCS's sub-millisecond logging for online deployment.
//
// BM_ClassifyAll and BM_FusedIngestSource run on full-scale ANL (3.8 M
// records, about 62.7 k distinct entries), where classification and
// entry interning cost per distinct entry, not per record (DESIGN §6.1).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "preprocess/fused_ingest.hpp"
#include "preprocess/pipeline.hpp"
#include "raslog/source.hpp"
#include "simgen/generator.hpp"
#include "simgen/stream.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

void BM_Phase1Pipeline(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  // Generate once outside the loop; preprocess mutates, so copy per
  // iteration through subset().
  const GeneratedLog generated =  // repo-lint: allow(simgen-materialize)
      LogGenerator(SystemProfile::anl()).generate(scale);
  std::size_t unique = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RasLog copy = generated.log.subset(generated.log.records());
    state.ResumeTiming();
    const PreprocessStats stats = preprocess(copy);
    unique = stats.unique_events;
    benchmark::DoNotOptimize(unique);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(generated.log.size()));
  state.counters["raw_records"] =
      static_cast<double>(generated.log.size());
  state.counters["unique"] = static_cast<double>(unique);
}

void BM_TemporalCompressionOnly(benchmark::State& state) {
  const GeneratedLog generated =  // repo-lint: allow(simgen-materialize)
      LogGenerator(SystemProfile::anl()).generate(0.1);
  // Pre-classify once; compression is the measured piece.
  RasLog classified = generated.log.subset(generated.log.records());
  const EventClassifier classifier;
  classified.sort_by_time();
  classifier.classify_all(classified);
  for (auto _ : state) {
    state.PauseTiming();
    RasLog copy = classified.subset(classified.records());
    state.ResumeTiming();
    benchmark::DoNotOptimize(compress_temporal(copy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(classified.size()));
}

// Phase-1 categorization alone over the raw full-scale ANL log. Each
// iteration reclassifies the same records in place (classify_all
// overwrites every subcategory), so no copy is timed.
void BM_ClassifyAll(benchmark::State& state) {
  GeneratedLog generated =  // repo-lint: allow(simgen-materialize)
      LogGenerator(SystemProfile::anl()).generate(1.0);
  RasLog& log = generated.log;
  const EventClassifier classifier;
  std::size_t by_phrase = 0;
  for (auto _ : state) {
    by_phrase = classifier.classify_all(log).classified_by_phrase;
    benchmark::DoNotOptimize(by_phrase);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.size()));
  state.counters["raw_records"] = static_cast<double>(log.size());
  state.counters["distinct_entries"] = static_cast<double>(log.pool().size());
}

/// Replays batches materialized once, outside the timed loop. It lends
/// each batch by swapping it into the consumer's RasLog and takes it back
/// on the next call, so a pass copies nothing; that relies on the
/// consumer passing the same RasLog to every call, as ingest_classified
/// does. Rewinds itself at end of stream.
class LentBatchSource : public RecordBatchSource {
 public:
  explicit LentBatchSource(std::vector<RasLog>& batches)
      : batches_(batches) {}

  bool next_batch(RasLog& out) override {
    if (next_ > 0) {
      std::swap(out, batches_[next_ - 1]);  // take the lent batch back
    }
    if (next_ == batches_.size()) {
      next_ = 0;
      return false;
    }
    std::swap(out, batches_[next_++]);
    return true;
  }

 private:
  std::vector<RasLog>& batches_;
  std::size_t next_ = 0;
};

// The fused classify -> temporal -> spatial pass fed by generator
// batches (the path the perfbench set-up and three_phase use), minus the
// generation itself: full-scale ANL, one day per batch, each batch with
// its own pool.
void BM_FusedIngestSource(benchmark::State& state) {
  std::vector<RasLog> batches;
  std::size_t records = 0;
  {
    StreamRecordSource source(SystemProfile::anl());
    RasLog batch;
    while (source.next_batch(batch)) {
      records += batch.size();
      batches.push_back(std::move(batch));
    }
  }
  LentBatchSource replay(batches);
  std::size_t unique = 0;
  for (auto _ : state) {
    PreprocessStats stats;
    RasLog log = ingest_classified(replay, {}, &stats);
    unique = stats.unique_events;
    benchmark::DoNotOptimize(log);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
  state.counters["raw_records"] = static_cast<double>(records);
  state.counters["batches"] = static_cast<double>(batches.size());
  state.counters["unique"] = static_cast<double>(unique);
}

}  // namespace

// Range arg: generation scale x100 (2 -> 0.02 of the 15-month log).
BENCHMARK(BM_Phase1Pipeline)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TemporalCompressionOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClassifyAll)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FusedIngestSource)->Unit(benchmark::kMillisecond);

BGL_BENCH_MAIN("perf_preprocess")
