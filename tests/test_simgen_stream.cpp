// Streaming generator tests: record-for-record differential identity
// against the materializing oracle, seek reproducibility, boundary
// properties, exact calibration under modulators, config validation,
// and multi-stream routing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "preprocess/fused_ingest.hpp"
#include "simgen/generator.hpp"
#include "simgen/stream.hpp"

namespace bglpred {
namespace {

// Drains a streaming generator into one materialized log + aggregate
// truth (test helper only — the whole point of the stream is that real
// consumers never do this).
struct Drained {
  RasLog log;
  GroundTruth truth;
  std::vector<std::size_t> batch_sizes;
};

Drained drain(StreamingGenerator& gen) {
  Drained d;
  RecordBatch batch;
  while (gen.next(batch)) {
    d.batch_sizes.push_back(batch.log.size());
    accumulate_truth(d.truth, batch.truth);
    for (const RasRecord& rec : batch.log.records()) {
      d.log.append_with_text(rec, batch.log.text_of(rec));
    }
  }
  return d;
}

void expect_logs_identical(const RasLog& a, const RasLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RasRecord& ra = a.records()[i];
    const RasRecord& rb = b.records()[i];
    ASSERT_EQ(ra.time, rb.time) << "record " << i;
    ASSERT_EQ(ra.location, rb.location) << "record " << i;
    ASSERT_EQ(ra.job, rb.job) << "record " << i;
    ASSERT_EQ(ra.event_type, rb.event_type) << "record " << i;
    ASSERT_EQ(ra.facility, rb.facility) << "record " << i;
    ASSERT_EQ(ra.severity, rb.severity) << "record " << i;
    ASSERT_EQ(a.text_of(ra), b.text_of(rb)) << "record " << i;
  }
}

void expect_truth_identical(const GroundTruth& a, const GroundTruth& b) {
  EXPECT_EQ(a.true_chains, b.true_chains);
  EXPECT_EQ(a.false_chains, b.false_chains);
  EXPECT_EQ(a.background_events, b.background_events);
  EXPECT_EQ(a.unique_events, b.unique_events);
  EXPECT_EQ(a.fatal_per_category, b.fatal_per_category);
  ASSERT_EQ(a.fatal_occurrences.size(), b.fatal_occurrences.size());
  for (std::size_t i = 0; i < a.fatal_occurrences.size(); ++i) {
    const FaultOccurrence& fa = a.fatal_occurrences[i];
    const FaultOccurrence& fb = b.fatal_occurrences[i];
    ASSERT_EQ(fa.time, fb.time) << "occurrence " << i;
    ASSERT_EQ(fa.subcategory, fb.subcategory) << "occurrence " << i;
    ASSERT_EQ(fa.location, fb.location) << "occurrence " << i;
    ASSERT_EQ(fa.job, fb.job) << "occurrence " << i;
    ASSERT_EQ(fa.is_followup, fb.is_followup) << "occurrence " << i;
    ASSERT_EQ(fa.has_chain, fb.has_chain) << "occurrence " << i;
  }
}

void expect_differential_identity(const SystemProfile& profile, double scale,
                                  std::uint64_t seed_offset) {
  SCOPED_TRACE(profile.name + " scale=" + std::to_string(scale) +
               " seed_offset=" + std::to_string(seed_offset));
  const GeneratedLog oracle =
      LogGenerator(profile).generate(scale, seed_offset);
  StreamConfig cfg;
  cfg.scale = scale;
  cfg.seed_offset = seed_offset;
  StreamingGenerator gen(profile, cfg);
  const Drained streamed = drain(gen);
  ASSERT_GT(oracle.log.size(), 0u);
  expect_logs_identical(oracle.log, streamed.log);
  expect_truth_identical(oracle.truth, streamed.truth);
}

// ---- differential identity ----------------------------------------------

TEST(SimgenStreamTest, DifferentialIdentityAnl) {
  const SystemProfile p = SystemProfile::anl();
  for (std::uint64_t seed_offset : {0ull, 1ull, 2ull}) {
    expect_differential_identity(p, 0.02, seed_offset);
  }
}

TEST(SimgenStreamTest, DifferentialIdentitySdsc) {
  const SystemProfile p = SystemProfile::sdsc();
  for (std::uint64_t seed_offset : {0ull, 1ull, 2ull}) {
    expect_differential_identity(p, 0.03, seed_offset);
  }
}

TEST(SimgenStreamTest, DifferentialIdentityBgqMultistream) {
  // Diurnal modulation + multi-stream profile.
  expect_differential_identity(SystemProfile::bgq_multistream(), 0.005, 0);
}

TEST(SimgenStreamTest, DifferentialIdentityDcProphet) {
  // All three modulators at once (diurnal + maintenance + storms).
  expect_differential_identity(SystemProfile::dc_prophet(), 0.003, 0);
}

// ---- seek reproducibility -----------------------------------------------

TEST(SimgenStreamTest, SeekChunkMatchesSequential) {
  const SystemProfile p = SystemProfile::anl();
  StreamConfig cfg;
  cfg.scale = 0.02;
  StreamingGenerator sequential(p, cfg);
  std::vector<RecordBatch> chunks;
  RecordBatch batch;
  while (sequential.next(batch)) {
    chunks.push_back(std::move(batch));
    batch = RecordBatch{};
  }
  ASSERT_GE(chunks.size(), 3u);

  // A fresh cursor seeked to arbitrary chunks reproduces them without
  // generating the prefix — including backward seeks on one cursor.
  StreamingGenerator seeker(p, cfg);
  for (std::size_t k :
       {chunks.size() - 1, std::size_t{0}, chunks.size() / 2}) {
    seeker.seek_chunk(k);
    ASSERT_EQ(seeker.position(), k);
    RecordBatch replay;
    ASSERT_TRUE(seeker.next(replay));
    EXPECT_EQ(replay.chunk, k);
    EXPECT_EQ(replay.span.begin, chunks[k].span.begin);
    EXPECT_EQ(replay.span.end, chunks[k].span.end);
    expect_logs_identical(chunks[k].log, replay.log);
    expect_truth_identical(chunks[k].truth, replay.truth);
  }

  // Seeking to chunk_count() pins the cursor at end-of-stream.
  seeker.seek_chunk(seeker.chunk_count());
  RecordBatch end;
  EXPECT_FALSE(seeker.next(end));
  EXPECT_TRUE(end.log.empty());
}

// ---- boundary / batch contract ------------------------------------------

TEST(SimgenStreamTest, BatchesAreSortedAndPartitionTheSpan) {
  const SystemProfile p = SystemProfile::sdsc();
  StreamConfig cfg;
  cfg.scale = 0.03;
  StreamingGenerator gen(p, cfg);
  const TimeSpan span = gen.span();
  const std::size_t count = gen.chunk_count();

  RecordBatch batch;
  TimePoint last_time = span.begin;
  std::size_t k = 0;
  std::size_t nonempty = 0;
  while (gen.next(batch)) {
    EXPECT_EQ(batch.chunk, k);
    EXPECT_EQ(batch.span.begin,
              span.begin + static_cast<Duration>(k) * gen.chunk_len());
    EXPECT_TRUE(batch.log.is_time_sorted()) << "chunk " << k;
    if (!batch.log.empty()) {
      ++nonempty;
      // Batch-to-batch ordering: every record at or after the previous
      // batch's last record (the RecordBatchSource contract).
      EXPECT_GE(batch.log.records().front().time, last_time);
      last_time = batch.log.records().back().time;
      // In-span source events only; duplicate re-reports may run past
      // the chunk end only in the final chunk.
      EXPECT_GE(batch.log.records().front().time, batch.span.begin);
      if (k + 1 < count) {
        EXPECT_LT(batch.log.records().back().time, batch.span.end);
      }
    }
    ++k;
  }
  EXPECT_EQ(k, count);
  EXPECT_GT(nonempty, 2u);
}

TEST(SimgenStreamTest, StreamRecordSourceDrainsAndAggregates) {
  const SystemProfile p = SystemProfile::anl();
  StreamConfig cfg;
  cfg.scale = 0.02;
  StreamRecordSource source(p, cfg);
  std::size_t records = 0;
  std::size_t batches = 0;
  RasLog out;
  while (source.next_batch(out)) {
    records += out.size();
    ++batches;
  }
  EXPECT_TRUE(out.empty());  // end-of-stream leaves the log empty
  EXPECT_EQ(batches, source.generator().chunk_count());
  EXPECT_GT(records, 0u);
  const GeneratedLog oracle = LogGenerator(p).generate(0.02, 0);
  EXPECT_EQ(records, oracle.log.size());
  expect_truth_identical(oracle.truth, source.totals());
}

// ---- calibration under modulators ---------------------------------------

TEST(SimgenStreamTest, ExactCategoryTotalsWithModulators) {
  // The Table-4 calibration contract survives chunking and non-uniform
  // seeding rates: per-category fatal totals are hit exactly.
  for (const SystemProfile& p :
       {SystemProfile::anl(), SystemProfile::dc_prophet()}) {
    const double scale = p.name == "ANL" ? 0.02 : 0.003;
    StreamConfig cfg;
    cfg.scale = scale;
    StreamingGenerator gen(p, cfg);
    GroundTruth totals;
    RecordBatch batch;
    while (gen.next(batch)) {
      accumulate_truth(totals, batch.truth);
    }
    for (std::size_t c = 0; c < kMainCategoryCount; ++c) {
      const auto want = static_cast<std::size_t>(std::llround(
          static_cast<double>(p.fatal_per_category[c]) * scale));
      EXPECT_EQ(totals.fatal_per_category[c], want)
          << p.name << " category " << c;
    }
  }
}

TEST(SimgenStreamTest, ModulatorsShapeTheMarginals) {
  // A diurnal + maintenance profile on the ANL base: peak-band volume
  // beats trough-band volume, and maintenance windows are suppressed
  // relative to the same diurnal phase on non-maintenance days.
  SystemProfile p = SystemProfile::anl();
  p.modulators.diurnal_amplitude = 0.6;
  p.modulators.maintenance_period_days = 5.0;
  p.modulators.maintenance_duration = 6 * kHour;
  p.modulators.maintenance_fatal_factor = 0.05;
  p.modulators.maintenance_background_factor = 0.1;

  StreamConfig cfg;
  cfg.scale = 0.04;  // ~18 days: 3 maintenance windows, many day cycles
  StreamingGenerator gen(p, cfg);
  const TimePoint origin = gen.span().begin;

  // Diurnal: w(t) = 1 + 0.6 sin(2*pi*t/day) peaks 6h into each day and
  // troughs at 18h. Count records in 4h bands around each.
  std::size_t peak = 0;
  std::size_t trough = 0;
  // Maintenance: [0, 6h) of days 0/5/10/15 vs the same hours of all
  // other days (same diurnal phase), per-day averaged.
  std::size_t maint = 0;
  std::size_t maint_days = 0;
  std::size_t open = 0;
  std::size_t open_days = 0;
  std::set<std::int64_t> seen_maint_days;
  std::set<std::int64_t> seen_open_days;
  RecordBatch batch;
  while (gen.next(batch)) {
    for (const RasRecord& rec : batch.log.records()) {
      const std::int64_t day = (rec.time - origin) / kDay;
      const Duration tod = (rec.time - origin) % kDay;
      if (tod >= 4 * kHour && tod < 8 * kHour) {
        ++peak;
      } else if (tod >= 16 * kHour && tod < 20 * kHour) {
        ++trough;
      }
      if (tod < 6 * kHour) {
        if (day % 5 == 0) {
          ++maint;
          seen_maint_days.insert(day);
        } else {
          ++open;
          seen_open_days.insert(day);
        }
      }
    }
  }
  maint_days = seen_maint_days.size();
  open_days = seen_open_days.size();
  EXPECT_GT(peak, trough * 3 / 2);
  ASSERT_GE(maint_days, 2u);
  ASSERT_GE(open_days, 5u);
  const double maint_per_day =
      static_cast<double>(maint) / static_cast<double>(maint_days);
  const double open_per_day =
      static_cast<double>(open) / static_cast<double>(open_days);
  EXPECT_LT(maint_per_day, 0.55 * open_per_day);
}

// ---- config validation ---------------------------------------------------

TEST(SimgenStreamTest, StreamConfigValidation) {
  const SystemProfile p = SystemProfile::anl();
  for (double bad_scale : {0.0, -0.5, 1.0001, 2.0}) {
    StreamConfig cfg;
    cfg.scale = bad_scale;
    EXPECT_THROW(StreamingGenerator(p, cfg), InvalidArgument)
        << "scale=" << bad_scale;
  }
  {
    StreamConfig cfg;
    cfg.chunk_len = min_chunk_len(p) - 1;  // below the correctness floor
    EXPECT_THROW(StreamingGenerator(p, cfg), InvalidArgument);
  }
  {
    StreamConfig cfg;
    cfg.scale = 0.01;
    cfg.chunk_len = min_chunk_len(p);  // exactly at the floor: accepted
    StreamingGenerator gen(p, cfg);
    EXPECT_EQ(gen.chunk_len(), min_chunk_len(p));
    EXPECT_THROW(gen.seek_chunk(gen.chunk_count() + 1), InvalidArgument);
  }
  EXPECT_EQ(resolve_chunk_len(p, 0), kDay);
  EXPECT_GE(min_chunk_len(SystemProfile::dc_prophet()), kHour);
}

TEST(SimgenStreamTest, LegacyGenerateScaleValidation) {
  const LogGenerator gen(SystemProfile::anl());
  EXPECT_THROW(gen.generate(0.0), InvalidArgument);
  EXPECT_THROW(gen.generate(-1.0), InvalidArgument);
  EXPECT_THROW(gen.generate(1.5), InvalidArgument);
}

// ---- consumers -----------------------------------------------------------

TEST(SimgenStreamTest, FeedSourceMatchesMaterializedFeed) {
  // OnlineEngine::feed_source over the stream must behave exactly like
  // feeding the materialized oracle record-by-record: same forwarded
  // count, same warnings in the same order.
  constexpr double kScale = 0.01;
  constexpr std::uint64_t kSeed = 3;
  const ThreePhasePredictor tpp;

  OnlineEngine streamed(tpp.make_predictor(Method::kEveryFailure));
  StreamConfig cfg;
  cfg.scale = kScale;
  cfg.seed_offset = kSeed;
  StreamRecordSource source(SystemProfile::anl(), cfg);
  const std::vector<Warning> got = streamed.feed_source(source);

  OnlineEngine oracle_engine(tpp.make_predictor(Method::kEveryFailure));
  const GeneratedLog g =
      LogGenerator(SystemProfile::anl()).generate(kScale, kSeed);
  std::vector<Warning> want;
  for (const RasRecord& rec : g.log.records()) {
    for (Warning& w : oracle_engine.feed(rec, g.log.text_of(rec))) {
      want.push_back(std::move(w));
    }
  }
  for (Warning& w : oracle_engine.flush()) {
    want.push_back(std::move(w));
  }

  EXPECT_EQ(streamed.stats().forwarded, oracle_engine.stats().forwarded);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].issued_at, want[i].issued_at) << "warning " << i;
    EXPECT_EQ(got[i].window_begin, want[i].window_begin) << "warning " << i;
    EXPECT_EQ(got[i].source, want[i].source) << "warning " << i;
  }
  EXPECT_EQ(source.totals().unique_events, g.truth.unique_events);
}

TEST(SimgenStreamTest, FusedIngestFromSourceMatchesThreeStep) {
  // Phase-1 preprocessing over the stream (one batch resident at a
  // time) must produce the same unique-event stream and stats as the
  // batch path on the materialized oracle.
  constexpr double kScale = 0.01;
  constexpr std::uint64_t kSeed = 5;
  StreamConfig cfg;
  cfg.scale = kScale;
  cfg.seed_offset = kSeed;
  StreamRecordSource source(SystemProfile::anl(), cfg);
  PreprocessStats streamed_stats;
  const RasLog streamed = ingest_classified(source, {}, &streamed_stats);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(kScale, kSeed);
  RasLog oracle = std::move(g.log);
  const PreprocessStats want_stats = preprocess(oracle);

  EXPECT_EQ(streamed_stats.raw_records, want_stats.raw_records);
  EXPECT_EQ(streamed_stats.temporal.removed, want_stats.temporal.removed);
  EXPECT_EQ(streamed_stats.spatial.removed, want_stats.spatial.removed);
  EXPECT_EQ(streamed_stats.unique_events, want_stats.unique_events);
  EXPECT_EQ(streamed_stats.unique_fatal_events,
            want_stats.unique_fatal_events);
  ASSERT_EQ(streamed.size(), oracle.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    const RasRecord& a = streamed.records()[i];
    const RasRecord& b = oracle.records()[i];
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.location, b.location) << "record " << i;
    EXPECT_EQ(a.subcategory, b.subcategory) << "record " << i;
    EXPECT_EQ(streamed.text_of(a), oracle.text_of(b)) << "record " << i;
  }

  // Entry ids and the pool, too: the oracle's pool is interned in
  // generation order, so compare against the three-step pipeline over
  // the same stream's records appended (and interned) in stream order.
  StreamRecordSource replay(SystemProfile::anl(), cfg);
  RasLog in_order;
  RasLog batch;
  while (replay.next_batch(batch)) {
    for (const RasRecord& rec : batch.records()) {
      in_order.append_with_text(rec, batch.text_of(rec));
    }
  }
  const PreprocessStats in_order_stats = preprocess(in_order);
  ASSERT_EQ(streamed.size(), in_order.size());
  EXPECT_EQ(streamed.pool().size(), in_order.pool().size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed.records()[i].entry_data,
              in_order.records()[i].entry_data)
        << "record " << i;
  }
  const ClassificationStats& got = streamed_stats.classification;
  const ClassificationStats& want = in_order_stats.classification;
  EXPECT_EQ(got.classified_by_phrase, want.classified_by_phrase);
  EXPECT_EQ(got.classified_by_fallback, want.classified_by_fallback);
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.per_main, want.per_main);
  EXPECT_EQ(got.per_main, want_stats.classification.per_main);
  EXPECT_EQ(streamed_stats.fatal_per_main, in_order_stats.fatal_per_main);
  EXPECT_EQ(streamed_stats.fatal_per_main, want_stats.fatal_per_main);
}

// ---- multi-stream routing ------------------------------------------------

TEST(SimgenStreamTest, StreamOfRoutesStablyAcrossStreams) {
  const SystemProfile p = SystemProfile::bgq_multistream();
  ASSERT_EQ(p.stream_count, 3u);
  StreamConfig cfg;
  cfg.scale = 0.005;
  StreamingGenerator gen(p, cfg);
  std::array<std::size_t, 3> per_stream{};
  RecordBatch batch;
  while (gen.next(batch)) {
    for (const RasRecord& rec : batch.log.records()) {
      const std::uint32_t s = stream_of(rec, p.stream_count);
      ASSERT_LT(s, p.stream_count);
      EXPECT_EQ(s, stream_of(rec, p.stream_count));  // pure + stable
      ++per_stream[s];
    }
  }
  for (std::size_t s = 0; s < per_stream.size(); ++s) {
    EXPECT_GT(per_stream[s], 0u) << "stream " << s << " starved";
  }
  RasRecord rec;
  EXPECT_EQ(stream_of(rec, 1), 0u);
  EXPECT_THROW(stream_of(rec, 0), InvalidArgument);
}

}  // namespace
}  // namespace bglpred
