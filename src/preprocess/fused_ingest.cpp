#include "preprocess/fused_ingest.hpp"

#include <fstream>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "preprocess/compressors.hpp"
#include "raslog/fast_io.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {
namespace {

/// The shared classify -> temporal -> spatial per-record core of both
/// fused entry points (text scanner and record-batch source). Holds the
/// output log, the last-seen maps, and the running stats; push() is the
/// per-record body, finish() computes the derived tallies.
class FusedPipeline {
 public:
  explicit FusedPipeline(const PreprocessOptions& options)
      : options_(options) {
    BGL_REQUIRE(options.temporal_threshold >= 0,
                "threshold must be non-negative");
    BGL_REQUIRE(options.spatial_threshold >= 0,
                "threshold must be non-negative");
  }

  /// The output log's pool. Every parsed record's entry must be
  /// interned here before push(), even for records the compressors drop,
  /// so pool ids line up with the three-step path, where read_log
  /// interns every record before any compression runs.
  StringPool& pool() { return log_.pool(); }

  // bgl:hot-begin(phase1-fused)
  /// Classifies and compresses one record; `entry` is its entry-data id
  /// in pool(). The memo makes classification one phrase scan per
  /// distinct (entry, facility, severity), not per record.
  void push(const RasRecord& parsed, StringId entry) {
    BGL_REQUIRE(!have_prev_ || parsed.time >= prev_time_,
                "fused ingest requires non-decreasing record times "
                "(use read_log + preprocess for unsorted input)");
    have_prev_ = true;
    prev_time_ = parsed.time;
    ++st_.raw_records;

    RasRecord rec = parsed;
    rec.entry_data = entry;
    classifier_.classify_record(log_.pool(), rec, st_.classification, memo_);

    // Temporal pass (gap-based clustering, last_seen advances on
    // every record — same update rule as compress_temporal).
    ++st_.temporal.input_records;
    const detail::TemporalKey tkey{rec.job, rec.location, rec.subcategory};
    auto [tit, t_new] = temporal_seen_.try_emplace(tkey, rec.time);
    if (!t_new && rec.time - tit->second <= options_.temporal_threshold) {
      tit->second = rec.time;
      return;
    }
    tit->second = rec.time;
    ++st_.temporal.output_records;

    // Spatial pass — sees only temporal survivors, exactly like the
    // batch sequence compress_temporal -> compress_spatial.
    ++st_.spatial.input_records;
    const detail::SpatialKey skey{rec.entry_data, rec.job};
    auto [sit, s_new] = spatial_seen_.try_emplace(skey, rec.time);
    if (!s_new && rec.time - sit->second <= options_.spatial_threshold) {
      sit->second = rec.time;
      return;
    }
    sit->second = rec.time;
    ++st_.spatial.output_records;
    log_.append(rec);
  }
  // bgl:hot-end

  RasLog finish(PreprocessStats* stats) {
    st_.temporal.removed =
        st_.temporal.input_records - st_.temporal.output_records;
    st_.spatial.removed =
        st_.spatial.input_records - st_.spatial.output_records;
    st_.unique_events = log_.size();
    for (const RasRecord& rec : log_.records()) {
      if (rec.fatal()) {
        ++st_.unique_fatal_events;
        const MainCategory main = catalog().info(rec.subcategory).main;
        ++st_.fatal_per_main[static_cast<std::size_t>(main)];
      }
    }
    if (stats != nullptr) {
      *stats = st_;
    }
    return std::move(log_);
  }

 private:
  PreprocessOptions options_;
  RasLog log_;
  PreprocessStats st_;
  const EventClassifier classifier_;
  ClassificationMemo memo_;  // serves log_.pool(), grows with it
  std::unordered_map<detail::TemporalKey, TimePoint, detail::TemporalKeyHash>
      temporal_seen_;
  std::unordered_map<detail::SpatialKey, TimePoint, detail::SpatialKeyHash>
      spatial_seen_;
  TimePoint prev_time_ = 0;
  bool have_prev_ = false;
};

}  // namespace

RasLog ingest_classified(std::istream& is, const ReadOptions& read_options,
                         const PreprocessOptions& options,
                         PreprocessStats* stats, IngestReport* report) {
  FusedPipeline pipeline(options);
  // Accumulate into a local and copy out at the end (assigning a
  // temporary through the caller's pointer trips gcc-12's
  // use-after-free analysis).
  IngestReport local_report;
  IngestReport& rep = report != nullptr ? *report : local_report;
  // Parsed text has no id to reuse, but most records repeat the previous
  // record's entry, and those skip the hash.
  StringId previous = kInvalidStringId;
  ingest_records(is, read_options, rep,
                 [&pipeline, &previous](const RasRecord& parsed,
                                        std::string_view entry) {
                   previous = pipeline.pool().intern_after(previous, entry);
                   pipeline.push(parsed, previous);
                 });
  return pipeline.finish(stats);
}

RasLog ingest_classified(RecordBatchSource& source,
                         const PreprocessOptions& options,
                         PreprocessStats* stats) {
  FusedPipeline pipeline(options);
  RasLog batch;
  // Batch-pool id -> output-pool id, filled lazily in record order so the
  // output pool interns texts in first-appearance order (a batch pool may
  // hold unused texts, or list them in another order) and hashes each
  // distinct text once per batch rather than once per record.
  std::vector<StringId> to_output;
  while (source.next_batch(batch)) {
    to_output.assign(batch.pool().size(), kInvalidStringId);
    for (const RasRecord& rec : batch.records()) {
      BGL_REQUIRE(rec.entry_data < to_output.size(),
                  "batch record's entry_data is not in its batch pool");
      StringId& out = to_output[rec.entry_data];
      if (out == kInvalidStringId) {
        out = pipeline.pool().intern(batch.text_of(rec));
      }
      pipeline.push(rec, out);
    }
  }
  return pipeline.finish(stats);
}

RasLog load_classified(const std::string& path,
                       const ReadOptions& read_options,
                       const PreprocessOptions& options,
                       PreprocessStats* stats, IngestReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open for reading: " + path);
  }
  return ingest_classified(in, read_options, options, stats, report);
}

}  // namespace bglpred
