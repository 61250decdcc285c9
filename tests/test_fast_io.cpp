// Differential property tests for the zero-allocation ingest path
// (raslog/fast_io.hpp, preprocess/fused_ingest.hpp).
//
// The reference reader (read_log) and the batch preprocess pipeline are
// the oracles; the fast reader and the fused streaming pass must be
// observably identical to them — same records, same interned pool, same
// IngestReport (counts, per-class tallies, sample diagnostics with line
// numbers), same strict-mode exceptions — on clean logs AND under every
// text-level corruption class the fault-injection harness produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "faultinject/faults.hpp"
#include "preprocess/fused_ingest.hpp"
#include "preprocess/pipeline.hpp"
#include "raslog/fast_io.hpp"
#include "raslog/io.hpp"
#include "raslog/source.hpp"
#include "simgen/generator.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {
namespace {

std::string generated_log_text(double scale = 0.01) {
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(scale);
  std::stringstream buffer;
  write_log(buffer, g.log);
  return buffer.str();
}

void expect_same_log(const RasLog& ref, const RasLog& fast) {
  ASSERT_EQ(ref.size(), fast.size());
  ASSERT_EQ(ref.pool().size(), fast.pool().size());
  for (std::size_t i = 0; i < ref.pool().size(); ++i) {
    EXPECT_EQ(ref.pool().str(static_cast<StringId>(i)),
              fast.pool().str(static_cast<StringId>(i)))
        << "pool id " << i;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const RasRecord& a = ref.records()[i];
    const RasRecord& b = fast.records()[i];
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.entry_data, b.entry_data) << "record " << i;
    EXPECT_EQ(a.job, b.job) << "record " << i;
    EXPECT_EQ(a.location, b.location) << "record " << i;
    EXPECT_EQ(a.event_type, b.event_type) << "record " << i;
    EXPECT_EQ(a.facility, b.facility) << "record " << i;
    EXPECT_EQ(a.severity, b.severity) << "record " << i;
    EXPECT_EQ(a.subcategory, b.subcategory) << "record " << i;
  }
}

void expect_same_report(const IngestReport& ref, const IngestReport& fast) {
  EXPECT_EQ(ref.records_attempted, fast.records_attempted);
  EXPECT_EQ(ref.records_kept, fast.records_kept);
  EXPECT_EQ(ref.records_dropped, fast.records_dropped);
  EXPECT_EQ(ref.truncated, fast.truncated);
  EXPECT_TRUE(ref.reconciles());
  EXPECT_TRUE(fast.reconciles());
  for (std::size_t c = 0; c < kIngestErrorClassCount; ++c) {
    EXPECT_EQ(ref.by_class[c], fast.by_class[c])
        << "class " << to_string(static_cast<IngestError>(c));
  }
  ASSERT_EQ(ref.samples.size(), fast.samples.size());
  for (std::size_t i = 0; i < ref.samples.size(); ++i) {
    EXPECT_EQ(ref.samples[i], fast.samples[i]) << "sample " << i;
  }
}

/// Runs both readers on `text` with `options` and requires identical
/// logs and reports (neither may throw).
void expect_readers_agree(const std::string& text,
                          const ReadOptions& options) {
  std::stringstream ref_in(text);
  std::stringstream fast_in(text);
  IngestReport ref_report;
  IngestReport fast_report;
  const RasLog ref = read_log(ref_in, options, &ref_report);
  const RasLog fast = read_log_fast(fast_in, options, &fast_report);
  expect_same_log(ref, fast);
  expect_same_report(ref_report, fast_report);
}

/// Returns the ParseError message `fn` throws, or "" if it doesn't.
template <typename Fn>
std::string parse_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e.what();
  }
  return std::string();
}

// ---- clean-input differential ------------------------------------------

TEST(FastIoDifferentialTest, CleanLogMatchesReferenceStrict) {
  expect_readers_agree(generated_log_text(), ReadOptions::strict());
}

TEST(FastIoDifferentialTest, CleanLogMatchesReferenceLenient) {
  expect_readers_agree(generated_log_text(), ReadOptions::lenient());
}

TEST(FastIoDifferentialTest, CommentsAndBlankLinesMatchReference) {
  const std::string text =
      "# header comment\n"
      "\n"
      "2005-03-14 06:25:01|RAS|FATAL|TORUS|R00-M1-N07-C21|1182|torus err\n"
      "\n"
      "# trailing comment\n"
      "2005-03-14 06:26:02|MONITOR|INFO|MONITOR|R01-M0-S|0|fan speed\n";
  expect_readers_agree(text, ReadOptions::strict());
}

TEST(FastIoDifferentialTest, EntryDataMayContainPipes) {
  // The entry-data field is the remainder of the line (io.hpp): pipes in
  // it must survive both readers and round-trip through write_log.
  const std::string text =
      "2005-03-14 06:25:01|RAS|FATAL|TORUS|R00-M1-N07-C21|1182|a|b||c\n";
  std::stringstream in(text);
  const RasLog log = read_log_fast(in);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.text_of(log.records()[0]), "a|b||c");
  std::stringstream out;
  write_log(out, log);
  EXPECT_EQ(out.str(), text);
  expect_readers_agree(text, ReadOptions::strict());
}

TEST(FastIoDifferentialTest, NonCanonicalTimestampStillKept) {
  // parse_time's sscanf grammar accepts unpadded components; the fast
  // subset parser does not. The replay path must keep the record with
  // the value the reference parser computes.
  const std::string text =
      "2005-3-14 6:25:1|RAS|INFO|KERNEL|R00-M0|7|boot message\n";
  std::stringstream fast_in(text);
  const RasLog fast = read_log_fast(fast_in);
  ASSERT_EQ(fast.size(), 1u);
  expect_readers_agree(text, ReadOptions::strict());
}

TEST(FastIoDifferentialTest, NoTrailingNewlineMatchesReference) {
  std::string text = generated_log_text();
  ASSERT_FALSE(text.empty());
  text.pop_back();  // drop the final '\n': last line is unterminated
  expect_readers_agree(text, ReadOptions::strict());
}

// ---- fault-injected differential ---------------------------------------

TEST(FastIoDifferentialTest, FieldCorruptionMatchesReference) {
  const std::string clean = generated_log_text();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    TextFaultOptions opts;
    opts.field_corruption_rate = 0.2;
    const std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
    expect_readers_agree(dirty, ReadOptions::lenient());
  }
}

TEST(FastIoDifferentialTest, LineTruncationMatchesReference) {
  const std::string clean = generated_log_text();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    TextFaultOptions opts;
    opts.line_truncation_rate = 0.2;
    const std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
    expect_readers_agree(dirty, ReadOptions::lenient());
  }
}

TEST(FastIoDifferentialTest, DuplicateStormMatchesReference) {
  const std::string clean = generated_log_text();
  Rng rng(7);
  DuplicateStormOptions opts;
  opts.duplicate_rate = 0.05;
  const std::string dirty =
      inject_duplicate_storm(clean, opts, rng, nullptr);
  expect_readers_agree(dirty, ReadOptions::lenient());
}

TEST(FastIoDifferentialTest, CombinedFaultsMatchReference) {
  const std::string clean = generated_log_text();
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Rng rng(seed);
    TextFaultOptions opts;
    opts.field_corruption_rate = 0.1;
    opts.line_truncation_rate = 0.1;
    std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
    DuplicateStormOptions storm;
    storm.duplicate_rate = 0.02;
    dirty = inject_duplicate_storm(dirty, storm, rng, nullptr);
    expect_readers_agree(dirty, ReadOptions::lenient());
  }
}

TEST(FastIoDifferentialTest, StrictModeErrorsMatchReference) {
  const std::string clean = generated_log_text();
  Rng rng(21);
  TextFaultOptions opts;
  opts.field_corruption_rate = 0.3;
  const std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
  const std::string ref_error = parse_error_of([&] {
    std::stringstream in(dirty);
    read_log(in, ReadOptions::strict());
  });
  const std::string fast_error = parse_error_of([&] {
    std::stringstream in(dirty);
    read_log_fast(in, ReadOptions::strict());
  });
  ASSERT_FALSE(ref_error.empty());
  // Same first offending line, same field context, same message.
  EXPECT_EQ(ref_error, fast_error);
}

TEST(FastIoDifferentialTest, ErrorFractionGuardMatchesReference) {
  const std::string clean = generated_log_text();
  Rng rng(33);
  TextFaultOptions opts;
  opts.field_corruption_rate = 0.5;
  const std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
  const std::string ref_error = parse_error_of([&] {
    std::stringstream in(dirty);
    read_log(in, ReadOptions::lenient(0.05));
  });
  const std::string fast_error = parse_error_of([&] {
    std::stringstream in(dirty);
    read_log_fast(in, ReadOptions::lenient(0.05));
  });
  ASSERT_FALSE(ref_error.empty());
  EXPECT_EQ(ref_error, fast_error);
}

// ---- LineScanner / tokenizer units -------------------------------------

TEST(LineScannerTest, SplitsLinesAcrossChunkBoundaries) {
  const std::string text =
      "first line\nsecond somewhat longer line\nthird\n";
  // A 4-byte chunk forces every line to straddle refills and the buffer
  // to grow past the chunk size.
  std::stringstream in(text);
  LineScanner scanner(in, 4);
  std::string_view line;
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "first line");
  EXPECT_EQ(scanner.line_number(), 1u);
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "second somewhat longer line");
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "third");
  EXPECT_EQ(scanner.line_number(), 3u);
  EXPECT_FALSE(scanner.next(line));
}

TEST(LineScannerTest, UnterminatedTailIsYielded) {
  std::stringstream in("alpha\nbeta");
  LineScanner scanner(in);
  std::string_view line;
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "alpha");
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "beta");
  EXPECT_FALSE(scanner.next(line));
}

TEST(LineScannerTest, TrailingNewlineYieldsNoPhantomLine) {
  std::stringstream in("only\n");
  LineScanner scanner(in);
  std::string_view line;
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "only");
  EXPECT_FALSE(scanner.next(line));
  EXPECT_EQ(scanner.line_number(), 1u);
}

TEST(LineScannerTest, CarriageReturnsPassThrough) {
  // Like std::getline, '\r' is ordinary line content.
  std::stringstream in("a\r\nb\r\n");
  LineScanner scanner(in);
  std::string_view line;
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "a\r");
  ASSERT_TRUE(scanner.next(line));
  EXPECT_EQ(line, "b\r");
  EXPECT_FALSE(scanner.next(line));
}

TEST(LineScannerTest, EmptyInputYieldsNothing) {
  std::stringstream in("");
  LineScanner scanner(in);
  std::string_view line;
  EXPECT_FALSE(scanner.next(line));
  EXPECT_EQ(scanner.line_number(), 0u);
}

TEST(ForEachLineTest, MatchesScannerSemantics) {
  std::vector<std::string> lines;
  for_each_line("a\n\nb\nc",
                [&](std::string_view l) { lines.emplace_back(l); });
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], "b");
  EXPECT_EQ(lines[3], "c");
  lines.clear();
  for_each_line("x\n", [&](std::string_view l) { lines.emplace_back(l); });
  ASSERT_EQ(lines.size(), 1u);  // no phantom empty line after '\n'
  EXPECT_EQ(lines[0], "x");
}

TEST(SplitFieldsTest, SevenFieldsWithPipesInEntry) {
  std::array<std::string_view, kRecordFieldCount> fields;
  ASSERT_TRUE(split_fields("a|b|c|d|e|f|g|h|i", fields));
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[5], "f");
  EXPECT_EQ(fields[6], "g|h|i");
  ASSERT_TRUE(split_fields("||||||", fields));
  EXPECT_EQ(fields[0], "");
  EXPECT_EQ(fields[6], "");
  EXPECT_FALSE(split_fields("a|b|c|d|e|f", fields));
  EXPECT_FALSE(split_fields("", fields));
}

// ---- non-throwing parser twins -----------------------------------------

TEST(TryParseTest, LocationDifferentialRandomized) {
  // Random strings over the location alphabet: the throwing and
  // non-throwing parsers must agree on accept/reject AND value.
  const std::string alphabet = "RMNCILS0123456789-";
  Rng rng(1234);
  for (int trial = 0; trial < 4000; ++trial) {
    const auto len =
        static_cast<std::size_t>(rng.uniform_int(0, 12));
    std::string code;
    for (std::size_t i = 0; i < len; ++i) {
      code += alphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    bgl::Location fast_loc;
    const bool fast_ok = bgl::try_parse_location(code, fast_loc);
    bool ref_ok = true;
    bgl::Location ref_loc;
    try {
      ref_loc = bgl::parse_location(code);
    } catch (const ParseError&) {
      ref_ok = false;
    }
    ASSERT_EQ(ref_ok, fast_ok) << "code '" << code << "'";
    if (ref_ok) {
      EXPECT_EQ(ref_loc, fast_loc) << "code '" << code << "'";
    }
  }
}

TEST(TryParseTest, LocationRoundTripsAllKinds) {
  const std::array<bgl::Location, 7> locations = {
      bgl::Location::make_rack(12),
      bgl::Location::make_midplane(3, 1),
      bgl::Location::make_node_card(0, 0, 15),
      bgl::Location::make_compute_chip(7, 1, 3, 31),
      bgl::Location::make_io_node(7, 0, 2, 1),
      bgl::Location::make_link_card(2, 1, 3),
      bgl::Location::make_service_card(9, 0),
  };
  for (const bgl::Location& loc : locations) {
    bgl::Location parsed;
    ASSERT_TRUE(bgl::try_parse_location(loc.str(), parsed)) << loc.str();
    EXPECT_EQ(parsed, loc) << loc.str();
    EXPECT_EQ(bgl::parse_location(loc.str()), parsed) << loc.str();
  }
}

TEST(TryParseTest, KeywordParsersMatchThrowingTwins) {
  for (int i = 0; i < kSeverityCount; ++i) {
    const auto s = static_cast<Severity>(i);
    Severity parsed;
    ASSERT_TRUE(try_parse_severity(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  for (int i = 0; i < kFacilityCount; ++i) {
    const auto f = static_cast<Facility>(i);
    Facility parsed;
    ASSERT_TRUE(try_parse_facility(to_string(f), parsed));
    EXPECT_EQ(parsed, f);
  }
  for (const char* name : {"RAS", "MONITOR", "CONTROL"}) {
    EventType parsed;
    ASSERT_TRUE(try_parse_event_type(name, parsed));
    EXPECT_EQ(to_string(parsed), std::string_view(name));
  }
  Severity sev;
  EXPECT_FALSE(try_parse_severity("", sev));
  EXPECT_FALSE(try_parse_severity("FATA", sev));
  EXPECT_FALSE(try_parse_severity("FATALITY", sev));
  EXPECT_FALSE(try_parse_severity("info", sev));
  Facility fac;
  EXPECT_FALSE(try_parse_facility("CIODX", fac));
  EXPECT_FALSE(try_parse_facility("MEM", fac));
  EventType et;
  EXPECT_FALSE(try_parse_event_type("ras", et));
}

TEST(TryParseTest, TimeAcceptsCanonicalOnly) {
  TimePoint t = 0;
  ASSERT_TRUE(try_parse_time("2005-03-14 06:25:01", t));
  EXPECT_EQ(t, parse_time("2005-03-14 06:25:01"));
  ASSERT_TRUE(try_parse_time("2004-02-29 23:59:59", t));  // leap day
  EXPECT_EQ(t, parse_time("2004-02-29 23:59:59"));
  // Rejections: wrong shape (even when sscanf would accept) and
  // out-of-range components (which the reference also rejects).
  EXPECT_FALSE(try_parse_time("2005-3-14 06:25:01", t));
  EXPECT_FALSE(try_parse_time("2005-03-14T06:25:01", t));
  EXPECT_FALSE(try_parse_time("2005-03-14 06:25:01 ", t));
  EXPECT_FALSE(try_parse_time("2005-13-14 06:25:01", t));
  EXPECT_FALSE(try_parse_time("2005-02-30 06:25:01", t));
  EXPECT_FALSE(try_parse_time("2005-03-14 24:00:00", t));
  EXPECT_FALSE(try_parse_time("", t));
}

TEST(TryParseTest, U32MatchesThrowingTwin) {
  std::uint32_t v = 0;
  ASSERT_TRUE(try_parse_u32("0", v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(try_parse_u32("4294967295", v));
  EXPECT_EQ(v, 4294967295u);
  EXPECT_FALSE(try_parse_u32("", v));
  EXPECT_FALSE(try_parse_u32("-1", v));
  EXPECT_FALSE(try_parse_u32("+1", v));
  EXPECT_FALSE(try_parse_u32("4294967296", v));  // overflow
  EXPECT_FALSE(try_parse_u32("12x", v));
  EXPECT_FALSE(try_parse_u32(" 12", v));
}

// ---- serialization -----------------------------------------------------

TEST(FormatRecordTest, BufferAppendMatchesFormatRecord) {
  std::stringstream in(generated_log_text(0.002));
  const RasLog log = read_log_fast(in);
  ASSERT_GT(log.size(), 0u);
  std::string buf;
  for (const RasRecord& rec : log.records()) {
    buf.clear();
    format_record_to(buf, log, rec);
    EXPECT_EQ(buf, format_record(log, rec));
  }
}

TEST(FormatRecordTest, WriteThenReadIsIdentity) {
  const std::string text = generated_log_text(0.005);
  std::stringstream in(text);
  const RasLog log = read_log(in);
  std::stringstream out;
  write_log(out, log);
  EXPECT_EQ(out.str(), text);
  // And the reparse of the rewrite is the same log again.
  std::stringstream in2(out.str());
  expect_same_log(log, read_log_fast(in2));
}

// ---- fused streaming ingest --------------------------------------------

void expect_same_preprocess_stats(const PreprocessStats& a,
                                  const PreprocessStats& b) {
  EXPECT_EQ(a.raw_records, b.raw_records);
  EXPECT_EQ(a.classification.classified_by_phrase,
            b.classification.classified_by_phrase);
  EXPECT_EQ(a.classification.classified_by_fallback,
            b.classification.classified_by_fallback);
  EXPECT_EQ(a.classification.total, b.classification.total);
  EXPECT_EQ(a.classification.per_main, b.classification.per_main);
  EXPECT_EQ(a.temporal.input_records, b.temporal.input_records);
  EXPECT_EQ(a.temporal.output_records, b.temporal.output_records);
  EXPECT_EQ(a.temporal.removed, b.temporal.removed);
  EXPECT_EQ(a.spatial.input_records, b.spatial.input_records);
  EXPECT_EQ(a.spatial.output_records, b.spatial.output_records);
  EXPECT_EQ(a.spatial.removed, b.spatial.removed);
  EXPECT_EQ(a.unique_events, b.unique_events);
  EXPECT_EQ(a.unique_fatal_events, b.unique_fatal_events);
  EXPECT_EQ(a.fatal_per_main, b.fatal_per_main);
}

void expect_fused_matches_three_step(const std::string& text,
                                     const ReadOptions& read_options) {
  std::stringstream ref_in(text);
  IngestReport ref_report;
  RasLog ref = read_log_fast(ref_in, read_options, &ref_report);
  const PreprocessStats ref_stats = preprocess(ref);

  std::stringstream fused_in(text);
  IngestReport fused_report;
  PreprocessStats fused_stats;
  const RasLog fused = ingest_classified(fused_in, read_options, {},
                                         &fused_stats, &fused_report);
  expect_same_log(ref, fused);
  expect_same_report(ref_report, fused_report);
  expect_same_preprocess_stats(ref_stats, fused_stats);
}

TEST(FusedIngestTest, CleanLogMatchesThreeStepPipeline) {
  expect_fused_matches_three_step(generated_log_text(0.02),
                                  ReadOptions::strict());
}

TEST(FusedIngestTest, FaultInjectedLenientMatchesThreeStepPipeline) {
  const std::string clean = generated_log_text();
  for (std::uint64_t seed = 41; seed <= 43; ++seed) {
    Rng rng(seed);
    TextFaultOptions opts;
    opts.field_corruption_rate = 0.15;
    opts.line_truncation_rate = 0.05;
    std::string dirty = inject_text_faults(clean, opts, rng, nullptr);
    DuplicateStormOptions storm;
    storm.duplicate_rate = 0.05;
    dirty = inject_duplicate_storm(dirty, storm, rng, nullptr);
    expect_fused_matches_three_step(dirty, ReadOptions::lenient());
  }
}

TEST(FusedIngestTest, RejectsUnsortedInput) {
  const std::string text =
      "2005-03-14 06:25:01|RAS|INFO|KERNEL|R00-M0|1|later\n"
      "2005-03-14 06:25:00|RAS|INFO|KERNEL|R00-M0|1|earlier\n";
  std::stringstream in(text);
  EXPECT_THROW(ingest_classified(in, ReadOptions::strict()),
               InvalidArgument);
}

TEST(FusedIngestTest, StrictErrorsMatchFastReader) {
  const std::string text =
      "2005-03-14 06:25:01|RAS|INFO|KERNEL|R00-M0|1|fine\n"
      "2005-03-14 06:25:02|RAS|BOGUS|KERNEL|R00-M0|1|bad severity\n";
  const std::string ref_error = parse_error_of([&] {
    std::stringstream in(text);
    read_log_fast(in, ReadOptions::strict());
  });
  const std::string fused_error = parse_error_of([&] {
    std::stringstream in(text);
    ingest_classified(in, ReadOptions::strict());
  });
  ASSERT_FALSE(ref_error.empty());
  EXPECT_EQ(ref_error, fused_error);
}

/// Replays a time-sorted log in batches of `batch_size` records. Each
/// batch pool holds texts no record of the batch uses and lists the
/// batch's texts in reverse first-appearance order, the two things the
/// fused source path's batch-to-output id map must not leak into the
/// output pool.
class ScrambledBatchSource : public RecordBatchSource {
 public:
  ScrambledBatchSource(const RasLog& log, std::size_t batch_size)
      : log_(log), batch_size_(batch_size) {}

  bool next_batch(RasLog& out) override {
    out = RasLog();
    if (next_ >= log_.size()) {
      return false;
    }
    const std::size_t end = std::min(next_ + batch_size_, log_.size());
    std::vector<StringId> first_seen;
    for (std::size_t i = next_; i < end; ++i) {
      const StringId id = log_.records()[i].entry_data;
      if (std::find(first_seen.begin(), first_seen.end(), id) ==
          first_seen.end()) {
        first_seen.push_back(id);
      }
    }
    out.pool().intern("unused head text " + std::to_string(batches_));
    for (auto it = first_seen.rbegin(); it != first_seen.rend(); ++it) {
      out.pool().intern(log_.pool().str(*it));
    }
    out.pool().intern("unused tail text");
    for (std::size_t i = next_; i < end; ++i) {
      RasRecord rec = log_.records()[i];
      rec.entry_data = out.pool().find(log_.text_of(rec));
      out.append(rec);
    }
    next_ = end;
    ++batches_;
    return true;
  }

 private:
  const RasLog& log_;
  std::size_t batch_size_;
  std::size_t next_ = 0;
  std::size_t batches_ = 0;
};

/// `log`'s records appended with their texts in record order: the pool
/// the three-step path builds when it reads a stream.
RasLog reinterned_in_record_order(const RasLog& log) {
  RasLog out;
  for (const RasRecord& rec : log.records()) {
    out.append_with_text(rec, log.text_of(rec));
  }
  return out;
}

TEST(FusedIngestTest, ScrambledBatchSourceMatchesThreeStepPipeline) {
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01, 3);
  ASSERT_TRUE(g.log.is_time_sorted());
  RasLog ref = reinterned_in_record_order(g.log);
  const PreprocessStats ref_stats = preprocess(ref);

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{997}}) {
    ScrambledBatchSource source(g.log, batch_size);
    PreprocessStats fused_stats;
    const RasLog fused = ingest_classified(source, {}, &fused_stats);
    // Same records, entry ids and pool (size and order), not only texts.
    expect_same_log(ref, fused);
    expect_same_preprocess_stats(ref_stats, fused_stats);
  }
}

// Runs of equal entries, with a line whose entry crosses the scanner's
// first refill boundary repeating the entry of the line before it: the
// readers skip the hash by comparing against the pooled copy, since the
// refill slides the straddling line over the previous line's bytes.
TEST(FusedIngestTest, RepeatedEntryAcrossRefillBoundary) {
  constexpr std::size_t kBoundary = LineScanner::kDefaultChunkSize;
  const std::string prefix = "2005-03-14 06:25:01|RAS|INFO|KERNEL|R00-M0|1|";
  const std::string repeated = "repeated entry " + std::string(85, 'y');
  std::string text;
  for (std::size_t i = 0; text.size() < kBoundary - 1000; ++i) {
    const std::size_t run = (i / 3) % 7;  // runs of three equal entries
    text += prefix + "entry " + std::to_string(run) +
            std::string(run * 9, 'x') + "\n";
  }
  // Pad so the first `repeated` line ends 95 bytes before the boundary:
  // the second one then starts there and its entry spans the boundary.
  const std::size_t repeated_line = prefix.size() + repeated.size() + 1;
  const std::size_t pad =
      kBoundary - 95 - repeated_line - text.size() - prefix.size() - 1;
  text += prefix + std::string(pad, 'p') + "\n";
  text += prefix + repeated + "\n";
  ASSERT_EQ(text.size(), kBoundary - 95);
  const std::size_t entry_begin = text.size() + prefix.size();
  ASSERT_LT(entry_begin, kBoundary);
  ASSERT_GT(entry_begin + repeated.size(), kBoundary);
  text += prefix + repeated + "\n";
  text += prefix + repeated + "\n";
  text += prefix + "entry 3" + std::string(27, 'x') + "\n";
  text += prefix + repeated + "\n";

  expect_readers_agree(text, ReadOptions::strict());
  expect_fused_matches_three_step(text, ReadOptions::strict());
  std::stringstream in(text);
  const RasLog log = read_log_fast(in);
  const std::size_t n = log.size();
  ASSERT_GE(n, 4u);
  EXPECT_EQ(log.text_of(log.records()[n - 3]), repeated);
  EXPECT_EQ(log.records()[n - 5].entry_data, log.records()[n - 1].entry_data);
  EXPECT_EQ(log.pool().size(), 9u);  // 7 run entries, the pad, `repeated`
}

// ---- memoised classification -------------------------------------------

void expect_same_classification(const ClassificationStats& want,
                                const ClassificationStats& got) {
  EXPECT_EQ(want.classified_by_phrase, got.classified_by_phrase);
  EXPECT_EQ(want.classified_by_fallback, got.classified_by_fallback);
  EXPECT_EQ(want.total, got.total);
  EXPECT_EQ(want.per_main, got.per_main);
}

TEST(ClassificationMemoTest, KeyedOnFacilityAndSeverityNotEntryAlone) {
  const EventClassifier classifier;
  // One text holding phrases of two facilities: the facility-first scan
  // classifies it differently under each.
  const SubcategoryInfo& a = catalog().info(catalog().find("torusFailure"));
  const auto b_it = std::find_if(
      catalog().entries().begin(), catalog().entries().end(),
      [&a](const SubcategoryInfo& info) { return info.facility != a.facility; });
  ASSERT_NE(b_it, catalog().entries().end());
  const SubcategoryInfo& b = *b_it;
  const std::string two_phrases =
      std::string(a.phrase) + " | " + std::string(b.phrase);
  ASSERT_EQ(classifier.classify(two_phrases, a.facility, a.severity), a.id);
  ASSERT_EQ(classifier.classify(two_phrases, b.facility, a.severity), b.id);

  // One text matching no phrase, under a facility whose severity
  // fallback differs between two severities.
  const std::string no_phrase = "zzz memo key probe zzz";
  Facility fb_facility = Facility::kApp;
  Severity fb_low = Severity::kInfo;
  Severity fb_high = Severity::kInfo;
  bool found = false;
  for (int f = 0; f < kFacilityCount && !found; ++f) {
    const auto facility = static_cast<Facility>(f);
    for (int s1 = 0; s1 < kSeverityCount && !found; ++s1) {
      for (int s2 = s1 + 1; s2 < kSeverityCount && !found; ++s2) {
        const auto low = static_cast<Severity>(s1);
        const auto high = static_cast<Severity>(s2);
        if (classifier.classify(no_phrase, facility, low) !=
            classifier.classify(no_phrase, facility, high)) {
          fb_facility = facility;
          fb_low = low;
          fb_high = high;
          found = true;
        }
      }
    }
  }
  ASSERT_TRUE(found);

  struct Key {
    const std::string* text;
    Facility facility;
    Severity severity;
  };
  const Key keys[] = {
      {&two_phrases, a.facility, a.severity},
      {&two_phrases, b.facility, a.severity},
      {&two_phrases, a.facility, b.severity},
      {&two_phrases, b.facility, b.severity},
      {&no_phrase, fb_facility, fb_low},
      {&no_phrase, fb_facility, fb_high},
  };
  constexpr std::size_t kKeys = sizeof(keys) / sizeof(keys[0]);
  // Strictly increasing times and zero thresholds: the compressors keep
  // every record, so the fused outputs line up with the input.
  const auto make_log = [&] {
    RasLog log;
    for (std::size_t i = 0; i < 8 * kKeys; ++i) {
      // Rotate the visiting order each round so every slot is
      // overwritten by, and then read back after, every other key.
      const Key& key = keys[(i + i / kKeys) % kKeys];
      RasRecord rec;
      rec.time = make_time(2005, 6, 1) + 10 * static_cast<TimePoint>(i);
      rec.job = 7;
      rec.location = bgl::Location::make_node_card(1, 0, 3);
      rec.facility = key.facility;
      rec.severity = key.severity;
      log.append_with_text(rec, *key.text);
    }
    return log;
  };
  const PreprocessOptions keep_all{0, 0};

  // Oracle: per-record classify, no memo.
  const RasLog input = make_log();
  std::vector<SubcategoryId> want;
  ClassificationStats want_stats;
  for (RasRecord rec : input.records()) {
    classifier.classify_record(input.text_of(rec), rec, want_stats);
    want.push_back(rec.subcategory);
  }
  ASSERT_NE(want[0], want[1]);  // same text, different facility
  ASSERT_NE(want[4], want[5]);  // same text, different severity
  ASSERT_GT(want_stats.classified_by_phrase, 0u);
  ASSERT_GT(want_stats.classified_by_fallback, 0u);

  const auto expect_matches_oracle = [&](const RasLog& got,
                                         const char* path) {
    ASSERT_EQ(got.size(), input.size()) << path;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.text_of(got.records()[i]),
                input.text_of(input.records()[i]))
          << path << " record " << i;
      EXPECT_EQ(got.records()[i].subcategory, want[i])
          << path << " record " << i;
    }
  };

  {
    RasLog log = make_log();
    const ClassificationStats stats = classifier.classify_all(log);
    expect_matches_oracle(log, "classify_all");
    expect_same_classification(want_stats, stats);
  }
  {
    std::stringstream text;
    write_log(text, input);
    PreprocessStats stats;
    const RasLog fused = ingest_classified(text, ReadOptions::strict(),
                                           keep_all, &stats);
    expect_matches_oracle(fused, "fused istream");
    expect_same_classification(want_stats, stats.classification);
  }
  {
    ScrambledBatchSource source(input, 5);
    PreprocessStats stats;
    const RasLog fused = ingest_classified(source, keep_all, &stats);
    expect_matches_oracle(fused, "fused source");
    expect_same_classification(want_stats, stats.classification);
  }
}

// ---- classifier attribution hook ---------------------------------------

TEST(ClassifierAttributionTest, FourArgClassifyReportsPhraseMatch) {
  const EventClassifier classifier;
  bool matched = false;
  // Nonsense text matches no catalog phrase -> fallback attribution.
  const SubcategoryId fb = classifier.classify(
      "zzz no such phrase zzz", Facility::kKernel, Severity::kInfo, &matched);
  EXPECT_FALSE(matched);
  EXPECT_NE(fb, kUnclassified);
  // The 3-arg overload must agree with the 4-arg one.
  EXPECT_EQ(fb, classifier.classify("zzz no such phrase zzz",
                                    Facility::kKernel, Severity::kInfo));
}

}  // namespace
}  // namespace bglpred
