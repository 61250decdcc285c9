// Differential tests pinning the rule trainer — linear event-set
// extraction, per-label mining through row masks, and the min_rule_hits
// floor pushed into the miners — to the reference trainer in
// tests/oracles, which extracts by rescanning windows, copies one class
// database per label and filters the mined itemsets afterwards. Trained
// RulePredictor and MetaLearner checkpoints must be byte-identical, and
// the extraction statistics equal, on calibrated logs and on synthetic
// edge cases.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/three_phase.hpp"
#include "meta/meta_learner.hpp"
#include "mining/apriori.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "oracles/fpgrowth_oracle.hpp"
#include "oracles/mining_oracles.hpp"
#include "oracles/rule_training_oracle.hpp"
#include "predict/rule_predictor.hpp"
#include "predict/statistical_predictor.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

std::string rule_bytes(const RuleSet& rules) {
  std::ostringstream os;
  save_rules(os, rules);
  return os.str();
}

std::string state_bytes(const BasePredictor& predictor) {
  std::ostringstream os;
  predictor.save_state(os);
  return os.str();
}

void expect_same_stats(const EventSetStats& a, const EventSetStats& b) {
  EXPECT_EQ(a.fatal_events, b.fatal_events);
  EXPECT_EQ(a.with_precursors, b.with_precursors);
  EXPECT_EQ(a.without_precursors, b.without_precursors);
}

// Extraction must match the reference transaction for transaction (order
// included), and mining must give rule sets byte-identical to the
// reference trainer's under both oracle miners.
void expect_same_training(const LogView& log, Duration window,
                          double negative_ratio, const RuleOptions& options) {
  EventSetStats stats;
  EventSetStats ref_stats;
  const TransactionDb db =
      extract_event_sets(log, window, &stats, negative_ratio);
  const TransactionDb ref = oracles::reference_extract_event_sets(
      log, window, &ref_stats, negative_ratio);
  expect_same_stats(stats, ref_stats);
  ASSERT_EQ(oracles::rows_of(db), oracles::rows_of(ref));
  const std::string mined = rule_bytes(mine_rules(db, options));
  for (const oracles::ReferenceMiner miner :
       {oracles::ReferenceMiner::kApriori, oracles::ReferenceMiner::kFpGrowth}) {
    EXPECT_EQ(mined,
              rule_bytes(oracles::reference_mine_rules(db, options, miner)));
  }
}

// ---- calibrated logs: every CV fold ------------------------------------

// Scale of the generated logs: about 3k Phase-1 records and 150 fatal
// events per log, which keeps all 16 cases (3 seeds x 10 folds each)
// around 3 s.
constexpr double kScale = 0.06;
constexpr std::uint64_t kSeeds[] = {0, 1, 2};

const RasLog& phase1_log(const std::string& profile, std::uint64_t seed) {
  static std::map<std::pair<std::string, std::uint64_t>, RasLog> cache;
  const auto key = std::make_pair(profile, seed);
  auto it = cache.find(key);
  if (it == cache.end()) {
    GeneratedLog g = LogGenerator(profile == "ANL" ? SystemProfile::anl()
                                                   : SystemProfile::sdsc())
                         .generate(kScale, seed);
    ThreePhasePredictor(ThreePhaseOptions{}).run_phase1(g.log);
    it = cache.emplace(key, std::move(g.log)).first;
  }
  return it->second;
}

using FoldCase = std::tuple<std::string, int, oracles::ReferenceMiner>;

class RuleTrainingFoldTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(RuleTrainingFoldTest, CheckpointsMatchReferenceTrainer) {
  const auto& [profile, window_minutes, miner] = GetParam();
  ThreePhaseOptions options;
  options.prediction.window = 30 * kMinute;
  options.rule.rule_generation_window = window_minutes * kMinute;
  const ThreePhasePredictor pipeline(options);
  std::size_t rules_mined = 0;
  for (const std::uint64_t seed : kSeeds) {
    const RasLog& log = phase1_log(profile, seed);
    constexpr std::size_t kFolds = 10;
    for (std::size_t fold = 0; fold < kFolds; ++fold) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " fold " +
                   std::to_string(fold));
      const LogView training =
          LogView::excluding(log, fold * log.size() / kFolds,
                             (fold + 1) * log.size() / kFolds);

      RulePredictor rule(options.prediction, options.rule);
      oracles::ReferenceRulePredictor ref_rule(options.prediction,
                                               options.rule, miner);
      rule.train(training);
      ref_rule.train(training);
      expect_same_stats(rule.training_stats(), ref_rule.training_stats());
      ASSERT_EQ(state_bytes(rule), state_bytes(ref_rule));
      rules_mined += rule.rules().size();

      // The meta-learner as the pipeline builds it, against the same
      // bases with the reference rule trainer in the rule slot.
      const PredictorPtr meta = pipeline.make_predictor(Method::kMeta);
      MetaLearner ref_meta(options.prediction, options.meta);
      ref_meta.add_base(std::make_unique<oracles::ReferenceRulePredictor>(
                            options.prediction, options.rule, miner),
                        /*treat_as_rule_like=*/true);
      PredictionConfig stat_config = options.prediction;
      stat_config.lead = 5 * kMinute;
      stat_config.window = kHour;
      ref_meta.add_base(std::make_unique<StatisticalPredictor>(
                            stat_config, options.statistical),
                        /*treat_as_rule_like=*/false);
      meta->train(training);
      ref_meta.train(training);
      ASSERT_EQ(state_bytes(*meta), state_bytes(ref_meta));
    }
  }
  EXPECT_GT(rules_mined, 0u) << "the comparison must cover mined rules";
}

INSTANTIATE_TEST_SUITE_P(
    Calibrated, RuleTrainingFoldTest,
    ::testing::Combine(::testing::Values("ANL", "SDSC"),
                       ::testing::Values(5, 15, 25, 60),
                       ::testing::Values(oracles::ReferenceMiner::kApriori,
                                         oracles::ReferenceMiner::kFpGrowth)),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "min_" +
             (std::get<2>(info.param) == oracles::ReferenceMiner::kApriori
                  ? "Apriori"
                  : "FpGrowth");
    });

// ---- synthetic edges ----------------------------------------------------

// Records are appended in the order given: extraction only needs
// non-decreasing times, and same-second order is the log's order.
RasRecord record(TimePoint time, SubcategoryId subcategory, bool fatal) {
  RasRecord rec;
  rec.time = time;
  rec.subcategory = subcategory;
  rec.severity = fatal ? Severity::kFatal : Severity::kInfo;
  return rec;
}

RasLog log_of(const std::vector<RasRecord>& records) {
  RasLog log;
  for (const RasRecord& rec : records) {
    log.append_with_text(rec, "x");
  }
  return log;
}

TEST(RuleTrainingEdgeTest, RecordExactlyAtWindowStartIsExcluded) {
  const RasLog log = log_of({record(100, 3, false), record(101, 4, false),
                             record(700, 9, true)});
  const TransactionDb db = extract_event_sets(log, 600, nullptr);
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(oracles::rows_of(db)[0], (Itemset{body_item(4), label_item(9)}));
  expect_same_training(log, 600, 0.0, RuleOptions{});
}

TEST(RuleTrainingEdgeTest, SameSecondRecordsFollowLogOrder) {
  // Three records in the fatal's own second: the one sorting before the
  // fatal is in its window, the one sorting after it is not.
  const RasLog log = log_of({record(500, 3, false), record(500, 9, true),
                             record(500, 4, false), record(900, 8, true)});
  const TransactionDb db = extract_event_sets(log, 600, nullptr);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(oracles::rows_of(db)[0], (Itemset{body_item(3), label_item(9)}));
  EXPECT_EQ(oracles::rows_of(db)[1],
            (Itemset{body_item(3), body_item(4), label_item(8)}));
  expect_same_training(log, 600, 0.0, RuleOptions{});
  expect_same_training(log, 600, 4.0, RuleOptions{});
}

TEST(RuleTrainingEdgeTest, OverlappingWindowsSlideCounts) {
  // Fatal windows overlap and a subcategory leaves one window while a
  // second occurrence of it stays inside.
  const RasLog log = log_of(
      {record(0, 1, false), record(50, 2, false), record(80, 1, false),
       record(100, 20, true), record(120, 3, false), record(150, 21, true),
       record(160, 2, false), record(185, 22, true), record(400, 23, true)});
  EventSetStats stats;
  const TransactionDb db = extract_event_sets(log, 100, &stats);
  ASSERT_EQ(db.size(), 4u);
  EXPECT_EQ(oracles::rows_of(db)[0],
            (Itemset{body_item(1), body_item(2), label_item(20)}));
  EXPECT_EQ(oracles::rows_of(db)[1],
            (Itemset{body_item(1), body_item(3), label_item(21)}));
  EXPECT_EQ(oracles::rows_of(db)[2],
            (Itemset{body_item(2), body_item(3), label_item(22)}));
  EXPECT_EQ(oracles::rows_of(db)[3], (Itemset{label_item(23)}));
  EXPECT_EQ(stats.with_precursors, 3u);
  EXPECT_EQ(stats.without_precursors, 1u);
  expect_same_training(log, 100, 0.0, RuleOptions{});
  expect_same_training(log, 100, 3.0, RuleOptions{});
}

TEST(RuleTrainingEdgeTest, UnclassifiedAndOutOfUniverseItems) {
  // Unclassified records contribute nothing; the highest catalog
  // subcategories are ordinary items.
  const SubcategoryId last = kExpectedSubcategories - 1;
  const SubcategoryId near = kExpectedSubcategories - 2;
  std::vector<RasRecord> records;
  for (int i = 0; i < 40; ++i) {
    const TimePoint t = i * 100;
    records.push_back(record(t, kUnclassified, false));
    records.push_back(record(t + 1, i % 2 == 0 ? last : near, false));
    records.push_back(record(t + 2, 7, false));
    records.push_back(record(t + 3, i % 3 == 0 ? last : 11, true));
  }
  const RasLog log = log_of(records);
  const TransactionDb db = extract_event_sets(log, 50, nullptr);
  ASSERT_EQ(db.size(), 40u);
  EXPECT_EQ(oracles::rows_of(db)[0],
            (Itemset{body_item(7), body_item(last), label_item(last)}));
  RuleOptions options;
  options.min_label_count = 1;
  for (const std::size_t hits : {0u, 1u, 5u}) {
    options.min_rule_hits = hits;
    expect_same_training(log, 50, 0.0, options);
    expect_same_training(log, 50, 2.0, options);
  }
  // A subcategory past the catalog, as a body or as a label, is rejected
  // with the typed error before any window is built, by the product and
  // by the reference alike.
  for (const SubcategoryId outside :
       {static_cast<SubcategoryId>(kExpectedSubcategories),
        static_cast<SubcategoryId>(kItemBodyBits + 5),
        static_cast<SubcategoryId>(4000)}) {
    for (const bool fatal : {false, true}) {
      std::vector<RasRecord> bad = records;
      bad.insert(bad.begin() + 8, record(160, outside, fatal));
      const RasLog bad_log = log_of(bad);
      EXPECT_THROW(extract_event_sets(bad_log, 50, nullptr, 2.0),
                   ItemOutOfUniverse);
      EXPECT_THROW(oracles::reference_extract_event_sets(bad_log, 50),
                   ItemOutOfUniverse);
    }
  }
}

TEST(RuleTrainingEdgeTest, EmptyView) {
  const RasLog log;
  EventSetStats stats;
  stats.fatal_events = 7;  // overwritten
  const TransactionDb db = extract_event_sets(LogView(log), 600, &stats, 4.0);
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(stats.fatal_events, 0u);
  EXPECT_TRUE(mine_rules(db, RuleOptions{}).empty());
  expect_same_training(log, 600, 4.0, RuleOptions{});
}

TEST(RuleTrainingEdgeTest, RejectsWhatTheReferenceRejects) {
  const RasLog unsorted = log_of({record(200, 1, false), record(100, 2, true)});
  EXPECT_THROW(extract_event_sets(unsorted, 600, nullptr), InvalidArgument);
  const RasLog unlabeled =
      log_of({record(100, 1, false), record(200, kUnclassified, true)});
  EXPECT_THROW(extract_event_sets(unlabeled, 600, nullptr), InvalidArgument);
  EXPECT_THROW(oracles::reference_extract_event_sets(unlabeled, 600),
               InvalidArgument);
}

// Random logs with heavy timestamp ties, unclassified records, items at
// the top of the catalog, and two-segment views.
TEST(RuleTrainingEdgeTest, RandomLogsAndViewsMatchReference) {
  Rng rng(0x7a1115u);
  for (int round = 0; round < 40; ++round) {
    std::vector<RasRecord> records;
    TimePoint t = 0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    for (std::size_t i = 0; i < n; ++i) {
      t += rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, 40);
      SubcategoryId subcat =
          static_cast<SubcategoryId>(rng.uniform_int(0, 15));
      switch (rng.uniform_int(0, 9)) {
        case 0:
          subcat = kUnclassified;
          break;
        case 1:
          subcat = static_cast<SubcategoryId>(kExpectedSubcategories - 1 -
                                              subcat);
          break;
        default:
          break;
      }
      const bool fatal = rng.uniform_int(0, 4) == 0;
      if (fatal && subcat == kUnclassified) {
        subcat = 2;  // fatal records always carry a label
      }
      records.push_back(record(t, subcat, fatal));
    }
    const RasLog log = log_of(records);
    const auto first = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
    const auto last = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(first),
                        static_cast<std::int64_t>(n)));
    RuleOptions options;
    options.mining.min_support = 0.05 * static_cast<double>(round % 4);
    options.mining.max_itemset_size =
        static_cast<std::size_t>(rng.uniform_int(1, 5));
    options.min_label_count = static_cast<std::size_t>(round % 3);
    options.min_rule_hits = static_cast<std::size_t>(round % 3);
    options.min_confidence = 0.1;
    const Duration window = rng.uniform_int(1, 200);
    const double ratio = static_cast<double>(round % 5);
    SCOPED_TRACE("round " + std::to_string(round));
    expect_same_training(log, window, ratio, options);
    expect_same_training(LogView::excluding(log, first, last), window, ratio,
                         options);
  }
}

// mine_rules on arbitrary databases: transactions with several labels
// (the class is the smallest one), none, or only a label.
TEST(RuleTrainingEdgeTest, MultiLabelDatabasesMatchReference) {
  Rng rng(0x3a11abu);
  for (int round = 0; round < 30; ++round) {
    TransactionDb db;
    const auto size = static_cast<std::size_t>(rng.uniform_int(0, 120));
    for (std::size_t i = 0; i < size; ++i) {
      Transaction t;
      const auto items = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < items; ++k) {
        const auto subcat = static_cast<SubcategoryId>(rng.uniform_int(0, 9));
        t.push_back(rng.uniform_int(0, 3) == 0 ? label_item(subcat)
                                               : body_item(subcat));
      }
      db.add(std::move(t));
    }
    RuleOptions options;
    options.mining.min_support = 0.02 * static_cast<double>(round % 5);
    options.min_label_count = static_cast<std::size_t>(round % 4);
    options.min_rule_hits = static_cast<std::size_t>(round % 3);
    options.min_confidence = 0.05;
    const std::string mined = rule_bytes(mine_rules(db, options));
    for (const oracles::ReferenceMiner miner :
         {oracles::ReferenceMiner::kApriori,
          oracles::ReferenceMiner::kFpGrowth}) {
      EXPECT_EQ(mined,
                rule_bytes(oracles::reference_mine_rules(db, options, miner)))
          << "round " << round;
    }
  }
}

// The masked miners against the whole-database miners run on the
// materialized, label-stripped sub-database.
TEST(RuleTrainingEdgeTest, MaskedMinersMatchMaterializedSubDatabase) {
  Rng rng(0x5ab5e7u);
  for (int round = 0; round < 30; ++round) {
    TransactionDb db;
    DynamicBitset rows;
    std::vector<Transaction> selected;
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 150));
    for (std::size_t i = 0; i < size; ++i) {
      Transaction t;
      const auto items = rng.uniform_int(0, 7);
      for (std::int64_t k = 0; k < items; ++k) {
        const auto subcat = static_cast<SubcategoryId>(rng.uniform_int(0, 11));
        t.push_back(rng.uniform_int(0, 4) == 0 ? label_item(subcat)
                                               : body_item(subcat));
      }
      db.add(t);
      if (rng.uniform_int(0, 2) != 0) {
        rows.set(i);
        Transaction body;
        for (const Item item : db.row(db.size() - 1)) {
          if (!is_label(item)) {
            body.push_back(item);
          }
        }
        selected.push_back(std::move(body));
      }
    }
    TransactionDb sub;
    for (const Transaction& body : selected) {
      sub.add(body);
    }
    const auto min_count = static_cast<std::size_t>(rng.uniform_int(1, 6));
    MiningOptions options;
    options.max_itemset_size = static_cast<std::size_t>(rng.uniform_int(1, 4));
    // The relative support whose count floor is exactly min_count.
    options.min_support = sub.empty()
                              ? 0.0
                              : static_cast<double>(min_count) /
                                    static_cast<double>(sub.size());
    if (options.min_support > 1.0) {
      continue;
    }
    const auto expect_equal = [&](const FrequentSet& masked,
                                  const FrequentSet& materialized) {
      ASSERT_EQ(masked.size(), materialized.size()) << "round " << round;
      for (std::size_t i = 0; i < masked.size(); ++i) {
        EXPECT_EQ(masked.itemsets()[i].items,
                  materialized.itemsets()[i].items);
        EXPECT_EQ(masked.itemsets()[i].count,
                  materialized.itemsets()[i].count);
      }
    };
    expect_equal(
        apriori_bodies(db, rows, min_count, options.max_itemset_size),
        oracles::apriori_reference(sub, options));
    expect_equal(oracles::fpgrowth_bodies(db, rows, min_count,
                                          options.max_itemset_size),
                 oracles::fpgrowth(sub, options));
  }
}

// ---- streaming state checkpoint ----------------------------------------

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// A trained RulePredictor in mid-stream: live window entries and live
// debounce entries, one of them from a suppressed same-second repeat.
RulePredictor mid_stream_predictor() {
  std::vector<RasRecord> records;
  for (int k = 0; k < 30; ++k) {
    const TimePoint t = k * 1000;
    if (k % 2 == 0) {
      records.push_back(record(t, 3, false));
      records.push_back(record(t + 10, 4, false));
      records.push_back(record(t + 20, 9, true));
    } else {
      records.push_back(record(t, 5, false));
      records.push_back(record(t + 15, 6, false));
      records.push_back(record(t + 30, 8, true));
    }
    records.push_back(record(t + 500, 7, false));
  }
  PredictionConfig config;
  config.window = 120;
  RulePredictorOptions options;
  options.rule_generation_window = 60;
  options.negative_ratio = 1.0;
  options.rules.min_label_count = 1;
  options.rules.min_rule_hits = 1;
  RulePredictor predictor(config, options);
  predictor.train(LogView(log_of(records)));
  for (const RasRecord& rec :
       {record(100000, 3, false), record(100000, 4, false),
        record(100000, 3, false), record(100050, 5, false),
        record(100060, kUnclassified, false), record(100070, 9, true),
        record(100200, 7, false), record(100210, 6, false),
        record(100215, 5, false)}) {
    predictor.observe(rec);
  }
  return predictor;
}

// Pins the RULE checkpoint layout of a predictor in mid-stream, window
// and debounce entries included: the golden bytes were written by an
// earlier build and must not change, and save -> load -> save must
// reproduce them.
TEST(RulePredictorStateTest, MidStreamCheckpointMatchesGoldenBytes) {
  const std::string golden_hex =
      "52554c450000000000000000780000000000000042474c52554c453106000000"
      "000000000100000005000000010000000800000000000000d03f000000000000"
      "ee3f10000000000000000f000000000000000200000005000000060000000100"
      "00000800000000000000d03f000000000000ee3f10000000000000000f000000"
      "000000000100000003000000010000000900000000000000d03f3c3c3c3c3c3c"
      "ec3f11000000000000000f000000000000000200000003000000040000000100"
      "00000900000000000000d03f3c3c3c3c3c3cec3f11000000000000000f000000"
      "000000000100000004000000010000000900000000000000d03f3c3c3c3c3c3c"
      "ec3f11000000000000000f000000000000000100000006000000010000000800"
      "000000000000d03f3c3c3c3c3c3cec3f11000000000000000f00000000000000"
      "1e000000000000001e0000000000000000000000000000000300000000000000"
      "6887010000000000070000007287010000000000060000007787010000000000"
      "0500000003000000000000000000000000000000778701000000000002000000"
      "00000000a08601000000000005000000000000007287010000000000";
  const RulePredictor predictor = mid_stream_predictor();
  ASSERT_FALSE(predictor.rules().empty());
  const std::string saved = state_bytes(predictor);
  EXPECT_EQ(to_hex(saved), golden_hex);
  std::istringstream is(saved);
  PredictionConfig config;
  config.window = 120;
  RulePredictor restored(config);
  restored.load_state(is);
  EXPECT_EQ(to_hex(state_bytes(restored)), to_hex(saved));
}

}  // namespace
}  // namespace bglpred
