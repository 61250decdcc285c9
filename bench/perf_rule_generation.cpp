// google-benchmark for the §3.3 cost claim: "the rule generation process
// varies from 35 seconds for a 5-minute prediction window to 167 seconds
// for a 1-hour prediction window; the rule matching process is trivial.
// Therefore it is practical to deploy the meta-learner as an online
// prediction engine."
//
// We measure end-to-end rule generation (event-set extraction + mining +
// combination) as the window sweeps 5..60 minutes, plus single-event
// match latency. Absolute times are hardware-dependent (2007 testbed vs
// now); the claim to reproduce is the ~5x growth across the sweep and
// matching being orders of magnitude cheaper.
//
// Generation and extraction run exactly as RulePredictor::train does,
// with the RulePredictorOptions defaults — negative windows included,
// which are the bulk of the transactions. BM_RuleTrainFold times one
// RulePredictor::train on a full-scale ANL and SDSC cross-validation
// fold, the unit of work the Figure 4/5 grid repeats 600 times per log
// pair; BM_MineRulesFold times its mining half alone (mine_rules on the
// fold's pre-extracted event sets), and BM_ReplayFold one trained
// predictor observing the fold's test records, the replay every fold
// evaluation runs.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "mining/event_sets.hpp"
#include "predict/rule_predictor.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

constexpr double kScale = 0.3;

void BM_RuleGeneration(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const PreparedLog& prepared = prepared_log("ANL", kScale);
  const RulePredictorOptions options;
  std::size_t rules = 0;
  for (auto _ : state) {
    const TransactionDb db = extract_event_sets(
        prepared.log, window, nullptr, options.negative_ratio);
    const RuleSet set = mine_rules(db, options.rules);
    rules = set.size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
}

// Extraction alone, to attribute the end-to-end split between event-set
// construction and mining.
void BM_EventSetExtraction(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const PreparedLog& prepared = prepared_log("ANL", kScale);
  const RulePredictorOptions options;
  std::size_t sets = 0;
  for (auto _ : state) {
    const TransactionDb db = extract_event_sets(
        prepared.log, window, nullptr, options.negative_ratio);
    sets = db.size();
    benchmark::DoNotOptimize(sets);
  }
  state.counters["event_sets"] = static_cast<double>(sets);
}

// One full-scale cross-validation fold: train a fresh RulePredictor on
// the first fold's training view (the other nine tenths) with the
// profile's rule generation window (15 minutes for ANL, 25 for SDSC).
// The grid trains on both logs in equal numbers, so both get a row.
void BM_RuleTrainFold(benchmark::State& state, const char* profile) {
  const PreparedLog& prepared = prepared_log(profile, 1.0);
  const RasLog& log = prepared.log;
  const LogView training = LogView::excluding(log, 0, log.size() / 10);
  const ThreePhaseOptions options = paper_options(profile, 30 * kMinute);
  std::size_t rules = 0;
  for (auto _ : state) {
    RulePredictor predictor(options.prediction, options.rule);
    predictor.train(training);
    rules = predictor.rules().size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["training_records"] = static_cast<double>(training.size());
}

// mine_rules on the event-set database of the same full-scale fold as
// BM_RuleTrainFold, extracted once outside the timed loop.
void BM_MineRulesFold(benchmark::State& state, const char* profile) {
  const PreparedLog& prepared = prepared_log(profile, 1.0);
  const RasLog& log = prepared.log;
  const LogView training = LogView::excluding(log, 0, log.size() / 10);
  const ThreePhaseOptions options = paper_options(profile, 30 * kMinute);
  const TransactionDb db =
      extract_event_sets(training, options.rule.rule_generation_window,
                         nullptr, options.rule.negative_ratio);
  std::size_t rules = 0;
  for (auto _ : state) {
    const RuleSet set = mine_rules(db, options.rule.rules);
    rules = set.size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["event_sets"] = static_cast<double>(db.size());
}

// One trained predictor (the BM_RuleTrainFold fold, 30-minute prediction
// window) replaying its full-scale test fold: reset, then observe every
// test record, as a fold evaluation does.
void BM_ReplayFold(benchmark::State& state, const char* profile) {
  const PreparedLog& prepared = prepared_log(profile, 1.0);
  const RasLog& log = prepared.log;
  const std::size_t fold_end = log.size() / 10;
  const ThreePhaseOptions options = paper_options(profile, 30 * kMinute);
  RulePredictor predictor(options.prediction, options.rule);
  predictor.train(LogView::excluding(log, 0, fold_end));
  std::size_t warnings = 0;
  for (auto _ : state) {
    predictor.reset();
    warnings = 0;
    for (std::size_t i = 0; i < fold_end; ++i) {
      warnings += predictor.observe(log.records()[i]).has_value();
    }
    benchmark::DoNotOptimize(warnings);
  }
  state.counters["warnings"] = static_cast<double>(warnings);
  state.counters["test_records"] = static_cast<double>(fold_end);
  state.counters["rules"] = static_cast<double>(predictor.rules().size());
}

void BM_RuleMatching(benchmark::State& state) {
  const PreparedLog& prepared = prepared_log("ANL", kScale);
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(prepared.log);
  predictor.reset();
  // Replay a slice of the log through the trained matcher.
  const auto& records = prepared.log.records();
  std::size_t i = 0;
  std::size_t warnings = 0;
  for (auto _ : state) {
    const auto w = predictor.observe(records[i % records.size()]);
    warnings += w.has_value();
    benchmark::DoNotOptimize(warnings);
    ++i;
  }
  state.counters["warnings"] = static_cast<double>(warnings);
}

}  // namespace

BENCHMARK(BM_RuleGeneration)
    ->Arg(5)
    ->Arg(15)
    ->Arg(30)
    ->Arg(45)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventSetExtraction)
    ->Arg(5)
    ->Arg(30)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RuleTrainFold, ANL, "ANL")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RuleTrainFold, SDSC, "SDSC")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MineRulesFold, ANL, "ANL")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MineRulesFold, SDSC, "SDSC")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ReplayFold, ANL, "ANL")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RuleMatching)->Unit(benchmark::kMicrosecond);

BGL_BENCH_MAIN("perf_rule_generation")
