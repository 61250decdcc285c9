// google-benchmark: the product's depth-first Apriori against the
// FP-Growth and textbook-Apriori oracles (tests/oracles) on event-set
// databases extracted from the calibrated ANL log — identical outputs,
// different asymptotics at low support.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "mining/apriori.hpp"
#include "mining/event_sets.hpp"
#include "oracles/fpgrowth_oracle.hpp"
#include "oracles/mining_oracles.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

const TransactionDb& anl_event_sets(Duration window) {
  static std::map<Duration, TransactionDb> cache;
  auto it = cache.find(window);
  if (it == cache.end()) {
    const PreparedLog& prepared = prepared_log("ANL", 0.3);
    it = cache
             .emplace(window,
                      extract_event_sets(prepared.log, window, nullptr))
             .first;
  }
  return it->second;
}

void BM_Apriori(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const double support = static_cast<double>(state.range(1)) / 1000.0;
  const TransactionDb& db = anl_event_sets(window);
  MiningOptions options;
  options.min_support = support;
  std::size_t found = 0;
  for (auto _ : state) {
    const FrequentSet result = apriori(db, options);
    found = result.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["transactions"] = static_cast<double>(db.size());
  state.counters["frequent"] = static_cast<double>(found);
}

// The pre-vertical-index horizontal counting path, kept as a live
// baseline so a single run shows the tidset-intersection speedup.
void BM_AprioriReference(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const double support = static_cast<double>(state.range(1)) / 1000.0;
  const TransactionDb& db = anl_event_sets(window);
  MiningOptions options;
  options.min_support = support;
  std::size_t found = 0;
  for (auto _ : state) {
    const FrequentSet result = oracles::apriori_reference(db, options);
    found = result.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["transactions"] = static_cast<double>(db.size());
  state.counters["frequent"] = static_cast<double>(found);
}

void BM_FpGrowth(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const double support = static_cast<double>(state.range(1)) / 1000.0;
  const TransactionDb& db = anl_event_sets(window);
  MiningOptions options;
  options.min_support = support;
  std::size_t found = 0;
  for (auto _ : state) {
    const FrequentSet result = oracles::fpgrowth(db, options);
    found = result.size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["transactions"] = static_cast<double>(db.size());
  state.counters["frequent"] = static_cast<double>(found);
}

}  // namespace

// Args: {rule-gen window minutes, min support x1000}.
BENCHMARK(BM_Apriori)
    ->Args({15, 40})
    ->Args({15, 20})
    ->Args({15, 10})
    ->Args({60, 40})
    ->Args({60, 10})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AprioriReference)
    ->Args({15, 10})
    ->Args({60, 10})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FpGrowth)
    ->Args({15, 40})
    ->Args({15, 20})
    ->Args({15, 10})
    ->Args({60, 40})
    ->Args({60, 10})
    ->Unit(benchmark::kMillisecond);

BGL_BENCH_MAIN("perf_mining")
