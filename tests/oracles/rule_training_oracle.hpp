// Reference rule trainer: event-set extraction and per-label rule mining
// as first written — a rescan of every positive window, per-record
// binary searches over the view for negative windows, and one copied
// class database per label, mined in full by one of the oracle miners
// (textbook horizontal-counting Apriori or FP-Growth) and filtered
// afterwards by min_rule_hits. The product trainer (extract_event_sets +
// mine_rules) must reproduce its rule sets byte for byte and its
// EventSetStats exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "predict/rule_predictor.hpp"

namespace bglpred::oracles {

/// Reference for extract_event_sets() (same arguments and output).
TransactionDb reference_extract_event_sets(const LogView& log,
                                           Duration window,
                                           EventSetStats* stats = nullptr,
                                           double negative_ratio = 0.0,
                                           std::uint64_t seed = 0x5eed);

/// The frequent-itemset oracle a reference trainer mines with.
enum class ReferenceMiner { kApriori, kFpGrowth };

/// Reference for mine_rules() (same output).
RuleSet reference_mine_rules(
    const TransactionDb& db, const RuleOptions& options,
    ReferenceMiner miner = ReferenceMiner::kApriori);

/// A RulePredictor whose train() runs the reference trainer. It only
/// trains and saves: save_state() writes the blob a freshly trained
/// RulePredictor writes (no window, no debounce entries), so the two
/// compare byte for byte, also as a MetaLearner base.
class ReferenceRulePredictor final : public BasePredictor {
 public:
  ReferenceRulePredictor(const PredictionConfig& config,
                         const RulePredictorOptions& options = {},
                         ReferenceMiner miner = ReferenceMiner::kApriori)
      : config_(config), options_(options), miner_(miner) {}

  std::string name() const override { return "rule"; }
  void train(const LogView& training) override;
  void reset() override {}
  std::optional<Warning> observe(const RasRecord& rec) override;

  void save_state(std::ostream& os) const override;

  const RuleSet& rules() const { return rules_; }
  const EventSetStats& training_stats() const { return training_stats_; }

 private:
  PredictionConfig config_;
  RulePredictorOptions options_;
  ReferenceMiner miner_;
  RuleSet rules_;
  EventSetStats training_stats_;
};

}  // namespace bglpred::oracles
