// Rule-based base predictor (§3.2.2).
//
// Training extracts event-sets with the *rule generation window*, mines
// association rules (Apriori's frequent sets), merges equal-body rules,
// and sorts by confidence. At test time a sliding window of the last
// `prediction window` seconds of non-fatal events is matched against
// rule bodies; the highest-confidence matching rule emits a warning. A rule is debounced
// while its previous warning interval is still open, so a persisting
// body does not spray duplicate warnings.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitset.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "predict/predictor.hpp"

namespace bglpred {

/// Tunables for the rule-based predictor.
struct RulePredictorOptions {
  /// Rule generation window used during training (paper: 15 min for ANL,
  /// 25 min for SDSC, selected by sweep — see bench/ablation_rulegen_window).
  Duration rule_generation_window = 15 * kMinute;
  RuleOptions rules;  ///< support/confidence thresholds
  /// Negative windows per fatal event added to the training transactions
  /// (see extract_event_sets): calibrates rule confidences to
  /// P(failure | body), pruning coincidental chatter bodies.
  double negative_ratio = 4.0;
};

/// See file comment.
class RulePredictor final : public BasePredictor {
 public:
  RulePredictor(const PredictionConfig& config,
                const RulePredictorOptions& options = {});

  std::string name() const override { return "rule"; }
  void train(const LogView& training) override;
  void reset() override;
  std::optional<Warning> observe(const RasRecord& rec) override;

  bool checkpointable() const override { return true; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// The mined (combined, sorted) rules. Valid after train().
  const RuleSet& rules() const { return rules_; }

  /// Event-set statistics from the last train() call.
  const EventSetStats& training_stats() const { return training_stats_; }

 private:
  PredictionConfig config_;
  RulePredictorOptions options_;
  RuleSet rules_;
  EventSetStats training_stats_;

  // Streaming test state. The window's distinct-item set is maintained
  // incrementally: per-item occurrence counts plus a live ItemBitset
  // updated on insert/evict, so each observe() is a handful of word ops
  // instead of a rebuild + sort of the window's itemset. The window is a
  // vector read from window_head_ on, compacted in place, so a steady
  // stream reuses its storage; records outside the catalog never enter
  // it (no rule body can hold them).
  std::vector<std::pair<TimePoint, Item>> window_;  // non-fatal items
  std::size_t window_head_ = 0;                     // first live entry
  std::array<std::uint32_t, ItemBitset::kBits> item_counts_{};  // by bit
  ItemBitset live_items_;  // bits with count > 0
  // Debounce: the time each rule (by confidence-order index) last fired,
  // kNeverFired if it has not.
  std::vector<TimePoint> last_fired_;

  void add_item(Item item);
  void remove_item(Item item);
};

}  // namespace bglpred
