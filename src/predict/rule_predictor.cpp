#include "predict/rule_predictor.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/error.hpp"
#include "predict/checkpoint.hpp"

namespace bglpred {

RulePredictor::RulePredictor(const PredictionConfig& config,
                             const RulePredictorOptions& options)
    : config_(config), options_(options) {
  BGL_REQUIRE(config.window > config.lead,
              "prediction window must exceed the lead time");
  BGL_REQUIRE(options.rule_generation_window > 0,
              "rule generation window must be positive");
}

namespace {

// last_fired_ value of a rule that has not fired. No record carries this
// time: the window arithmetic (time - window) would overflow on it.
constexpr TimePoint kNeverFired = std::numeric_limits<TimePoint>::min();

}  // namespace

void RulePredictor::train(const LogView& training) {
  const TransactionDb db = extract_event_sets(
      training, options_.rule_generation_window, &training_stats_,
      options_.negative_ratio);
  rules_ = mine_rules(db, options_.rules);
  reset();
}

void RulePredictor::reset() {
  window_.clear();
  window_head_ = 0;
  item_counts_.fill(0);
  live_items_.reset();
  last_fired_.assign(rules_.size(), kNeverFired);
}

void RulePredictor::add_item(Item item) {
  const std::size_t bit = item_bit(item);
  if (item_counts_[bit]++ == 0) {
    live_items_.set(bit);
  }
}

void RulePredictor::remove_item(Item item) {
  const std::size_t bit = item_bit(item);
  BGL_CHECK(item_counts_[bit] > 0,
            "evicting an item the window never counted");
  if (--item_counts_[bit] == 0) {
    live_items_.clear(bit);
  }
}

void RulePredictor::save_state(std::ostream& os) const {
  detail::write_checkpoint_header(os, "RULE", config_);
  save_rules(os, rules_);
  wire::write<std::uint64_t>(os, training_stats_.fatal_events);
  wire::write<std::uint64_t>(os, training_stats_.with_precursors);
  wire::write<std::uint64_t>(os, training_stats_.without_precursors);
  wire::write<std::uint64_t>(os, window_.size() - window_head_);
  for (std::size_t i = window_head_; i < window_.size(); ++i) {
    wire::write<std::int64_t>(os, window_[i].first);
    wire::write<std::uint32_t>(os, window_[i].second);
  }
  // Debounce entries as (rule index in the confidence order, time), in
  // index order: stable across save/load.
  const auto fired = static_cast<std::uint64_t>(
      std::count_if(last_fired_.begin(), last_fired_.end(),
                    [](TimePoint t) { return t != kNeverFired; }));
  wire::write<std::uint64_t>(os, fired);
  for (std::size_t r = 0; r < last_fired_.size(); ++r) {
    if (last_fired_[r] != kNeverFired) {
      wire::write<std::uint64_t>(os, r);
      wire::write<std::int64_t>(os, last_fired_[r]);
    }
  }
}

void RulePredictor::load_state(std::istream& is) {
  detail::read_checkpoint_header(is, "RULE", config_);
  rules_ = load_rules(is);
  training_stats_.fatal_events =
      wire::read<std::uint64_t>(is, "fatal event count");
  training_stats_.with_precursors =
      wire::read<std::uint64_t>(is, "precursor count");
  training_stats_.without_precursors =
      wire::read<std::uint64_t>(is, "no-precursor count");
  reset();
  const auto window_size = wire::read<std::uint64_t>(is, "window size");
  for (std::uint64_t i = 0; i < window_size; ++i) {
    const auto time = wire::read<std::int64_t>(is, "window entry time");
    const auto item = wire::read<std::uint32_t>(is, "window entry item");
    if (!in_universe(item)) {
      throw ParseError("window entry item outside the item universe");
    }
    window_.emplace_back(static_cast<TimePoint>(time),
                         static_cast<Item>(item));
    // Replaying the inserts rebuilds item_counts_/live_items_ exactly as
    // the live engine maintained them.
    add_item(window_.back().second);
  }
  const auto debounce_size = wire::read<std::uint64_t>(is, "debounce size");
  for (std::uint64_t i = 0; i < debounce_size; ++i) {
    const auto index = wire::read<std::uint64_t>(is, "debounce rule index");
    const auto time = wire::read<std::int64_t>(is, "debounce time");
    if (index >= rules_.size()) {
      throw ParseError("debounce entry references a rule out of range");
    }
    last_fired_[index] = static_cast<TimePoint>(time);
  }
}

// bgl:hot-begin(rule-matcher)
std::optional<Warning> RulePredictor::observe(const RasRecord& rec) {
  // Evict items older than the prediction window.
  while (window_head_ < window_.size() &&
         window_[window_head_].first <= rec.time - config_.window) {
    remove_item(window_[window_head_].second);
    ++window_head_;
  }
  if (window_head_ == window_.size()) {
    window_.clear();  // keeps the capacity
    window_head_ = 0;
  } else if (window_head_ >= 64 && 2 * window_head_ >= window_.size()) {
    // More dead entries than live ones: slide the live ones down.
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(window_head_));
    window_head_ = 0;
  }
  if (rec.fatal() || !in_catalog(rec.subcategory)) {
    return std::nullopt;  // unclassified records carry no item
  }
  window_.emplace_back(rec.time, body_item(rec.subcategory));
  add_item(window_.back().second);

  const Rule* rule = rules_.best_match(live_items_);
  if (rule == nullptr) {
    return std::nullopt;
  }
  // A confidence outside [0, 1] means the miner's support bookkeeping
  // broke; issuing such a warning would poison the evaluator's averages.
  BGL_CHECK(rule->confidence >= 0.0 && rule->confidence <= 1.0,
            "matched rule carries an out-of-range confidence");
  // Every match (re-)fires: rule warnings are level-triggered, and the
  // evaluator merges overlapping same-source warnings into one episode,
  // so a persisting precursor body is a single continuing prediction
  // rather than a train of expiring false alarms. We only suppress exact
  // same-second duplicates of the same rule to bound the warning volume.
  TimePoint& last = last_fired_[static_cast<std::size_t>(
      rule - rules_.rules().data())];
  if (last == rec.time) {
    return std::nullopt;
  }
  last = rec.time;

  Warning w;
  w.issued_at = rec.time;
  w.window_begin = rec.time + config_.lead + 1;
  w.window_end = rec.time + config_.window;
  w.confidence = rule->confidence;
  w.source = name();
  w.mergeable = true;
  return w;
}
// bgl:hot-end

}  // namespace bglpred
