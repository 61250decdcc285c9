#include "oracles/rule_training_oracle.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <span>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracles/fpgrowth_oracle.hpp"
#include "oracles/mining_oracles.hpp"
#include "predict/checkpoint.hpp"

namespace bglpred::oracles {

TransactionDb reference_extract_event_sets(const LogView& log,
                                           Duration window,
                                           EventSetStats* stats,
                                           double negative_ratio,
                                           std::uint64_t seed) {
  BGL_REQUIRE(window > 0, "rule generation window must be positive");
  BGL_REQUIRE(log.is_time_sorted(), "log must be time-sorted");
  EventSetStats local;
  TransactionDb db;

  const std::size_t n = log.size();
  std::size_t window_start = 0;  // first index with time > t - window
  for (std::size_t i = 0; i < n; ++i) {
    const RasRecord& rec = log[i];
    if (!rec.fatal()) {
      continue;
    }
    ++local.fatal_events;
    while (window_start < i &&
           log[window_start].time <= rec.time - window) {
      ++window_start;
    }
    Transaction t;
    for (std::size_t j = window_start; j < i; ++j) {
      const RasRecord& prior = log[j];
      if (!prior.fatal() && prior.subcategory != kUnclassified) {
        t.push_back(body_item(prior.subcategory));
      }
    }
    if (t.empty()) {
      ++local.without_precursors;
    } else {
      ++local.with_precursors;
    }
    BGL_REQUIRE(rec.subcategory != kUnclassified,
                "fatal record lacks a subcategory; run preprocess first");
    t.push_back(label_item(rec.subcategory));
    db.add(std::move(t));  // add() sorts and dedupes
  }
  // Negative windows: instants with no fatal event in the following
  // `window` seconds; their transactions are label-free.
  if (negative_ratio > 0.0 && n > 0) {
    std::vector<TimePoint> fatal_times;
    for (const RasRecord& rec : log) {
      if (rec.fatal()) {
        fatal_times.push_back(rec.time);
      }
    }
    const TimeSpan span{log.front().time, log.back().time + 1};
    const auto wanted = static_cast<std::size_t>(
        negative_ratio * static_cast<double>(local.fatal_events));
    Rng rng(seed ^ (n * 0x9e3779b97f4a7c15ULL));
    std::size_t made = 0;
    for (std::size_t attempt = 0; attempt < wanted * 8 && made < wanted;
         ++attempt) {
      const TimePoint t =
          span.begin + rng.uniform_int(0, span.length() - 1);
      // Reject if a fatal event falls in (t, t + window].
      const auto next = std::upper_bound(fatal_times.begin(),
                                         fatal_times.end(), t);
      if (next != fatal_times.end() && *next <= t + window) {
        continue;
      }
      // Collect non-fatal subcategories in (t - window, t].
      const auto lo = std::lower_bound(
          log.begin(), log.end(), t - window + 1,
          [](const RasRecord& rec, TimePoint time) {
            return rec.time < time;
          });
      const auto hi = std::upper_bound(
          log.begin(), log.end(), t,
          [](TimePoint time, const RasRecord& rec) {
            return time < rec.time;
          });
      Transaction neg;
      for (auto it = lo; it != hi; ++it) {
        if (!it->fatal() && it->subcategory != kUnclassified) {
          neg.push_back(body_item(it->subcategory));
        }
      }
      db.add(std::move(neg));  // label-free (possibly empty) transaction
      ++made;
    }
  }

  if (stats != nullptr) {
    *stats = local;
  }
  return db;
}

namespace {

FrequentSet run_miner(const TransactionDb& db, const MiningOptions& options,
                      ReferenceMiner miner) {
  return miner == ReferenceMiner::kApriori ? apriori_reference(db, options)
                                           : fpgrowth(db, options);
}

// Per-label mining: for each fatal label, mine frequent bodies among the
// transactions carrying that label (support relative to the label's
// count), then compute each rule's confidence against the *full*
// database so competing contexts still discount weak bodies.
std::vector<Rule> mine_rules_per_label(const TransactionDb& db,
                                       const RuleOptions& options,
                                       ReferenceMiner miner) {
  // Group transactions by their (single) label item.
  std::map<Item, std::vector<Transaction>> by_label;
  for (std::size_t r = 0; r < db.size(); ++r) {
    const std::span<const Item> t = db.row(r);
    for (Item item : t) {
      if (is_label(item)) {
        // Strip the label; the per-class sub-database holds bodies only.
        Transaction body;
        body.reserve(t.size() - 1);
        for (Item other : t) {
          if (!is_label(other)) {
            body.push_back(other);
          }
        }
        by_label[item].push_back(std::move(body));
        break;
      }
    }
  }

  std::vector<Rule> rules;
  for (const auto& [label, bodies] : by_label) {
    if (bodies.size() < options.min_label_count) {
      continue;
    }
    TransactionDb class_db;
    for (const Transaction& body : bodies) {
      class_db.add_sorted(body);
    }
    MiningOptions mining = options.mining;
    // Reserve one slot of the itemset budget for the label. mine_rules
    // rejects max_itemset_size == 0, so the subtract cannot wrap.
    mining.max_itemset_size =
        std::max<std::size_t>(1, mining.max_itemset_size - 1);
    const FrequentSet frequent = run_miner(class_db, mining, miner);
    for (const FrequentItemset& f : frequent.itemsets()) {
      if (f.items.empty() || f.count < options.min_rule_hits) {
        continue;
      }
      const std::size_t body_count = db.absolute_support(f.items);
      BGL_CHECK(body_count >= f.count,
                "class-conditional support exceeds global body support");
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(body_count);
      if (confidence + 1e-12 < options.min_confidence) {
        continue;
      }
      Rule rule;
      rule.body = f.items;
      rule.heads = {subcat_of(label)};
      rule.hit_count = f.count;
      rule.body_count = body_count;
      rule.support =
          static_cast<double>(f.count) / static_cast<double>(db.size());
      rule.confidence = confidence;
      rules.push_back(std::move(rule));
    }
  }
  return rules;
}

}  // namespace

RuleSet reference_mine_rules(const TransactionDb& db,
                             const RuleOptions& options,
                             ReferenceMiner miner) {
  BGL_REQUIRE(options.mining.max_itemset_size >= 1,
              "max itemset size must be >= 1");
  if (db.empty()) {
    return RuleSet{};
  }
  std::vector<Rule> rules;
  if (options.support_base == SupportBase::kPerLabel) {
    rules = mine_rules_per_label(db, options, miner);
  } else {
    const FrequentSet frequent = run_miner(db, options.mining, miner);
    rules = generate_rules(frequent, db.size(), options.min_confidence);
  }
  return RuleSet(combine_rules(std::move(rules)));
}

void ReferenceRulePredictor::train(const LogView& training) {
  const TransactionDb db = reference_extract_event_sets(
      training, options_.rule_generation_window, &training_stats_,
      options_.negative_ratio);
  rules_ = reference_mine_rules(db, options_.rules, miner_);
}

std::optional<Warning> ReferenceRulePredictor::observe(
    const RasRecord& /*rec*/) {
  throw InvalidArgument("the reference rule predictor only trains");
}

void ReferenceRulePredictor::save_state(std::ostream& os) const {
  detail::write_checkpoint_header(os, "RULE", config_);
  save_rules(os, rules_);
  wire::write<std::uint64_t>(os, training_stats_.fatal_events);
  wire::write<std::uint64_t>(os, training_stats_.with_precursors);
  wire::write<std::uint64_t>(os, training_stats_.without_precursors);
  wire::write<std::uint64_t>(os, 0);  // sliding window: empty
  wire::write<std::uint64_t>(os, 0);  // debounce entries: none
}

}  // namespace bglpred::oracles
