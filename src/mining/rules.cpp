#include "mining/rules.hpp"

#include <algorithm>
#include <map>

#include "common/binary.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "mining/apriori.hpp"
#include "mining/fpgrowth.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

std::string Rule::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += std::string(catalog().info(subcat_of(body[i])).name);
  }
  out += " ==> ";
  for (std::size_t i = 0; i < heads.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += std::string(catalog().info(heads[i]).name);
  }
  out += ": " + TextTable::num(confidence, 6);
  return out;
}

RuleSet::RuleSet(std::vector<Rule> rules) : rules_(std::move(rules)) {
  std::sort(rules_.begin(), rules_.end(), [](const Rule& a, const Rule& b) {
    if (a.confidence != b.confidence) {
      return a.confidence > b.confidence;
    }
    if (a.support != b.support) {
      return a.support > b.support;
    }
    return a.body < b.body;
  });
  // Matching index over the confidence order. Bodies that cannot be
  // encoded (items outside the fixed universe) and empty bodies (match
  // everything) go to the always-checked mask instead.
  bodies_.resize(rules_.size());
  rules_by_item_.resize(ItemBitset::kBits);
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    ItemBitset bits;
    if (rules_[r].body.empty() ||
        !try_encode_bitset(rules_[r].body, &bits)) {
      always_check_.set(r);
      continue;
    }
    bodies_[r] = bits;
    bits.for_each_set(
        [&](std::size_t bit) { rules_by_item_[bit].set(r); });
  }
}

// bgl:hot-begin(rule-matcher)
// Matching runs once per forwarded record in the online engine; the
// ~4500x over the naive scan (DESIGN §6) only holds while this stays
// bitset-AND + popcount (the candidate copy is a handful of words, and
// empty for rule sets with no always-checked bodies).
const Rule* RuleSet::match_candidates(const ItemBitset& observed,
                                      const Itemset* observed_items) const {
  // Candidates: rules sharing at least one item with the observed set
  // (any matching non-empty body must), plus the always-checked rules.
  DynamicBitset candidates = always_check_;
  observed.for_each_set([&](std::size_t bit) {
    candidates.or_with(rules_by_item_[bit]);
  });
  // Rule indices ascend in confidence order, so the first subset hit is
  // the best match.
  const Rule* found = nullptr;
  candidates.for_each_set([&](std::size_t r) {
    if (always_check_.test(r)) {
      const bool hit = observed_items != nullptr
                           ? is_subset(rules_[r].body, *observed_items)
                           : rules_[r].body.empty();
      if (!hit) {
        return false;
      }
    } else if (!bodies_[r].is_subset_of(observed)) {
      return false;
    }
    found = &rules_[r];
    return true;
  });
  return found;
}

const Rule* RuleSet::best_match(const Itemset& observed) const {
  ItemBitset bits;
  for (const Item item : observed) {
    const std::size_t bit = item_bit(item);
    if (bit != kNoItemBit) {
      bits.set(bit);
    }
  }
  // Unencodable observed items only matter to always-checked rules, which
  // get the full itemset for their naive subset test.
  return match_candidates(bits, &observed);
}

const Rule* RuleSet::best_match(const ItemBitset& observed) const {
  return match_candidates(observed, nullptr);
}
// bgl:hot-end

std::vector<Rule> generate_rules(const FrequentSet& frequent,
                                 std::size_t transaction_count,
                                 double min_confidence) {
  BGL_REQUIRE(transaction_count > 0 || frequent.size() == 0,
              "transaction count required for support computation");
  std::vector<Rule> rules;
  for (const FrequentItemset& f : frequent.itemsets()) {
    // Split into body and labels.
    Itemset body;
    std::vector<SubcategoryId> labels;
    for (Item item : f.items) {
      if (is_label(item)) {
        labels.push_back(subcat_of(item));
      } else {
        body.push_back(item);
      }
    }
    if (labels.size() != 1 || body.empty()) {
      continue;  // rule form is body -> single label at this stage
    }
    const std::size_t body_count = frequent.count_of(body);
    // Support monotonicity: a superset can never be more frequent than its
    // body. A violation here would emit confidence > 1 and silently skew
    // every downstream precision number, so it stays on in release.
    BGL_CHECK(body_count >= f.count,
              "itemset support exceeds its body's support");
    const double confidence =
        static_cast<double>(f.count) / static_cast<double>(body_count);
    if (confidence + 1e-12 < min_confidence) {
      continue;
    }
    Rule rule;
    rule.body = body;
    rule.heads = labels;
    rule.hit_count = f.count;
    rule.body_count = body_count;
    rule.support = static_cast<double>(f.count) /
                   static_cast<double>(transaction_count);
    rule.confidence = confidence;
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<Rule> combine_rules(std::vector<Rule> rules) {
  std::map<Itemset, Rule> by_body;
  for (Rule& rule : rules) {
    auto [it, inserted] = by_body.try_emplace(rule.body, rule);
    if (inserted) {
      continue;
    }
    Rule& merged = it->second;
    BGL_CHECK(merged.body_count == rule.body_count,
              "rules with identical bodies disagree on body support");
    merged.heads.insert(merged.heads.end(), rule.heads.begin(),
                        rule.heads.end());
    merged.hit_count += rule.hit_count;
    merged.support += rule.support;
    // Exact because each event-set carries exactly one label: the head
    // events are disjoint across transactions with this body.
    merged.confidence =
        std::min(1.0, merged.confidence + rule.confidence);
  }
  std::vector<Rule> out;
  out.reserve(by_body.size());
  for (auto& [body, rule] : by_body) {
    std::sort(rule.heads.begin(), rule.heads.end());
    rule.heads.erase(std::unique(rule.heads.begin(), rule.heads.end()),
                     rule.heads.end());
    out.push_back(std::move(rule));
  }
  return out;
}

namespace {

FrequentSet run_miner(const TransactionDb& db, const MiningOptions& options,
                      MiningAlgorithm algorithm) {
  return algorithm == MiningAlgorithm::kApriori ? apriori(db, options)
                                                : fpgrowth(db, options);
}

// Per-label mining: for each fatal label, mine frequent bodies among the
// transactions carrying that label (support relative to the label's
// count), then compute each rule's confidence against the *full*
// database so competing contexts still discount weak bodies.
//
// A label's class database is never copied out: the miners read the
// global database (its vertical index, for Apriori) through a row mask
// selecting the label's transactions, with label items hidden. And the
// min_rule_hits floor is pushed into the miners as an absolute count
// floor: support is anti-monotone, so an itemset below the floor has no
// superset above it, and the surviving rules are exactly the ones a
// mine-then-filter pass keeps — without mining the discarded lattice.
std::vector<Rule> mine_rules_per_label(const TransactionDb& db,
                                       const RuleOptions& options,
                                       MiningAlgorithm algorithm) {
  // Reserve one slot of the itemset budget for the label. mine_rules
  // rejects max_itemset_size == 0, so the subtract cannot wrap.
  const std::size_t max_body_size =
      std::max<std::size_t>(1, options.mining.max_itemset_size - 1);
  const VerticalIndex& index = db.vertical_index();
  std::vector<Rule> rules;
  // A transaction belongs to the class of its first (smallest) label
  // item, so a label's rows are its column minus the rows of smaller
  // labels. Event-sets carry one label each: there the rows are exactly
  // the label's column.
  DynamicBitset earlier_labels;
  for (std::size_t i = 0; i < index.items().size(); ++i) {
    const Item label = index.items()[i];
    if (!is_label(label)) {
      continue;
    }
    DynamicBitset rows = index.columns()[i];
    rows.and_not_with(earlier_labels);
    earlier_labels.or_with(index.columns()[i]);
    const std::size_t label_count = rows.count();
    if (label_count < options.min_label_count) {
      continue;
    }
    const std::size_t min_count =
        std::max(min_count_for(options.mining.min_support, label_count),
                 options.min_rule_hits);
    const FrequentSet frequent =
        algorithm == MiningAlgorithm::kApriori
            ? apriori_bodies(index, rows, min_count, max_body_size)
            : fpgrowth_bodies(db, rows, min_count, max_body_size);
    for (const FrequentItemset& f : frequent.itemsets()) {
      const std::size_t body_count = index.support(f.items);
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

RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options,
                   MiningAlgorithm algorithm) {
  // Guard the per-label "reserve one slot for the label" subtract below
  // against a std::size_t wrap (0 - 1 would turn the itemset budget into
  // SIZE_MAX and make low-support sweeps explode).
  BGL_REQUIRE(options.mining.max_itemset_size >= 1,
              "max itemset size must be >= 1");
  if (db.empty()) {
    return RuleSet{};
  }
  std::vector<Rule> rules;
  if (options.support_base == SupportBase::kPerLabel) {
    rules = mine_rules_per_label(db, options, algorithm);
  } else {
    const FrequentSet frequent = run_miner(db, options.mining, algorithm);
    rules = generate_rules(frequent, db.size(), options.min_confidence);
  }
  return RuleSet(combine_rules(std::move(rules)));
}

void save_rules(std::ostream& os, const RuleSet& rules) {
  wire::write_tag(os, "BGLRULE1");
  wire::write<std::uint64_t>(os, rules.size());
  for (const Rule& rule : rules.rules()) {
    wire::write<std::uint32_t>(os,
                               static_cast<std::uint32_t>(rule.body.size()));
    for (const Item item : rule.body) {
      wire::write<std::uint32_t>(os, item);
    }
    wire::write<std::uint32_t>(os,
                               static_cast<std::uint32_t>(rule.heads.size()));
    for (const SubcategoryId head : rule.heads) {
      wire::write<std::uint16_t>(os, head);
    }
    wire::write_double(os, rule.support);
    wire::write_double(os, rule.confidence);
    wire::write<std::uint64_t>(os, rule.body_count);
    wire::write<std::uint64_t>(os, rule.hit_count);
  }
}

RuleSet load_rules(std::istream& is) {
  wire::expect_tag(is, "BGLRULE1");
  const auto count = wire::read<std::uint64_t>(is, "rule count");
  // A rule body/head is bounded by the item universe; anything larger
  // means a corrupt stream, not a big model.
  constexpr std::uint32_t kMaxRuleItems = 1u << 16;
  std::vector<Rule> rules;
  rules.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Rule rule;
    const auto body_size = wire::read<std::uint32_t>(is, "rule body size");
    if (body_size > kMaxRuleItems) {
      throw ParseError("rule body implausibly large");
    }
    rule.body.reserve(body_size);
    for (std::uint32_t b = 0; b < body_size; ++b) {
      rule.body.push_back(wire::read<Item>(is, "rule body item"));
    }
    const auto head_size = wire::read<std::uint32_t>(is, "rule head size");
    if (head_size > kMaxRuleItems) {
      throw ParseError("rule head implausibly large");
    }
    rule.heads.reserve(head_size);
    for (std::uint32_t h = 0; h < head_size; ++h) {
      rule.heads.push_back(wire::read<SubcategoryId>(is, "rule head"));
    }
    rule.support = wire::read_double(is, "rule support");
    rule.confidence = wire::read_double(is, "rule confidence");
    rule.body_count = wire::read<std::uint64_t>(is, "rule body count");
    rule.hit_count = wire::read<std::uint64_t>(is, "rule hit count");
    rules.push_back(std::move(rule));
  }
  // The constructor re-sorts (stable on an already-sorted list) and
  // rebuilds the matching index.
  return RuleSet(std::move(rules));
}

}  // namespace bglpred
