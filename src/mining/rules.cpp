#include "mining/rules.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <numeric>
#include <span>

#include "common/binary.hpp"
#include "common/check.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "mining/apriori.hpp"
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
  // Matching index over the confidence order. Encoding checks every body
  // item against the universe, so matching never meets one outside it.
  const std::size_t n = rules_.size();
  mask_words_ = (n + 63) / 64;
  bodies_.resize(n);
  rules_by_item_.assign((ItemBitset::kBits + 1) * mask_words_, 0);
  for (std::size_t r = 0; r < n; ++r) {
    bodies_[r] = encode_bitset(rules_[r].body);
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    if (!bodies_[r].any()) {
      rules_by_item_[ItemBitset::kBits * mask_words_ + r / 64] |= bit;
      continue;
    }
    bodies_[r].for_each_set([&](std::size_t item) {
      rules_by_item_[item * mask_words_ + r / 64] |= bit;
      indexed_.set(item);
    });
  }
}

// bgl:hot-begin(rule-matcher)
// Matching runs once per forwarded record in the online engine, so it
// stays word ops over the flat index: the rows of the observed items are
// gathered on the stack, and each word of candidate rules is their OR
// (plus the empty-body row), walked in confidence order.
const Rule* RuleSet::best_match(const ItemBitset& observed) const {
  if (rules_.empty()) {
    return nullptr;
  }
  std::array<const std::uint64_t*, ItemBitset::kBits + 1> rows;
  std::size_t live = 0;
  rows[live++] = &rules_by_item_[ItemBitset::kBits * mask_words_];
  (observed & indexed_).for_each_set([&](std::size_t bit) {
    rows[live++] = &rules_by_item_[bit * mask_words_];
  });
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t candidates = 0;
    for (std::size_t i = 0; i < live; ++i) {
      candidates |= rows[i][w];
    }
    // Rule indices ascend in confidence order, so the first subset hit is
    // the best match.
    while (candidates != 0) {
      const std::size_t r =
          w * 64 + static_cast<std::size_t>(std::countr_zero(candidates));
      if (bodies_[r].is_subset_of(observed)) {
        return &rules_[r];
      }
      candidates &= candidates - 1;
    }
  }
  return nullptr;
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

// Exact body supports for one training database, each distinct body
// counted once: an open-addressing table from body bits to the body's
// absolute support. A body whose count was cut short (it provably fails
// the confidence bar) is never stored.
class SupportMemo {
 public:
  const std::size_t* find(const ItemBitset& body) const {
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = hash(body) & mask();; i = (i + 1) & mask()) {
      const Slot& slot = slots_[i];
      if (!slot.used) {
        return nullptr;
      }
      if (slot.body == body) {
        return &slot.count;
      }
    }
  }

  void insert(const ItemBitset& body, std::size_t count) {
    if ((used_ + 1) * 2 > slots_.size()) {
      grow();
    }
    std::size_t i = hash(body) & mask();
    while (slots_[i].used) {
      i = (i + 1) & mask();
    }
    slots_[i] = Slot{body, count, true};
    ++used_;
  }

 private:
  struct Slot {
    ItemBitset body;
    std::size_t count = 0;
    bool used = false;
  };

  static std::size_t hash(const ItemBitset& body) {
    std::uint64_t h = 0;
    for (std::size_t w = 0; w < ItemBitset::kWords; ++w) {
      h = (h ^ body.word(w)) * 0x9e3779b97f4a7c15ULL;
    }
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    used_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) {
        insert(slot.body, slot.count);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

// The smallest body count at which a body co-occurring `hits` times with
// its label fails the confidence bar (confidence + 1e-12 < min), but at
// least `hits`; SIZE_MAX if no count fails it. The bar's test is
// monotone in the count, so a partial count that reaches this value
// proves the full one fails, and, being at least `hits`, that it is no
// smaller than the hit count.
std::size_t confidence_cutoff(std::size_t hits, double min_confidence) {
  if (min_confidence <= 1e-12) {
    return SIZE_MAX;
  }
  const double boundary =
      static_cast<double>(hits) / (min_confidence - 1e-12);
  if (!(boundary < 1e15)) {
    return SIZE_MAX;
  }
  const auto fails = [&](std::size_t count) {
    return static_cast<double>(hits) / static_cast<double>(count) + 1e-12 <
           min_confidence;
  };
  std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(boundary));
  while (count > 1 && fails(count - 1)) {
    --count;
  }
  while (!fails(count)) {
    ++count;
  }
  return std::max(count, hits);
}

// Per-label mining: for each fatal label, mine frequent bodies among the
// transactions carrying that label (support relative to the label's
// count), then compute each rule's confidence against the *full*
// database so competing contexts still discount weak bodies.
//
// A label's class database is never copied out: the miner reads the
// label's own rows of the global database, with label items hidden, into
// tidsets compacted to those rows. The min_rule_hits floor is pushed
// into the miner as an absolute count floor: support is anti-monotone,
// so an itemset below the floor has no superset above it, and the
// surviving rules are exactly the ones a mine-then-filter pass keeps.
// Body supports are counted once per distinct body across labels, and a
// count stops as soon as it proves the rule's confidence too low.
std::vector<Rule> mine_rules_per_label(const TransactionDb& db,
                                       const RuleOptions& options) {
  // Reserve one slot of the itemset budget for the label. mine_rules
  // rejects max_itemset_size == 0, so the subtract cannot wrap.
  const std::size_t max_body_size =
      std::max<std::size_t>(1, options.mining.max_itemset_size - 1);
  // A transaction belongs to the class of its first (smallest) label
  // item. Group the rows by that label's bit, ascending within a label:
  // a counting sort, rows_by_label[first[b], first[b + 1]) for bit b.
  std::vector<std::uint16_t> class_of(db.size(), 0);
  std::array<std::uint32_t, ItemBitset::kBits + 1> first{};
  for (std::size_t r = 0; r < db.size(); ++r) {
    for (const Item item : db.row(r)) {
      if (is_label(item)) {
        class_of[r] = static_cast<std::uint16_t>(item_bit(item));
        ++first[class_of[r] + 1];
        break;
      }
    }
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> rows_by_label(first.back());
  {
    std::array<std::uint32_t, ItemBitset::kBits + 1> next = first;
    for (std::size_t r = 0; r < db.size(); ++r) {
      if (class_of[r] != 0) {
        rows_by_label[next[class_of[r]]++] = static_cast<std::uint32_t>(r);
      }
    }
  }
  const VerticalIndex& index = db.vertical_index();
  ItemsetMiner miner;
  SupportMemo supports;
  std::vector<FrequentBits> bodies;
  std::vector<Rule> rules;
  for (std::size_t bit = kItemBodyBits; bit < ItemBitset::kBits; ++bit) {
    const std::span<const std::uint32_t> rows(
        rows_by_label.data() + first[bit], first[bit + 1] - first[bit]);
    if (rows.empty() || rows.size() < options.min_label_count) {
      continue;
    }
    const std::size_t min_count =
        std::max(min_count_for(options.mining.min_support, rows.size()),
                 options.min_rule_hits);
    bodies.clear();
    miner.mine(db, rows, /*bodies_only=*/true, min_count, max_body_size,
               bodies);
    for (const FrequentBits& f : bodies) {
      std::size_t body_count = 0;
      if (const std::size_t* known = supports.find(f.items)) {
        body_count = *known;
      } else {
        const std::size_t cutoff =
            confidence_cutoff(f.count, options.min_confidence);
        body_count = index.support(f.items, cutoff);
        if (body_count >= cutoff) {
          continue;  // the confidence bar fails; the count is partial
        }
        supports.insert(f.items, body_count);
      }
      BGL_CHECK(body_count >= f.count,
                "class-conditional support exceeds global body support");
      const double confidence = static_cast<double>(f.count) /
                                static_cast<double>(body_count);
      if (confidence + 1e-12 < options.min_confidence) {
        continue;
      }
      Rule rule;
      rule.body = decode_bitset(f.items);
      rule.heads = {subcat_of(bit_item(bit))};
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

RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options) {
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
    rules = mine_rules_per_label(db, options);
  } else {
    const FrequentSet frequent = apriori(db, options.mining);
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
      if (!in_universe(rule.body.back())) {
        throw ParseError("rule body item outside the item universe");
      }
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
