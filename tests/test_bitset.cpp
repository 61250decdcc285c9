// Tests for the bitset substrate behind the mining/matching fast paths:
// ItemBitset / DynamicBitset units, the closed item universe and its
// dense encoding, and randomized differential checks pinning every fast
// path to its retained naive reference (vertical support counting, the
// depth-first miner, the flat rule matcher).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mining/apriori.hpp"
#include "mining/items.hpp"
#include "mining/rules.hpp"
#include "mining/transaction.hpp"
#include "oracles/fpgrowth_oracle.hpp"
#include "oracles/mining_oracles.hpp"

namespace bglpred {
namespace {

// ---- ItemBitset -------------------------------------------------------

TEST(ItemBitsetTest, SetTestClearCount) {
  ItemBitset bits;
  EXPECT_FALSE(bits.any());
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(ItemBitset::kBits - 1);
  EXPECT_TRUE(bits.any());
  EXPECT_EQ(bits.count(), 4u);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(ItemBitset::kBits - 1));
  EXPECT_FALSE(bits.test(1));
  bits.clear(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset();
  EXPECT_FALSE(bits.any());
}

TEST(ItemBitsetTest, OutOfRangeBitThrows) {
  ItemBitset bits;
  EXPECT_THROW(bits.set(ItemBitset::kBits), ContractViolation);
  EXPECT_THROW(bits.test(ItemBitset::kBits), ContractViolation);
}

TEST(ItemBitsetTest, SubsetAcrossWordBoundaries) {
  ItemBitset small;
  ItemBitset big;
  for (std::size_t bit : {3u, 64u, 130u, 255u}) {
    big.set(bit);
  }
  EXPECT_TRUE(small.is_subset_of(big));  // empty set
  small.set(64);
  small.set(255);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  small.set(65);
  EXPECT_FALSE(small.is_subset_of(big));
}

TEST(ItemBitsetTest, ForEachSetAscending) {
  ItemBitset bits;
  const std::vector<std::size_t> expected = {0, 5, 63, 64, 127, 128, 254};
  for (std::size_t bit : expected) {
    bits.set(bit);
  }
  std::vector<std::size_t> seen;
  bits.for_each_set([&](std::size_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, expected);
}

// ---- DynamicBitset ----------------------------------------------------

TEST(DynamicBitsetTest, GrowsOnSetAndCounts) {
  DynamicBitset bits;
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_FALSE(bits.test(1000));  // out of width == unset
  bits.set(3);
  bits.set(200);
  EXPECT_TRUE(bits.test(3));
  EXPECT_TRUE(bits.test(200));
  EXPECT_FALSE(bits.test(4));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(DynamicBitsetTest, AndOperationsClampWidth) {
  DynamicBitset a;
  DynamicBitset b;
  a.set(1);
  a.set(70);
  a.set(500);  // beyond b's width; must not survive an AND
  b.set(1);
  b.set(70);
  b.set(90);
  EXPECT_EQ(DynamicBitset::and_count(a, b), 2u);
  EXPECT_EQ(DynamicBitset::and_count(b, a), 2u);
  const DynamicBitset both = DynamicBitset::and_of(a, b);
  EXPECT_TRUE(both.test(1));
  EXPECT_TRUE(both.test(70));
  EXPECT_FALSE(both.test(500));
  a.and_with(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(500));
}

TEST(DynamicBitsetTest, OrWithGrowsAndForEachStops) {
  DynamicBitset a;
  DynamicBitset b;
  a.set(2);
  b.set(300);
  a.or_with(b);
  EXPECT_TRUE(a.test(2));
  EXPECT_TRUE(a.test(300));
  std::vector<std::size_t> seen;
  a.for_each_set([&](std::size_t bit) {
    seen.push_back(bit);
    return true;  // stop after the first set bit
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2}));
}

// ---- dense item encoding ----------------------------------------------

TEST(ItemEncodingTest, BodyAndLabelSlots) {
  EXPECT_EQ(item_bit(body_item(0)), 0u);
  EXPECT_EQ(item_bit(body_item(100)), 100u);
  EXPECT_EQ(item_bit(label_item(0)), kItemBodyBits);
  EXPECT_EQ(item_bit(label_item(100)), kItemBodyBits + 100);
  // Body and label slots never collide.
  EXPECT_NE(item_bit(body_item(7)), item_bit(label_item(7)));
  for (std::size_t s = 0; s < kExpectedSubcategories; ++s) {
    const auto subcat = static_cast<SubcategoryId>(s);
    EXPECT_EQ(bit_item(item_bit(body_item(subcat))), body_item(subcat));
    EXPECT_EQ(bit_item(item_bit(label_item(subcat))), label_item(subcat));
  }
  // The universe is the catalog: nothing past it, and no item that would
  // alias a catalog item's bit.
  EXPECT_TRUE(in_universe(body_item(100)));
  EXPECT_TRUE(in_universe(label_item(100)));
  EXPECT_FALSE(in_universe(body_item(101)));
  EXPECT_FALSE(in_universe(label_item(101)));
  EXPECT_FALSE(
      in_universe(body_item(static_cast<SubcategoryId>(kItemBodyBits))));
  EXPECT_FALSE(in_universe(label_item(5) + 0x10000));
  EXPECT_FALSE(in_universe(kUnclassified));
  EXPECT_EQ(universe_bits().count(), 2 * kExpectedSubcategories);
}

TEST(ItemEncodingTest, TryEncodeBitset) {
  const ItemBitset bits = encode_bitset(Itemset{body_item(1), label_item(2)});
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_TRUE(bits.test(1));
  EXPECT_TRUE(bits.test(kItemBodyBits + 2));
  EXPECT_EQ(decode_bitset(bits), (Itemset{body_item(1), label_item(2)}));
  EXPECT_THROW(encode_bitset(Itemset{body_item(1),
                                     body_item(static_cast<SubcategoryId>(
                                         kItemBodyBits))}),
               ItemOutOfUniverse);
  EXPECT_THROW(encode_bitset(Itemset{label_item(2) + 0x10000}),
               ItemOutOfUniverse);
}

// Items outside the universe get the typed error from every append path
// and never reach a column, a rule set or a matcher. Before the universe
// was closed, label_item(s) + 0x10000 encoded to label_item(s)'s bit.
TEST(ItemUniverseTest, OutOfUniverseItemsAreRejectedAtTheBoundary) {
  const Item aliased = label_item(5) + 0x10000;
  const Item past_body = body_item(static_cast<SubcategoryId>(kItemBodyBits));
  const Item past_catalog =
      body_item(static_cast<SubcategoryId>(kExpectedSubcategories));
  for (const Item bad : {aliased, past_body, past_catalog}) {
    SCOPED_TRACE("item " + std::to_string(bad));
    TransactionDb db;
    db.add({body_item(1), label_item(5)});
    EXPECT_THROW(db.add({body_item(1), bad}), ItemOutOfUniverse);
    EXPECT_THROW(db.add_sorted(Itemset{body_item(1), bad}),
                 ItemOutOfUniverse);
    EXPECT_THROW(db.push_item(bad), ItemOutOfUniverse);
    // Nothing was written: one row, and only its own items' columns.
    db.end_row();  // closes the (empty) open row
    ASSERT_EQ(db.size(), 2u);
    EXPECT_EQ(oracles::rows_of(db)[1], Itemset{});
    for (std::size_t s = 0; s < kExpectedSubcategories; ++s) {
      const auto subcat = static_cast<SubcategoryId>(s);
      EXPECT_EQ(db.vertical_index().column(body_item(subcat)) != nullptr,
                s == 1);
      EXPECT_EQ(db.vertical_index().column(label_item(subcat)) != nullptr,
                s == 5);
    }
    EXPECT_EQ(db.absolute_support({bad}), 0u);
    EXPECT_EQ(db.absolute_support({label_item(5)}), 1u);
    // Nor can a rule body carry one.
    Rule rule;
    rule.body = {body_item(1), bad};
    rule.heads = {5};
    rule.confidence = 0.5;
    EXPECT_THROW(RuleSet({rule}), ItemOutOfUniverse);
  }
  // A row given as bits outside the universe (101..127 or the same in
  // the label slot) is rejected too.
  TransactionDb db;
  ItemBitset bits;
  bits.set(kExpectedSubcategories);
  EXPECT_THROW(db.add_row(bits), ItemOutOfUniverse);
  bits.reset();
  bits.set(kItemBodyBits + kItemBodyBits - 1);
  EXPECT_THROW(db.add_row(bits), ItemOutOfUniverse);
  EXPECT_TRUE(db.empty());
}

// ---- randomized differential checks -----------------------------------

// Random transactions over catalog items: body items and label items.
TransactionDb random_db(Rng& rng, std::size_t transactions) {
  TransactionDb db;
  for (std::size_t t = 0; t < transactions; ++t) {
    Itemset items;
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t i = 0; i < n; ++i) {
      const auto subcat =
          static_cast<SubcategoryId>(rng.uniform_int(0, 11));
      if (rng.uniform_int(0, 2) == 2) {
        items.push_back(label_item(subcat));
      } else {
        items.push_back(body_item(subcat));
      }
    }
    db.add(items);
  }
  return db;
}

// A random query itemset; with `exotic`, some items lie outside the
// universe (they occur in no transaction, so any query holding one has
// support 0).
Itemset random_query(Rng& rng, bool exotic) {
  Itemset items;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < n; ++i) {
    const auto subcat = static_cast<SubcategoryId>(rng.uniform_int(0, 13));
    if (exotic && rng.uniform_int(0, 5) == 0) {
      items.push_back(
          body_item(static_cast<SubcategoryId>(kItemBodyBits + subcat)));
    } else if (rng.uniform_int(0, 2) == 0) {
      items.push_back(label_item(subcat));
    } else {
      items.push_back(body_item(subcat));
    }
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

TEST(DifferentialTest, VerticalSupportMatchesNaive) {
  Rng rng(0xb175e7u);
  for (int round = 0; round < 30; ++round) {
    const bool exotic = round % 2 == 0;
    const TransactionDb db =
        random_db(rng, static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (int q = 0; q < 50; ++q) {
      const Itemset query = random_query(rng, exotic);
      EXPECT_EQ(db.absolute_support(query),
                oracles::absolute_support_naive(db, query))
          << "round " << round << " query " << itemset_to_string(query);
    }
  }
}

TEST(DifferentialTest, VerticalIndexSurvivesCopyAndMutation) {
  Rng rng(0xc0b1e5u);
  TransactionDb db = random_db(rng, 25);
  const Itemset query = {body_item(1), body_item(2)};
  const std::size_t before = db.absolute_support(query);
  EXPECT_EQ(before, oracles::absolute_support_naive(db, query));
  TransactionDb copy = db;  // the copy owns its own columns
  copy.add({body_item(1), body_item(2)});
  EXPECT_EQ(copy.absolute_support(query), before + 1);
  EXPECT_EQ(db.absolute_support(query), before);  // original unaffected
  db.add({body_item(1), body_item(2), body_item(3)});  // appends a bit
  EXPECT_EQ(db.absolute_support(query), before + 1);
  EXPECT_EQ(db.absolute_support(query),
            oracles::absolute_support_naive(db, query));
}

// A column's set bits, ascending.
std::vector<std::size_t> set_bits(const DynamicBitset& bits) {
  std::vector<std::size_t> out;
  bits.for_each_set([&](std::size_t bit) {
    out.push_back(bit);
    return false;
  });
  return out;
}

// The columns maintained on append against the two-pass build from the
// rows: same items, same bits, same width — and every column only as
// wide as its last set bit.
void expect_reference_columns(const TransactionDb& db) {
  const VerticalIndex& index = db.vertical_index();
  const oracles::ReferenceColumns ref = oracles::reference_vertical_index(db);
  EXPECT_EQ(index.transaction_count(), db.size());
  // Exactly the items that occur have a column.
  Itemset present;
  for (std::size_t bit = 0; bit < ItemBitset::kBits; ++bit) {
    if (in_universe(bit_item(bit)) && index.column(bit_item(bit)) != nullptr) {
      present.push_back(bit_item(bit));
    }
  }
  EXPECT_EQ(present, ref.items);
  for (std::size_t i = 0; i < ref.columns.size(); ++i) {
    const DynamicBitset* column = index.column(ref.items[i]);
    ASSERT_NE(column, nullptr) << "item " << ref.items[i];
    const std::vector<std::size_t> bits = set_bits(*column);
    EXPECT_EQ(bits, set_bits(ref.columns[i])) << "item " << ref.items[i];
    EXPECT_EQ(column->word_count(), ref.columns[i].word_count());
    ASSERT_FALSE(bits.empty()) << "item " << ref.items[i];
    EXPECT_EQ(column->word_count(), bits.back() / 64 + 1);
  }
}

TEST(DifferentialTest, AppendedColumnsMatchTwoPassBuild) {
  Rng rng(0xc01a3du);
  for (int round = 0; round < 25; ++round) {
    TransactionDb db;
    const auto rows = static_cast<std::size_t>(rng.uniform_int(0, 300));
    for (std::size_t r = 0; r < rows; ++r) {
      Itemset items;
      const auto subcat = [&] {
        return static_cast<SubcategoryId>(rng.uniform_int(0, 11));
      };
      switch (rng.uniform_int(0, 5)) {
        case 0:  // empty row (a negative window with no precursor)
          break;
        case 1:  // label-only row
          items.push_back(label_item(subcat()));
          break;
        default:
          for (std::int64_t k = rng.uniform_int(1, 6); k > 0; --k) {
            switch (rng.uniform_int(0, 5)) {
              case 0:
                items.push_back(label_item(subcat()));
                break;
              case 1:  // past the universe: rejected, never a column
                items.push_back(rng.uniform_int(0, 1) == 0
                                    ? body_item(static_cast<SubcategoryId>(
                                          kItemBodyBits + subcat()))
                                    : label_item(static_cast<SubcategoryId>(
                                          kItemBodyBits + subcat())));
                break;
              case 2:  // would alias label_item(subcat)'s bit: rejected
                items.push_back(label_item(subcat()) + 0x10000);
                break;
              default:
                items.push_back(body_item(subcat()));
                break;
            }
          }
          break;
      }
      const bool outside = std::any_of(
          items.begin(), items.end(), [](Item i) { return !in_universe(i); });
      if (rng.uniform_int(0, 1) == 0) {
        if (outside) {
          // The whole row is refused: no row, no column bit.
          const std::size_t before = db.size();
          EXPECT_THROW(db.add(items), ItemOutOfUniverse);
          EXPECT_EQ(db.size(), before);
        } else {
          db.add(items);
        }
      } else {
        std::sort(items.begin(), items.end());
        items.erase(std::unique(items.begin(), items.end()), items.end());
        for (const Item item : items) {
          if (in_universe(item)) {
            db.push_item(item);
          } else {
            EXPECT_THROW(db.push_item(item), ItemOutOfUniverse);
          }
        }
        db.end_row();
      }
      // Query mid-build: later rows must still reach the columns.
      if (rng.uniform_int(0, 24) == 0) {
        const Itemset query = random_query(rng, /*exotic=*/true);
        EXPECT_EQ(db.absolute_support(query),
                  oracles::absolute_support_naive(db, query));
        expect_reference_columns(db);
      }
    }
    SCOPED_TRACE("round " + std::to_string(round));
    expect_reference_columns(db);
  }
}

TEST(DifferentialTest, AprioriMatchesReferenceAndFpGrowth) {
  Rng rng(0xa9110fu);
  for (int round = 0; round < 12; ++round) {
    const TransactionDb db =
        random_db(rng, static_cast<std::size_t>(rng.uniform_int(4, 30)));
    MiningOptions options;
    options.min_support =
        static_cast<double>(rng.uniform_int(5, 30)) / 100.0;
    options.max_itemset_size =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    const FrequentSet fast = apriori(db, options);
    const FrequentSet reference = oracles::apriori_reference(db, options);
    // The depth-first miner must reproduce the reference bit-for-bit,
    // order included.
    ASSERT_EQ(fast.size(), reference.size()) << "round " << round;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast.itemsets()[i].items, reference.itemsets()[i].items);
      EXPECT_EQ(fast.itemsets()[i].count, reference.itemsets()[i].count);
    }
    // Cross-algorithm check (canonical order).
    const auto a = sorted_by_itemset(fast.itemsets());
    const auto f =
        sorted_by_itemset(oracles::fpgrowth(db, options).itemsets());
    ASSERT_EQ(a.size(), f.size()) << "round " << round;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].items, f[i].items);
      EXPECT_EQ(a[i].count, f[i].count);
    }
  }
}

TEST(DifferentialTest, BestMatchMatchesNaive) {
  Rng rng(0xbe57a7c4u);
  for (int round = 0; round < 10; ++round) {
    const TransactionDb db =
        random_db(rng, static_cast<std::size_t>(rng.uniform_int(10, 60)));
    RuleOptions options;
    options.mining.min_support = 0.05;
    options.min_confidence = 0.05;
    options.min_label_count = 1;
    options.min_rule_hits = 1;
    const RuleSet rules = mine_rules(db, options);
    for (int q = 0; q < 60; ++q) {
      const Itemset observed = random_query(rng, /*exotic=*/false);
      // Pointer equality: ties must resolve to the *same* rule.
      EXPECT_EQ(rules.best_match(encode_bitset(observed)),
                oracles::best_match_naive(rules, observed))
          << "round " << round << " observed "
          << itemset_to_string(observed);
    }
  }
}

// The flat matcher against the linear scan on rule sets of 0, 1, 63, 64,
// 65 and 200 rules (one to four mask words, boundaries on both sides of
// a word), with confidence ties, empty bodies and empty windows.
TEST(DifferentialTest, FlatMatcherMatchesNaiveAcrossMaskWords) {
  Rng rng(0xf1a7u);
  for (const std::size_t count : {0u, 1u, 63u, 64u, 65u, 200u}) {
    for (int round = 0; round < 4; ++round) {
      std::vector<Rule> rules;
      for (std::size_t r = 0; r < count; ++r) {
        Rule rule;
        // Bodies of 0-3 items over 10 body items; an empty body shows up
        // in about one set in four.
        const auto size = rng.uniform_int(round == 0 ? 0 : 1, 3);
        for (std::int64_t i = 0; i < size; ++i) {
          rule.body.push_back(
              body_item(static_cast<SubcategoryId>(rng.uniform_int(0, 9))));
        }
        std::sort(rule.body.begin(), rule.body.end());
        rule.body.erase(std::unique(rule.body.begin(), rule.body.end()),
                        rule.body.end());
        rule.heads = {static_cast<SubcategoryId>(rng.uniform_int(50, 60))};
        // Few distinct confidences: many ties, resolved by the sort.
        rule.confidence = static_cast<double>(rng.uniform_int(1, 8)) / 8.0;
        rule.support = static_cast<double>(rng.uniform_int(1, 3)) / 10.0;
        rules.push_back(std::move(rule));
      }
      const RuleSet set(std::move(rules));
      ASSERT_EQ(set.size(), count);
      for (int q = 0; q < 80; ++q) {
        Itemset observed;
        if (q % 8 != 0) {  // every eighth window is empty
          for (std::int64_t i = rng.uniform_int(1, 6); i > 0; --i) {
            observed.push_back(body_item(
                static_cast<SubcategoryId>(rng.uniform_int(0, 12))));
          }
        }
        std::sort(observed.begin(), observed.end());
        observed.erase(std::unique(observed.begin(), observed.end()),
                       observed.end());
        EXPECT_EQ(set.best_match(encode_bitset(observed)),
                  oracles::best_match_naive(set, observed))
            << count << " rules, round " << round << ", observed "
            << itemset_to_string(observed);
      }
    }
  }
}

// The depth-first miner over a label's rows against the textbook Apriori
// run on the materialized label-stripped rows: row masks with gaps,
// labels below and above 64 rows, min_count 1, L and past L, itemsets of
// 1-5 items, and one miner reused across every call (its arenas must not
// leak state between label mines).
TEST(DifferentialTest, LabelMinerMatchesReferenceApriori) {
  Rng rng(0x1abe1u);
  ItemsetMiner miner;
  std::vector<FrequentBits> found;
  for (int round = 0; round < 60; ++round) {
    TransactionDb db;
    std::vector<std::uint32_t> rows;
    TransactionDb sub;
    const auto size = static_cast<std::size_t>(
        rng.uniform_int(1, round % 2 == 0 ? 90 : 400));
    const std::int64_t gap = rng.uniform_int(0, 3);  // skip odds
    for (std::size_t i = 0; i < size; ++i) {
      Itemset t;
      for (std::int64_t k = rng.uniform_int(0, 7); k > 0; --k) {
        const auto subcat = static_cast<SubcategoryId>(rng.uniform_int(0, 9));
        t.push_back(rng.uniform_int(0, 5) == 0 ? label_item(subcat)
                                               : body_item(subcat));
      }
      db.add(t);
      if (rng.uniform_int(0, 3) >= gap) {
        rows.push_back(static_cast<std::uint32_t>(i));
        Itemset body;
        for (const Item item : db.row(i)) {
          if (!is_label(item)) {
            body.push_back(item);
          }
        }
        sub.add(body);
      }
    }
    const std::size_t labels = rows.size();
    const std::size_t max_size = 1 + static_cast<std::size_t>(round % 5);
    for (const std::size_t min_count :
         {std::size_t{1}, labels, labels + 1,
          static_cast<std::size_t>(rng.uniform_int(1, 8))}) {
      if (min_count == 0) {
        continue;  // an empty selection has no L floor to test
      }
      SCOPED_TRACE("round " + std::to_string(round) + " rows " +
                   std::to_string(labels) + " min_count " +
                   std::to_string(min_count));
      found.clear();
      miner.mine(db, rows, /*bodies_only=*/true, min_count, max_size, found);
      std::vector<FrequentItemset> mined;
      for (const FrequentBits& f : found) {
        mined.push_back({decode_bitset(f.items), f.count});
      }
      if (min_count > labels) {
        EXPECT_TRUE(mined.empty());
        continue;
      }
      MiningOptions options;
      options.max_itemset_size = max_size;
      // The relative support whose count floor is exactly min_count.
      options.min_support =
          static_cast<double>(min_count) / static_cast<double>(labels);
      ASSERT_EQ(sub.min_count_for(options.min_support), min_count);
      const auto want = sorted_by_itemset(
          oracles::apriori_reference(sub, options).itemsets());
      const auto got = sorted_by_itemset(mined);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].items, want[i].items);
        EXPECT_EQ(got[i].count, want[i].count);
      }
      // Depth-first output is lexicographic.
      for (std::size_t i = 1; i < mined.size(); ++i) {
        EXPECT_LT(mined[i - 1].items, mined[i].items);
      }
    }
  }
}

TEST(RuleSetTest, EmptyBodyRuleMatchesEmptyWindow) {
  // An empty-body rule (possible in synthetic inputs) must match any
  // window, including the empty one.
  Rule rule;
  rule.heads = {3};
  rule.confidence = 0.5;
  rule.support = 0.1;
  const RuleSet rules({rule});
  EXPECT_NE(rules.best_match(ItemBitset{}), nullptr);
  EXPECT_EQ(rules.best_match(ItemBitset{}),
            oracles::best_match_naive(rules, Itemset{}));
  EXPECT_EQ(rules.best_match(encode_bitset(Itemset{body_item(4)})),
            &rules.rules()[0]);
}

}  // namespace
}  // namespace bglpred
