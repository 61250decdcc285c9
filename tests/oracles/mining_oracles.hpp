// Reference implementations the mining fast paths are differentially
// tested against. They state each computation the plain way: horizontal
// (per-transaction) counting, per-transaction subset scans, and a linear
// rule scan in confidence order.
#pragma once

#include <cstddef>
#include <vector>

#include "mining/frequent.hpp"
#include "mining/rules.hpp"
#include "mining/transaction.hpp"

namespace bglpred::oracles {

/// Every itemset of at most max_itemset_size items occurring in at least
/// the minimum support count of transactions, found by enumerating every
/// subset of every transaction (small transactions only), sorted by
/// itemset.
std::vector<FrequentItemset> brute_force_frequent(
    const TransactionDb& db, const MiningOptions& options);

/// Textbook Apriori with horizontal counting (k-subset enumeration per
/// transaction). Same output, order included, as apriori().
FrequentSet apriori_reference(const TransactionDb& db,
                              const MiningOptions& options);

/// Every row of `db` as an itemset, in database order.
std::vector<Itemset> rows_of(const TransactionDb& db);

/// A vertical index built the two-pass way: every row of `db` is read
/// back into a map from item to column. The oracle for the columns
/// TransactionDb maintains as rows are appended.
struct ReferenceColumns {
  std::vector<Item> items;  // ascending; parallel to columns
  std::vector<DynamicBitset> columns;
};
ReferenceColumns reference_vertical_index(const TransactionDb& db);

/// Absolute support by an is_subset scan over every transaction; the
/// oracle for TransactionDb::absolute_support's vertical index.
std::size_t absolute_support_naive(const TransactionDb& db,
                                   const Itemset& items);

/// Linear scan of `rules` in confidence order; the oracle for the
/// indexed RuleSet::best_match.
const Rule* best_match_naive(const RuleSet& rules, const Itemset& observed);

}  // namespace bglpred::oracles
