// Apriori frequent-itemset mining (Agrawal & Srikant, VLDB '94) — the
// algorithm the paper cites for Step 2 of the rule-based method.
//
// Level-wise search: frequent k-itemsets are joined into (k+1)-candidates
// sharing a k-1 prefix, and candidates with any infrequent k-subset are
// pruned (the apriori property). Candidate support is counted vertically:
// each frequent itemset carries its transaction bitset (tid-list), and a
// candidate's bitset is the word-wise AND of its two join parents'
// bitsets, so counting is a popcount instead of a subset enumeration over
// every transaction (Eclat-style counting on Apriori's level-wise
// lattice). The textbook horizontal-counting version lives with the
// tests as the differential oracle (tests/oracles); both produce
// bit-identical FrequentSets.
#pragma once

#include "mining/frequent.hpp"

namespace bglpred {

/// Mines all frequent itemsets of `db` under `options` using vertical
/// (transaction-bitset) candidate counting.
FrequentSet apriori(const TransactionDb& db, const MiningOptions& options);

/// Mines the frequent *body* itemsets of the sub-database of `index`'s
/// transactions whose bit is set in `rows`, with label items hidden —
/// the per-label class database of rule generation — without
/// materializing it: every column is intersected with `rows`. An itemset
/// is frequent iff it occurs in at least `min_count` selected
/// transactions. Same output, order included, as apriori() over the
/// materialized label-stripped sub-database with the equivalent
/// relative support.
FrequentSet apriori_bodies(const VerticalIndex& index,
                           const DynamicBitset& rows, std::size_t min_count,
                           std::size_t max_itemset_size);

}  // namespace bglpred
