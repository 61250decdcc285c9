// FP-Growth frequent-itemset mining (Han et al., DMKD '04) — the
// pattern-growth alternative the paper cites alongside Apriori [15].
//
// Builds a compressed FP-tree of frequency-ordered transactions, then
// recursively mines conditional trees. It shares no code with the
// product's depth-first Apriori (mining/apriori.hpp), which makes it the
// second, independent miner the tests cross-check the product against;
// perf_mining benchmarks the two side by side.
#pragma once

#include "mining/frequent.hpp"

namespace bglpred::oracles {

/// Mines all frequent itemsets of `db` under `options`.
FrequentSet fpgrowth(const TransactionDb& db, const MiningOptions& options);

/// FP-Growth counterpart of apriori_bodies(): the frequent body itemsets
/// (label items hidden) of the transactions of `db` selected by `rows`,
/// each occurring in at least `min_count` of them, without copying the
/// selected transactions.
FrequentSet fpgrowth_bodies(const TransactionDb& db,
                            const DynamicBitset& rows, std::size_t min_count,
                            std::size_t max_itemset_size);

}  // namespace bglpred::oracles
