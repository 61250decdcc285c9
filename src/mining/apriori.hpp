// Frequent-itemset mining for Step 2 of the rule-based method. The paper
// cites Apriori (Agrawal & Srikant, VLDB '94); this miner produces
// Apriori's frequent set, counted vertically and depth first.
//
// Every frequent itemset is reached from its lexicographic prefix (Eclat
// on Apriori's lattice): a class of itemsets sharing a prefix carries one
// transaction bitset (tidset) per member, and extending member a by a
// later member b costs the word-wise AND of their tidsets plus a
// popcount, with no subset enumeration over transactions. Itemsets are
// fixed-width ItemBitsets held in flat arrays, and the tidsets of each
// depth live in one word arena the miner reuses, compacted to the mined
// rows: L selected rows give ceil(L / 64)-word tidsets whatever the
// database's width. The textbook horizontal-counting Apriori lives with
// the tests as the differential oracle (tests/oracles).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mining/frequent.hpp"

namespace bglpred {

/// Mines all frequent itemsets of `db` under `options`. Same output,
/// order included, as the textbook Apriori: level by level, and
/// lexicographic within a level.
FrequentSet apriori(const TransactionDb& db, const MiningOptions& options);

/// One frequent itemset as its dense item bits.
struct FrequentBits {
  ItemBitset items;
  std::size_t count = 0;
};

/// The depth-first miner with its reusable arenas. One instance mines
/// any number of row subsets; after the first few calls it allocates
/// nothing.
class ItemsetMiner {
 public:
  /// Appends to `out`, in lexicographic order, every itemset of at most
  /// `max_itemset_size` items occurring in at least `min_count` of the
  /// rows of `db` listed (ascending) in `rows`. With `bodies_only`, label
  /// items are hidden: each row counts as its body items alone.
  void mine(const TransactionDb& db, std::span<const std::uint32_t> rows,
            bool bodies_only, std::size_t min_count,
            std::size_t max_itemset_size, std::vector<FrequentBits>& out);

 private:
  // The members of one prefix class: their last item's bit, count and
  // tidset (words_ words each, member i at tids[i * words_]).
  struct Level {
    std::vector<std::uint16_t> bits;
    std::vector<std::size_t> counts;
    std::vector<std::uint64_t> tids;
  };

  void grow(std::size_t depth, const ItemBitset& prefix);

  std::vector<Level> levels_;
  std::size_t words_ = 0;
  std::size_t min_count_ = 0;
  std::size_t max_itemset_size_ = 0;
  std::vector<FrequentBits>* out_ = nullptr;
};

/// The frequent *body* itemsets of the transactions of `db` whose bit is
/// set in `rows`, with label items hidden — the per-label class database
/// of rule generation — without materializing it. An itemset is frequent
/// iff it occurs in at least `min_count` selected transactions. Same
/// output, order included, as apriori() over the materialized
/// label-stripped sub-database with the equivalent relative support.
FrequentSet apriori_bodies(const TransactionDb& db, const DynamicBitset& rows,
                           std::size_t min_count,
                           std::size_t max_itemset_size);

}  // namespace bglpred
