#include "mining/apriori.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {
namespace {

// A (k+1)-candidate plus the indices of the two frequent k-itemsets whose
// prefix join produced it (its transaction bitset is the AND of theirs).
struct Candidate {
  Itemset items;
  std::size_t left = 0;
  std::size_t right = 0;
};

// Generates (k+1)-candidates from sorted frequent k-itemsets via the
// prefix join, pruning candidates with an infrequent k-subset. The output
// inherits the input's lexicographic order.
std::vector<Candidate> generate_candidates(
    const std::vector<Itemset>& frequent_k) {
  // The prefix join and the binary_search prune below both assume
  // lexicographic order; an unsorted input silently drops candidates.
  BGL_DCHECK(std::is_sorted(frequent_k.begin(), frequent_k.end()),
             "prefix join requires lexicographically sorted itemsets");
  std::vector<Candidate> candidates;
  Itemset candidate;
  Itemset subset;  // prune-check scratch, reused across candidates
  // frequent_k is sorted lexicographically; itemsets sharing a (k-1)
  // prefix are adjacent.
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      const Itemset& a = frequent_k[i];
      const Itemset& b = frequent_k[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
        break;  // prefixes diverge; later j only diverge further
      }
      candidate.assign(a.begin(), a.end());
      candidate.push_back(b.back());
      // Apriori pruning: every k-subset must be frequent. The two
      // "parents" are frequent by construction; test the others.
      bool prune = false;
      for (std::size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
        subset.clear();
        for (std::size_t m = 0; m < candidate.size(); ++m) {
          if (m != drop) {
            subset.push_back(candidate[m]);
          }
        }
        if (!std::binary_search(frequent_k.begin(), frequent_k.end(),
                                subset)) {
          prune = true;
          break;
        }
      }
      if (!prune) {
        candidates.push_back(Candidate{candidate, i, j});
      }
    }
  }
  return candidates;
}

// Level-wise passes from the frequent single items `frequent_k`
// (ascending, already in `result`) and their transaction bitsets
// `tids_k`: a candidate's bitset is the AND of its two join parents'
// bitsets, and its support the popcount — no transaction scan.
void grow_levels(std::vector<Itemset> frequent_k,
                 std::vector<DynamicBitset> tids_k, std::size_t min_count,
                 std::size_t max_itemset_size, std::size_t transactions,
                 std::vector<FrequentItemset>& result) {
  for (std::size_t k = 2;
       k <= max_itemset_size && frequent_k.size() >= 2; ++k) {
    const std::vector<Candidate> candidates = generate_candidates(frequent_k);
    if (candidates.empty()) {
      break;
    }
    std::vector<Itemset> next_frequent;
    std::vector<DynamicBitset> next_tids;
    for (const Candidate& c : candidates) {
      BGL_CHECK_RANGE(c.left, tids_k.size());
      BGL_CHECK_RANGE(c.right, tids_k.size());
      // Count without materializing: most candidates are infrequent at
      // low support, and and_count needs no allocation. Only survivors
      // pay for an actual tidset.
      const std::size_t count =
          DynamicBitset::and_count(tids_k[c.left], tids_k[c.right]);
      BGL_CHECK(count <= transactions,
                "candidate counted more often than there are transactions");
      if (count >= min_count) {
        result.push_back({c.items, count});
        next_frequent.push_back(c.items);
        next_tids.push_back(
            DynamicBitset::and_of(tids_k[c.left], tids_k[c.right]));
      }
    }
    frequent_k = std::move(next_frequent);
    tids_k = std::move(next_tids);
    // The join emits candidates in lexicographic order, so the surviving
    // frequent sets are already sorted for the next level's prefix join.
    BGL_DCHECK(std::is_sorted(frequent_k.begin(), frequent_k.end()),
               "candidate generation lost lexicographic order");
  }
}

// Apriori over the transactions of `index` selected by `rows` (all of
// them when `rows` is null), with label items hidden when `bodies_only`
// is set. Pass 1 walks the index's items in ascending order, each
// carrying its (row-masked) transaction bitset.
FrequentSet apriori_rows(const VerticalIndex& index, const DynamicBitset* rows,
                         bool bodies_only, std::size_t min_count,
                         std::size_t max_itemset_size) {
  std::vector<FrequentItemset> result;
  std::vector<Itemset> frequent_k;
  std::vector<DynamicBitset> tids_k;
  for (std::size_t i = 0; i < index.items().size(); ++i) {
    const Item item = index.items()[i];
    if (bodies_only && is_label(item)) {
      continue;
    }
    const DynamicBitset& column = index.columns()[i];
    const std::size_t count = rows == nullptr
                                  ? column.count()
                                  : DynamicBitset::and_count(column, *rows);
    if (count >= min_count) {
      result.push_back({{item}, count});
      frequent_k.push_back({item});
      tids_k.push_back(rows == nullptr ? column
                                       : DynamicBitset::and_of(column, *rows));
    }
  }
  grow_levels(std::move(frequent_k), std::move(tids_k), min_count,
              max_itemset_size, index.transaction_count(), result);
  return FrequentSet(std::move(result));
}

}  // namespace

FrequentSet apriori(const TransactionDb& db, const MiningOptions& options) {
  BGL_REQUIRE(options.max_itemset_size >= 1, "max itemset size must be >= 1");
  if (db.empty()) {
    return FrequentSet(std::vector<FrequentItemset>{});
  }
  return apriori_rows(db.vertical_index(), nullptr, /*bodies_only=*/false,
                      db.min_count_for(options.min_support),
                      options.max_itemset_size);
}

FrequentSet apriori_bodies(const VerticalIndex& index,
                           const DynamicBitset& rows, std::size_t min_count,
                           std::size_t max_itemset_size) {
  BGL_REQUIRE(max_itemset_size >= 1, "max itemset size must be >= 1");
  BGL_REQUIRE(min_count >= 1, "minimum support count must be >= 1");
  return apriori_rows(index, &rows, /*bodies_only=*/true, min_count,
                      max_itemset_size);
}

}  // namespace bglpred
