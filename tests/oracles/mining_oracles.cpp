#include "oracles/mining_oracles.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace bglpred::oracles {
namespace {

// Hash for an itemset (FNV-ish over items). Collisions are resolved by the
// map's key equality.
struct ItemsetHash {
  std::size_t operator()(const Itemset& items) const {
    std::uint64_t h = 1469598103934665603ULL;
    for (Item it : items) {
      h ^= it;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

using CandidateCounts = std::unordered_map<Itemset, std::size_t, ItemsetHash>;

// (k+1)-candidates from sorted frequent k-itemsets via the prefix join,
// pruning candidates with an infrequent k-subset; lexicographic output.
std::vector<Itemset> generate_candidates(
    const std::vector<Itemset>& frequent_k) {
  std::vector<Itemset> candidates;
  for (std::size_t i = 0; i < frequent_k.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent_k.size(); ++j) {
      const Itemset& a = frequent_k[i];
      const Itemset& b = frequent_k[j];
      if (!std::equal(a.begin(), a.end() - 1, b.begin(), b.end() - 1)) {
        break;
      }
      Itemset candidate = a;
      candidate.push_back(b.back());
      bool prune = false;
      for (std::size_t drop = 0; drop < candidate.size() && !prune; ++drop) {
        Itemset subset;
        for (std::size_t m = 0; m < candidate.size(); ++m) {
          if (m != drop) {
            subset.push_back(candidate[m]);
          }
        }
        prune = !std::binary_search(frequent_k.begin(), frequent_k.end(),
                                    subset);
      }
      if (!prune) {
        candidates.push_back(std::move(candidate));
      }
    }
  }
  return candidates;
}

// Enumerates all k-subsets of `items` and bumps matching candidates.
void count_subsets(const Itemset& items, std::size_t k,
                   CandidateCounts& counts) {
  if (items.size() < k) {
    return;
  }
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) {
    idx[i] = i;
  }
  Itemset subset(k);
  for (;;) {
    for (std::size_t i = 0; i < k; ++i) {
      subset[i] = items[idx[i]];
    }
    if (auto it = counts.find(subset); it != counts.end()) {
      ++it->second;
    }
    // Next combination: bump the rightmost index with room, then reset
    // everything to its right.
    std::ptrdiff_t pos = static_cast<std::ptrdiff_t>(k) - 1;
    while (pos >= 0 &&
           idx[static_cast<std::size_t>(pos)] ==
               static_cast<std::size_t>(pos) + items.size() - k) {
      --pos;
    }
    if (pos < 0) {
      return;
    }
    ++idx[static_cast<std::size_t>(pos)];
    for (std::size_t i = static_cast<std::size_t>(pos) + 1; i < k; ++i) {
      idx[i] = idx[i - 1] + 1;
    }
  }
}

}  // namespace

std::vector<FrequentItemset> brute_force_frequent(
    const TransactionDb& db, const MiningOptions& options) {
  std::map<Itemset, std::size_t> counts;
  for (const Transaction& t : rows_of(db)) {
    const std::size_t n = t.size();
    for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
      Itemset subset;
      for (std::size_t b = 0; b < n; ++b) {
        if ((mask & (std::size_t{1} << b)) != 0) {
          subset.push_back(t[b]);
        }
      }
      if (subset.size() <= options.max_itemset_size) {
        ++counts[subset];
      }
    }
  }
  const std::size_t min_count = db.min_count_for(options.min_support);
  std::vector<FrequentItemset> out;
  for (const auto& [items, count] : counts) {
    if (count >= min_count) {
      out.push_back({items, count});
    }
  }
  return out;
}

FrequentSet apriori_reference(const TransactionDb& db,
                              const MiningOptions& options) {
  BGL_REQUIRE(options.max_itemset_size >= 1, "max itemset size must be >= 1");
  std::vector<FrequentItemset> result;
  if (db.empty()) {
    return FrequentSet(std::move(result));
  }
  const std::size_t min_count = db.min_count_for(options.min_support);

  // Pass 1: frequent single items, ascending.
  const std::vector<Itemset> rows = rows_of(db);
  std::map<Item, std::size_t> singles;
  for (const Transaction& t : rows) {
    for (Item item : t) {
      ++singles[item];
    }
  }
  std::vector<Itemset> frequent_k;
  for (const auto& [item, count] : singles) {
    if (count >= min_count) {
      result.push_back({{item}, count});
      frequent_k.push_back({item});
    }
  }

  // Restrict each transaction to its frequent items once.
  std::vector<Itemset> filtered;
  filtered.reserve(rows.size());
  for (const Transaction& t : rows) {
    Itemset keep;
    for (Item item : t) {
      if (singles.at(item) >= min_count) {
        keep.push_back(item);
      }
    }
    filtered.push_back(std::move(keep));
  }

  // Level-wise passes with horizontal counting.
  for (std::size_t k = 2;
       k <= options.max_itemset_size && frequent_k.size() >= 2; ++k) {
    const std::vector<Itemset> candidates = generate_candidates(frequent_k);
    if (candidates.empty()) {
      break;
    }
    CandidateCounts counts;
    counts.reserve(candidates.size() * 2);
    for (const Itemset& c : candidates) {
      counts.emplace(c, 0);
    }
    for (const Itemset& t : filtered) {
      count_subsets(t, k, counts);
    }
    frequent_k.clear();
    for (const Itemset& c : candidates) {
      const std::size_t count = counts.at(c);
      if (count >= min_count) {
        result.push_back({c, count});
        frequent_k.push_back(c);
      }
    }
    std::sort(frequent_k.begin(), frequent_k.end());
  }
  return FrequentSet(std::move(result));
}

std::vector<Itemset> rows_of(const TransactionDb& db) {
  std::vector<Itemset> rows;
  rows.reserve(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::span<const Item> row = db.row(i);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

ReferenceColumns reference_vertical_index(const TransactionDb& db) {
  std::map<Item, DynamicBitset> columns;
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (const Item item : db.row(t)) {
      columns[item].set(t);
    }
  }
  ReferenceColumns out;
  for (auto& [item, bits] : columns) {
    out.items.push_back(item);
    out.columns.push_back(std::move(bits));
  }
  return out;
}

std::size_t absolute_support_naive(const TransactionDb& db,
                                   const Itemset& items) {
  std::size_t count = 0;
  for (const Transaction& t : rows_of(db)) {
    if (is_subset(items, t)) {
      ++count;
    }
  }
  return count;
}

const Rule* best_match_naive(const RuleSet& rules, const Itemset& observed) {
  for (const Rule& rule : rules.rules()) {
    if (is_subset(rule.body, observed)) {
      return &rule;  // rules are confidence-sorted; first match wins
    }
  }
  return nullptr;
}

}  // namespace bglpred::oracles
