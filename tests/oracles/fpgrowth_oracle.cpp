#include "oracles/fpgrowth_oracle.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred::oracles {
namespace {

// FP-tree node. Children are keyed by item; header chains link nodes of
// the same item across the tree. Nodes are owned by a flat arena so
// recursion depth never risks destructor stack overflow.
struct FpNode {
  Item item = 0;
  std::size_t count = 0;
  FpNode* parent = nullptr;
  FpNode* next_same_item = nullptr;  // header-table chain
  std::map<Item, FpNode*> children;
};

class FpTree {
 public:
  explicit FpTree() { root_ = new_node(0, nullptr); }

  FpNode* root() { return root_; }

  FpNode* new_node(Item item, FpNode* parent) {
    arena_.push_back(std::make_unique<FpNode>());
    FpNode* node = arena_.back().get();
    node->item = item;
    node->parent = parent;
    return node;
  }

  // Inserts a frequency-ordered transaction with multiplicity `count`.
  void insert(const std::vector<Item>& ordered, std::size_t count) {
    BGL_CHECK(!ordered.empty() && count >= 1,
              "FP-tree insertion needs a non-empty weighted path");
    FpNode* cur = root_;
    for (Item item : ordered) {
      auto it = cur->children.find(item);
      if (it == cur->children.end()) {
        FpNode* child = new_node(item, cur);
        cur->children.emplace(item, child);
        // Prepend to the header chain.
        auto& head = header_[item];
        child->next_same_item = head;
        head = child;
        cur = child;
      } else {
        cur = it->second;
      }
    }
    // Add count along the path.
    for (FpNode* n = cur; n != root_; n = n->parent) {
      n->count += count;
    }
  }

  const std::unordered_map<Item, FpNode*>& header() const { return header_; }

  bool empty() const { return root_->children.empty(); }

 private:
  std::vector<std::unique_ptr<FpNode>> arena_;
  FpNode* root_;
  std::unordered_map<Item, FpNode*> header_;
};

// Recursive pattern growth. `suffix` is the itemset conditioned on so far
// (stored in ascending item order at emission time).
void mine(const FpTree& tree, std::size_t min_count,
          std::size_t max_size, Itemset& suffix,
          std::vector<FrequentItemset>& out) {
  if (suffix.size() >= max_size) {
    return;
  }
  // Item totals in this (conditional) tree.
  std::map<Item, std::size_t> totals;
  for (const auto& [item, head] : tree.header()) {
    std::size_t total = 0;
    for (const FpNode* n = head; n != nullptr; n = n->next_same_item) {
      total += n->count;
    }
    if (total >= min_count) {
      totals.emplace(item, total);
    }
  }
  for (const auto& [item, total] : totals) {
    // Emit {item} ∪ suffix.
    Itemset emitted;
    emitted.reserve(suffix.size() + 1);
    emitted = suffix;
    emitted.push_back(item);
    std::sort(emitted.begin(), emitted.end());
    out.push_back({std::move(emitted), total});

    // Build the conditional tree on `item`'s prefix paths.
    FpTree conditional;
    const auto head_it = tree.header().find(item);
    BGL_CHECK(head_it != tree.header().end(),
              "header table lost a frequent item's chain");
    for (const FpNode* n = head_it->second; n != nullptr;
         n = n->next_same_item) {
      // Collect the prefix path root->..->parent(n).
      std::vector<Item> path;
      for (const FpNode* p = n->parent; p != nullptr && p->parent != nullptr;
           p = p->parent) {
        path.push_back(p->item);
      }
      std::reverse(path.begin(), path.end());
      // Keep only items frequent in this conditional context.
      std::vector<Item> kept;
      kept.reserve(path.size());
      for (Item pi : path) {
        if (totals.count(pi) != 0) {
          kept.push_back(pi);
        }
      }
      if (!kept.empty()) {
        conditional.insert(kept, n->count);
      }
    }
    if (!conditional.empty()) {
      suffix.push_back(item);
      mine(conditional, min_count, max_size, suffix, out);
      suffix.pop_back();
    }
  }
}

// Calls fn(row items) for each transaction of `db` selected by `rows`
// (all of them when `rows` is null), in database order.
template <typename Fn>
void for_each_row(const TransactionDb& db, const DynamicBitset* rows,
                  Fn&& fn) {
  if (rows == nullptr) {
    for (std::size_t r = 0; r < db.size(); ++r) {
      fn(db.row(r));
    }
    return;
  }
  rows->for_each_set([&](std::size_t r) {
    fn(db.row(r));
    return false;
  });
}

// FP-Growth over the transactions of `db` selected by `rows`, with label
// items hidden when `bodies_only` is set.
FrequentSet fpgrowth_rows(const TransactionDb& db, const DynamicBitset* rows,
                          bool bodies_only, std::size_t min_count,
                          std::size_t max_itemset_size) {
  // Global item frequencies.
  std::map<Item, std::size_t> singles;
  for_each_row(db, rows, [&](std::span<const Item> t) {
    for (Item item : t) {
      if (!bodies_only || !is_label(item)) {
        ++singles[item];
      }
    }
  });

  // Frequency-descending item order (ties by item id for determinism).
  std::vector<std::pair<Item, std::size_t>> order;
  for (const auto& [item, count] : singles) {
    if (count >= min_count) {
      order.emplace_back(item, count);
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) {
      return a.second > b.second;
    }
    return a.first < b.first;
  });
  std::unordered_map<Item, std::size_t> rank;
  for (std::size_t i = 0; i < order.size(); ++i) {
    rank.emplace(order[i].first, i);
  }

  // Build the global FP-tree (hidden items never reach `rank`).
  FpTree tree;
  std::vector<Item> kept;
  for_each_row(db, rows, [&](std::span<const Item> t) {
    kept.clear();
    for (Item item : t) {
      if (rank.count(item) != 0) {
        kept.push_back(item);
      }
    }
    std::sort(kept.begin(), kept.end(), [&](Item a, Item b) {
      return rank.at(a) < rank.at(b);
    });
    if (!kept.empty()) {
      tree.insert(kept, 1);
    }
  });

  std::vector<FrequentItemset> result;
  Itemset suffix;
  mine(tree, min_count, max_itemset_size, suffix, result);
  return FrequentSet(std::move(result));
}

}  // namespace

FrequentSet fpgrowth(const TransactionDb& db, const MiningOptions& options) {
  BGL_REQUIRE(options.max_itemset_size >= 1, "max itemset size must be >= 1");
  if (db.empty()) {
    return FrequentSet(std::vector<FrequentItemset>{});
  }
  return fpgrowth_rows(db, nullptr, /*bodies_only=*/false,
                       db.min_count_for(options.min_support),
                       options.max_itemset_size);
}

FrequentSet fpgrowth_bodies(const TransactionDb& db,
                            const DynamicBitset& rows, std::size_t min_count,
                            std::size_t max_itemset_size) {
  BGL_REQUIRE(max_itemset_size >= 1, "max itemset size must be >= 1");
  BGL_REQUIRE(min_count >= 1, "minimum support count must be >= 1");
  return fpgrowth_rows(db, &rows, /*bodies_only=*/true, min_count,
                       max_itemset_size);
}

}  // namespace bglpred::oracles
