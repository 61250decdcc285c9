#include "mining/apriori.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {
namespace {

// No slot: the item is not frequent among the mined rows.
constexpr std::uint16_t kNoSlot = 0xffff;

// Depth-first output in level order: a stable sort by size keeps the
// lexicographic order within each size.
FrequentSet level_order(const std::vector<FrequentBits>& found) {
  std::vector<FrequentItemset> result;
  result.reserve(found.size());
  for (const FrequentBits& f : found) {
    result.push_back({decode_bitset(f.items), f.count});
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const FrequentItemset& a, const FrequentItemset& b) {
                     return a.items.size() < b.items.size();
                   });
  return FrequentSet(std::move(result));
}

}  // namespace

// bgl:hot-begin(rule-mine)
void ItemsetMiner::mine(const TransactionDb& db,
                        std::span<const std::uint32_t> rows, bool bodies_only,
                        std::size_t min_count, std::size_t max_itemset_size,
                        std::vector<FrequentBits>& out) {
  BGL_CHECK(min_count >= 1 && max_itemset_size >= 1,
            "mining needs a positive count floor and itemset size");
  words_ = (rows.size() + 63) / 64;
  min_count_ = min_count;
  max_itemset_size_ = max_itemset_size;
  out_ = &out;

  // Pass 1: each item's count over the rows. A row's items ascend and
  // label items sort after body items, so hiding labels ends the row at
  // its first label.
  std::array<std::uint32_t, ItemBitset::kBits> counts{};
  for (const std::uint32_t r : rows) {
    for (const Item item : db.row(r)) {
      if (bodies_only && is_label(item)) {
        break;
      }
      ++counts[item_bit(item)];
    }
  }
  // The frequent items, ascending, each with a slot in the first level.
  std::array<std::uint16_t, ItemBitset::kBits> slot;
  slot.fill(kNoSlot);
  std::size_t frequent = 0;
  for (std::size_t bit = 0; bit < ItemBitset::kBits; ++bit) {
    if (counts[bit] >= min_count) {
      slot[bit] = static_cast<std::uint16_t>(frequent++);
    }
  }
  if (frequent == 0) {
    return;
  }
  // No itemset is deeper than the number of frequent items.
  const std::size_t depth = std::min(max_itemset_size, frequent);
  if (levels_.size() < depth) {
    levels_.resize(depth);
  }
  Level& top = levels_[0];
  top.bits.clear();
  top.counts.clear();
  for (std::size_t bit = 0; bit < ItemBitset::kBits; ++bit) {
    if (slot[bit] != kNoSlot) {
      top.bits.push_back(static_cast<std::uint16_t>(bit));
      top.counts.push_back(counts[bit]);
    }
  }
  top.tids.assign(frequent * words_, 0);
  // Pass 2: row j of the selection sets bit j of its frequent items'
  // tidsets, so tidsets are as wide as the selection, not the database.
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const std::uint64_t bit = std::uint64_t{1} << (j % 64);
    for (const Item item : db.row(rows[j])) {
      if (bodies_only && is_label(item)) {
        break;
      }
      const std::uint16_t s = slot[item_bit(item)];
      if (s != kNoSlot) {
        top.tids[s * words_ + j / 64] |= bit;
      }
    }
  }
  grow(0, ItemBitset{});
}

// Emits each member of the class at `depth` (prefix plus the member's
// item), then mines the class of its frequent extensions one depth down.
void ItemsetMiner::grow(std::size_t depth, const ItemBitset& prefix) {
  const Level& cur = levels_[depth];
  const std::size_t members = cur.bits.size();
  for (std::size_t a = 0; a < members; ++a) {
    ItemBitset items = prefix;
    items.set(cur.bits[a]);
    out_->push_back({items, cur.counts[a]});
    if (depth + 1 >= max_itemset_size_ || a + 1 == members) {
      continue;
    }
    Level& next = levels_[depth + 1];
    next.bits.clear();
    next.counts.clear();
    const std::size_t need = (members - a - 1) * words_;
    if (next.tids.size() < need) {
      next.tids.resize(need);
    }
    const std::uint64_t* ta = &cur.tids[a * words_];
    for (std::size_t b = a + 1; b < members; ++b) {
      const std::uint64_t* tb = &cur.tids[b * words_];
      std::uint64_t* dst = &next.tids[next.bits.size() * words_];
      std::size_t count = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        dst[w] = ta[w] & tb[w];
        count += static_cast<std::size_t>(std::popcount(dst[w]));
      }
      if (count >= min_count_) {
        next.bits.push_back(cur.bits[b]);
        next.counts.push_back(count);
      }
    }
    if (!next.bits.empty()) {
      grow(depth + 1, items);
    }
  }
}
// bgl:hot-end

FrequentSet apriori(const TransactionDb& db, const MiningOptions& options) {
  BGL_REQUIRE(options.max_itemset_size >= 1, "max itemset size must be >= 1");
  std::vector<std::uint32_t> rows(db.size());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<FrequentBits> found;
  if (!rows.empty()) {
    ItemsetMiner().mine(db, rows, /*bodies_only=*/false,
                        db.min_count_for(options.min_support),
                        options.max_itemset_size, found);
  }
  return level_order(found);
}

FrequentSet apriori_bodies(const TransactionDb& db, const DynamicBitset& rows,
                           std::size_t min_count,
                           std::size_t max_itemset_size) {
  BGL_REQUIRE(max_itemset_size >= 1, "max itemset size must be >= 1");
  BGL_REQUIRE(min_count >= 1, "minimum support count must be >= 1");
  std::vector<std::uint32_t> selected;
  rows.for_each_set([&](std::size_t r) {
    if (r < db.size()) {
      selected.push_back(static_cast<std::uint32_t>(r));
    }
    return false;
  });
  std::vector<FrequentBits> found;
  ItemsetMiner().mine(db, selected, /*bodies_only=*/true, min_count,
                      max_itemset_size, found);
  return level_order(found);
}

}  // namespace bglpred
