#include "mining/transaction.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {

std::size_t VerticalIndex::position(Item item) const {
  const std::size_t slot = dense_slot(item);
  if (slot != kNoItemBit) {
    return dense_[slot] == 0 ? items_.size() : dense_[slot] - 1u;
  }
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  return it == items_.end() || *it != item
             ? items_.size()
             : static_cast<std::size_t>(it - items_.begin());
}

const DynamicBitset* VerticalIndex::column(Item item) const {
  const std::size_t pos = position(item);
  return pos == items_.size() ? nullptr : &columns_[pos];
}

std::size_t VerticalIndex::support(const Itemset& items) const {
  if (items.empty()) {
    return transaction_count_;  // every transaction contains the empty set
  }
  const DynamicBitset* first = column(items[0]);
  if (first == nullptr) {
    return 0;
  }
  if (items.size() == 1) {
    return first->count();
  }
  if (items.size() == 2) {
    const DynamicBitset* second = column(items[1]);
    return second == nullptr ? 0
                             : DynamicBitset::and_count(*first, *second);
  }
  // The per-label confidence pass asks once per frequent body; a scratch
  // bitset reused across calls keeps that from allocating every time
  // (copy-assignment reuses its capacity).
  thread_local DynamicBitset acc;
  acc = *first;
  for (std::size_t i = 1; i < items.size(); ++i) {
    const DynamicBitset* col = column(items[i]);
    if (col == nullptr) {
      return 0;
    }
    acc.and_with(*col);
  }
  return acc.count();
}

// bgl:hot-begin(rule-extract)
// A column is inserted, at its sorted position, only on the item's
// first occurrence.
void VerticalIndex::set_in_open_row_slow(Item item) {
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  const auto pos = static_cast<std::size_t>(it - items_.begin());
  if (it == items_.end() || *it != item) {
    items_.insert(it, item);
    columns_.insert(columns_.begin() + static_cast<std::ptrdiff_t>(pos),
                    DynamicBitset());
    // Columns at or after pos moved up one place.
    for (std::uint32_t& p : dense_) {
      if (p > pos) {
        ++p;
      }
    }
    const std::size_t slot = dense_slot(item);
    if (slot != kNoItemBit) {
      dense_[slot] = static_cast<std::uint32_t>(pos + 1);
    }
  }
  columns_[pos].set(transaction_count_);
}

void TransactionDb::add_sorted(std::span<const Item> items) {
  for (const Item item : items) {
    push_item(item);
  }
  end_row();
}
// bgl:hot-end

void TransactionDb::add(Transaction t) {
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  add_sorted(t);
}

std::span<const Item> TransactionDb::row(std::size_t i) const {
  BGL_CHECK_RANGE(i, ends_.size());
  const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
  return std::span<const Item>(items_).subspan(begin, ends_[i] - begin);
}

std::size_t min_count_for(double relative_support, std::size_t transactions) {
  BGL_REQUIRE(relative_support >= 0.0 && relative_support <= 1.0,
              "relative support must be in [0, 1]");
  const double raw = relative_support * static_cast<double>(transactions);
  const auto count = static_cast<std::size_t>(std::ceil(raw - 1e-9));
  return std::max<std::size_t>(1, count);
}

}  // namespace bglpred
