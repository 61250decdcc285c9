#include "mining/transaction.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {

namespace {

// Dense column slot for items inside the ItemBitset universe (exactly the
// body and label items item_bit() encodes), or kNoItemBit.
std::size_t dense_slot(Item item) {
  const std::size_t bit = item_bit(item);
  if (bit == kNoItemBit) {
    return kNoItemBit;
  }
  const Item round_trip = is_label(item) ? label_item(subcat_of(item))
                                         : body_item(subcat_of(item));
  return round_trip == item ? bit : kNoItemBit;
}

}  // namespace

VerticalIndex::VerticalIndex(const std::vector<Transaction>& transactions)
    : transaction_count_(transactions.size()) {
  // Catalog items land in a flat slot array (no lookup per occurrence);
  // anything else goes through a map.
  std::vector<std::pair<Item, DynamicBitset>> dense(ItemBitset::kBits);
  std::map<Item, DynamicBitset> overflow;
  for (std::size_t t = 0; t < transactions.size(); ++t) {
    for (const Item item : transactions[t]) {
      const std::size_t slot = dense_slot(item);
      if (slot == kNoItemBit) {
        overflow[item].set(t);
      } else {
        dense[slot].first = item;
        dense[slot].second.set(t);
      }
    }
  }
  std::vector<std::pair<Item, DynamicBitset>> all;
  for (auto& entry : dense) {
    if (!entry.second.empty_words()) {
      all.push_back(std::move(entry));
    }
  }
  for (auto& [item, bits] : overflow) {
    all.emplace_back(item, std::move(bits));
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  items_.reserve(all.size());
  columns_.reserve(all.size());
  for (auto& [item, bits] : all) {
    items_.push_back(item);
    columns_.push_back(std::move(bits));
  }
}

const DynamicBitset* VerticalIndex::column(Item item) const {
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  if (it == items_.end() || *it != item) {
    return nullptr;
  }
  return &columns_[static_cast<std::size_t>(it - items_.begin())];
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
  DynamicBitset acc = *first;
  for (std::size_t i = 1; i < items.size(); ++i) {
    const DynamicBitset* col = column(items[i]);
    if (col == nullptr) {
      return 0;
    }
    acc.and_with(*col);
  }
  return acc.count();
}

TransactionDb::TransactionDb(std::vector<Transaction> transactions)
    : transactions_(std::move(transactions)) {
  for (Transaction& t : transactions_) {
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
  }
}

TransactionDb::TransactionDb(const TransactionDb& other)
    : transactions_(other.transactions_) {}

TransactionDb& TransactionDb::operator=(const TransactionDb& other) {
  if (this != &other) {
    transactions_ = other.transactions_;
    index_.reset();
  }
  return *this;
}

TransactionDb::TransactionDb(TransactionDb&& other) noexcept
    : transactions_(std::move(other.transactions_)),
      index_(std::move(other.index_)) {}

TransactionDb& TransactionDb::operator=(TransactionDb&& other) noexcept {
  if (this != &other) {
    transactions_ = std::move(other.transactions_);
    index_ = std::move(other.index_);
  }
  return *this;
}

void TransactionDb::add(Transaction t) {
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  add_sorted(std::move(t));
}

const VerticalIndex& TransactionDb::vertical_index() const {
  const std::scoped_lock lock(index_mutex_);
  if (index_ == nullptr) {
    index_ = std::make_unique<VerticalIndex>(transactions_);
  }
  return *index_;
}

std::size_t TransactionDb::absolute_support(const Itemset& items) const {
  return vertical_index().support(items);
}

void TransactionDb::add_sorted(Transaction t) {
  BGL_DCHECK(std::adjacent_find(t.begin(), t.end(),
                                [](Item a, Item b) { return a >= b; }) ==
                 t.end(),
             "add_sorted needs strictly ascending items");
  transactions_.push_back(std::move(t));
  index_.reset();  // columns are one bit per transaction; now stale
}

std::size_t min_count_for(double relative_support, std::size_t transactions) {
  BGL_REQUIRE(relative_support >= 0.0 && relative_support <= 1.0,
              "relative support must be in [0, 1]");
  const double raw = relative_support * static_cast<double>(transactions);
  const auto count = static_cast<std::size_t>(std::ceil(raw - 1e-9));
  return std::max<std::size_t>(1, count);
}

}  // namespace bglpred
