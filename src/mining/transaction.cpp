#include "mining/transaction.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.hpp"
#include "common/error.hpp"

namespace bglpred {

const DynamicBitset* VerticalIndex::column(Item item) const {
  if (!in_universe(item) || columns_[item_bit(item)].empty_words()) {
    return nullptr;
  }
  return &columns_[item_bit(item)];
}

std::size_t VerticalIndex::support(const Itemset& items) const {
  ItemBitset bits;
  for (const Item item : items) {
    if (column(item) == nullptr) {
      return 0;  // never occurs, or cannot occur
    }
    bits.set(item_bit(item));
  }
  return support(bits);
}

std::size_t VerticalIndex::support(const ItemBitset& items,
                                   std::size_t stop_at) const {
  // The columns to intersect, and the width they share: words past the
  // narrowest column are all-zero in the AND.
  std::array<const std::uint64_t*, ItemBitset::kBits> cols;
  std::size_t n = 0;
  std::size_t words = SIZE_MAX;
  items.for_each_set([&](std::size_t bit) {
    cols[n++] = columns_[bit].words();
    words = std::min(words, columns_[bit].word_count());
  });
  if (n == 0) {
    return transaction_count_;  // every transaction contains the empty set
  }
  std::size_t count = 0;
  for (std::size_t w = 0; w < words && count < stop_at; ++w) {
    std::uint64_t x = cols[0][w];
    for (std::size_t i = 1; i < n; ++i) {
      x &= cols[i][w];
    }
    count += static_cast<std::size_t>(std::popcount(x));
  }
  return count;
}

void TransactionDb::add_row(const ItemBitset& items) {
  if (!items.is_subset_of(universe_bits())) {
    items.for_each_set(
        [](std::size_t bit) { require_in_universe(bit_item(bit)); });
  }
  // bgl:hot-begin(rule-extract)
  items.for_each_set([&](std::size_t bit) { append_item(bit_item(bit)); });
  end_row();
  // bgl:hot-end
}

void TransactionDb::add_sorted(std::span<const Item> items) {
  for (const Item item : items) {
    require_in_universe(item);
  }
  for (const Item item : items) {
    append_item(item);
  }
  end_row();
}

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
