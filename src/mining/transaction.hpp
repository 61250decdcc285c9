// Transaction database for frequent-itemset mining.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.hpp"
#include "common/check.hpp"
#include "mining/items.hpp"

namespace bglpred {

/// One transaction: a sorted set of distinct items (body items plus at
/// most one label item in the event-set construction).
using Transaction = Itemset;

/// Vertical ("tid-list") index over a transaction collection: one bitset
/// per item whose bit t is set iff transaction t contains the item. An
/// itemset's absolute support is then popcount of the word-wise AND of
/// its item columns — the layout Apriori candidate counting and the
/// per-label confidence pass run on.
///
/// The index is kept current as rows are appended: each append sets the
/// new row's bit in its items' columns, and an item's first occurrence
/// inserts its column at its sorted position. Bits are only ever set at
/// the newest row, so a column is only as wide as its last set bit:
/// columns of items confined to a prefix of the database (the label
/// items of an event-set database, whose positive windows come first)
/// stay short, and so does every intersection with them.
class VerticalIndex {
 public:
  std::size_t transaction_count() const { return transaction_count_; }

  /// Every item that occurs, ascending; parallel to columns().
  const std::vector<Item>& items() const { return items_; }
  const std::vector<DynamicBitset>& columns() const { return columns_; }

  /// The item's transaction bitset, or nullptr if the item never occurs.
  const DynamicBitset* column(Item item) const;

  /// Absolute support of an itemset: popcount of the AND of its columns.
  std::size_t support(const Itemset& items) const;

  // bgl:hot-begin(rule-extract)
  /// Sets row transaction_count()'s bit in `item`'s column.
  void set_in_open_row(Item item) {
    const std::size_t slot = dense_slot(item);
    if (slot != kNoItemBit && dense_[slot] != 0) {
      columns_[dense_[slot] - 1u].set(transaction_count_);
    } else {
      set_in_open_row_slow(item);
    }
  }

  /// Closes the open row: transaction_count() grows by one.
  void close_row() { ++transaction_count_; }
  // bgl:hot-end

 private:
  // Dense column slot for items inside the ItemBitset universe (exactly
  // the body and label items item_bit() encodes), or kNoItemBit.
  static std::size_t dense_slot(Item item) {
    const std::size_t bit = item_bit(item);
    if (bit == kNoItemBit) {
      return kNoItemBit;
    }
    const Item round_trip = is_label(item) ? label_item(subcat_of(item))
                                           : body_item(subcat_of(item));
    return round_trip == item ? bit : kNoItemBit;
  }

  // Position of `item` in items_, or items_.size() if it never occurs.
  std::size_t position(Item item) const;

  // set_in_open_row() for an item without a dense column: a non-catalog
  // item, or a first occurrence.
  void set_in_open_row_slow(Item item);

  std::size_t transaction_count_ = 0;
  std::vector<Item> items_;
  std::vector<DynamicBitset> columns_;
  // Catalog items (the ItemBitset universe) find their column through a
  // flat slot array, no search per occurrence: the column's position in
  // items_ plus one, 0 while the item has not occurred. Anything else
  // (synthetic tests only) is found by binary search over items_.
  std::array<std::uint32_t, ItemBitset::kBits> dense_{};
};

/// Minimum absolute count corresponding to a relative support threshold
/// over `transactions` transactions (ceil, but at least 1).
std::size_t min_count_for(double relative_support, std::size_t transactions);

/// An append-only collection of transactions. Rows are stored flat (one
/// items array cut by row ends), and the vertical index is written as
/// rows are appended, so no pass ever rebuilds it from the rows.
class TransactionDb {
 public:
  /// Appends a transaction; items are sorted and deduplicated here.
  void add(Transaction t);

  /// Appends a transaction whose items are already sorted and distinct
  /// (checked in debug builds).
  void add_sorted(std::span<const Item> items);

  /// Row-at-a-time append for builders that emit items in ascending
  /// order: push_item() each item of row size() (strictly ascending,
  /// checked in debug builds), then end_row(). No row buffer is built:
  /// each item lands in the flat array and its column bit at once, so
  /// query the database only between rows.
  // bgl:hot-begin(rule-extract)
  void push_item(Item item) {
    BGL_DCHECK(items_.size() == (ends_.empty() ? 0 : ends_.back()) ||
                   items_.back() < item,
               "a row's items must arrive strictly ascending");
    items_.push_back(item);
    index_.set_in_open_row(item);
  }
  void end_row() {
    ends_.push_back(items_.size());
    index_.close_row();
  }
  // bgl:hot-end

  /// Reserves room for `rows` rows and as many items (one per row).
  void reserve(std::size_t rows) {
    ends_.reserve(rows);
    items_.reserve(rows);
  }

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Row `i`'s items, ascending. Valid until the next append.
  std::span<const Item> row(std::size_t i) const;

  /// Absolute support (number of containing transactions) of an itemset.
  /// Uses the vertical index: a few word-wise ANDs + popcount.
  std::size_t absolute_support(const Itemset& items) const {
    return index_.support(items);
  }

  /// The item -> transaction-bitset index, current after every append.
  const VerticalIndex& vertical_index() const { return index_; }

  /// min_count_for(relative_support, size()).
  std::size_t min_count_for(double relative_support) const {
    return bglpred::min_count_for(relative_support, size());
  }

 private:
  // Row i is items_[i == 0 ? 0 : ends_[i - 1], ends_[i]); items past
  // ends_.back() belong to the open row.
  std::vector<std::size_t> ends_;
  std::vector<Item> items_;
  VerticalIndex index_;
};

}  // namespace bglpred
