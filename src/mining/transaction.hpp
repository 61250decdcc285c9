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
/// its item columns — the layout the per-label confidence pass runs on.
///
/// Columns are a flat array indexed by the items' dense bits (the item
/// universe is closed, see mining/items.hpp), kept current as rows are
/// appended: each append sets the new row's bit in its items' columns.
/// Bits are only ever set at the newest row, so a column is only as wide
/// as its last set bit: columns of items confined to a prefix of the
/// database (the label items of an event-set database, whose positive
/// windows come first) stay short, and so does every intersection with
/// them.
class VerticalIndex {
 public:
  std::size_t transaction_count() const { return transaction_count_; }

  /// The item's transaction bitset, or nullptr if the item never occurs
  /// (or lies outside the item universe).
  const DynamicBitset* column(Item item) const;

  /// Absolute support of an itemset: popcount of the AND of its columns.
  std::size_t support(const Itemset& items) const;

  /// Absolute support of the items in `items`, counted word by word over
  /// the AND of their columns. The count stops growing once it reaches
  /// `stop_at`: the result is exact when below `stop_at`, and otherwise
  /// only known to be at least `stop_at`. No allocation.
  std::size_t support(const ItemBitset& items,
                      std::size_t stop_at = SIZE_MAX) const;

  // bgl:hot-begin(rule-extract)
  /// Sets row transaction_count()'s bit in the column of the item with
  /// dense bit `bit`.
  void set_in_open_row(std::size_t bit) {
    columns_[bit].set(transaction_count_);
  }

  /// Closes the open row: transaction_count() grows by one.
  void close_row() { ++transaction_count_; }
  // bgl:hot-end

 private:
  std::size_t transaction_count_ = 0;
  // A column holds no words until its item first occurs.
  std::array<DynamicBitset, ItemBitset::kBits> columns_;
};

/// Minimum absolute count corresponding to a relative support threshold
/// over `transactions` transactions (ceil, but at least 1).
std::size_t min_count_for(double relative_support, std::size_t transactions);

/// An append-only collection of transactions over the closed item
/// universe. Rows are stored flat (one items array cut by row ends), and
/// the vertical index is written as rows are appended, so no pass ever
/// rebuilds it from the rows. Every append checks its items against the
/// universe before it writes anything: an item outside it throws
/// ItemOutOfUniverse and leaves the database unchanged.
class TransactionDb {
 public:
  /// Appends a transaction; items are sorted and deduplicated here.
  void add(Transaction t);

  /// Appends a transaction whose items are already sorted and distinct
  /// (checked in debug builds).
  void add_sorted(std::span<const Item> items);

  /// Appends the transaction holding the items whose dense bits are set
  /// in `items`.
  void add_row(const ItemBitset& items);

  /// Row-at-a-time append for builders that emit items in ascending
  /// order: push_item() each item of row size() (strictly ascending,
  /// checked in debug builds), then end_row(). Query the database only
  /// between rows.
  void push_item(Item item) {
    require_in_universe(item);
    append_item(item);
  }
  void end_row() {
    ends_.push_back(items_.size());
    index_.close_row();
  }

  /// Reserves room for `rows` rows and as many items (one per row).
  void reserve(std::size_t rows) {
    ends_.reserve(rows);
    items_.reserve(rows);
  }

  std::size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }

  /// Row `i`'s items, ascending. Valid until the next append.
  std::span<const Item> row(std::size_t i) const;

  /// Absolute support (number of containing transactions) of an itemset
  /// (0 if it holds an item outside the universe). Uses the vertical
  /// index: a few word-wise ANDs + popcount.
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
  // bgl:hot-begin(rule-extract)
  // Appends an item already known to lie in the universe.
  void append_item(Item item) {
    BGL_DCHECK(items_.size() == (ends_.empty() ? 0 : ends_.back()) ||
                   items_.back() < item,
               "a row's items must arrive strictly ascending");
    items_.push_back(item);
    index_.set_in_open_row(item_bit(item));
  }
  // bgl:hot-end

  // Row i is items_[i == 0 ? 0 : ends_[i - 1], ends_[i]); items past
  // ends_.back() belong to the open row.
  std::vector<std::size_t> ends_;
  std::vector<Item> items_;
  VerticalIndex index_;
};

}  // namespace bglpred
