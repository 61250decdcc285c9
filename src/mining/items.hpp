// Item encoding for association-rule mining.
//
// Transactions ("event-sets", §3.2.2) mix two kinds of items:
//   * body items  — non-fatal subcategories observed in the rule
//     generation window before a failure;
//   * label items — the fatal subcategory the event-set was built around.
// Labels are offset into a disjoint id range so a single itemset
// representation carries both, and rule generation can require "exactly
// one label in the head".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "raslog/record.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

/// Mining item id. Body items are subcategory ids; label items are
/// subcategory ids offset by kLabelBase.
using Item = std::uint32_t;

inline constexpr Item kLabelBase = 0x10000;

constexpr Item body_item(SubcategoryId subcat) { return subcat; }
constexpr Item label_item(SubcategoryId subcat) {
  return kLabelBase + subcat;
}
constexpr bool is_label(Item item) { return item >= kLabelBase; }
constexpr SubcategoryId subcat_of(Item item) {
  return static_cast<SubcategoryId>(is_label(item) ? item - kLabelBase
                                                   : item);
}

/// A sorted set of distinct items.
using Itemset = std::vector<Item>;

/// True if `needle` (sorted) is a subset of `haystack` (sorted).
bool is_subset(const Itemset& needle, const Itemset& haystack);

/// Renders an itemset using catalog names, labels suffixed with '!'.
std::string itemset_to_string(const Itemset& items);

// ---- the closed item universe ------------------------------------------
//
// Every item names a catalog subcategory: body items are subcategories
// [0, kExpectedSubcategories), label items the same ids offset by
// kLabelBase. ItemBitset (common/bitset.hpp) splits its 256 bits into
// two slots, body items in bits [0, kItemBodyBits) and label items in
// bits [kItemBodyBits, 2 * kItemBodyBits); items.cpp static_asserts that
// the catalog fits the slot, so a Table-3 extension that crosses the
// width fails the build. Items are checked once, where they enter mining
// (extraction, TransactionDb appends, RuleSet construction); past that
// boundary every item has a bit and no path handles anything else.

inline constexpr std::size_t kItemBodyBits = ItemBitset::kBits / 2;

/// Thrown when an item or subcategory outside the catalog reaches mining.
class ItemOutOfUniverse : public InvalidArgument {
 public:
  explicit ItemOutOfUniverse(Item item);
  Item item() const { return item_; }

 private:
  Item item_;
};

/// True if `subcat` is a catalog subcategory (kUnclassified is not).
constexpr bool in_catalog(SubcategoryId subcat) {
  return subcat < kExpectedSubcategories;
}

/// True if `item` is a body or label item of a catalog subcategory.
constexpr bool in_universe(Item item) {
  return item < kLabelBase ? item < kExpectedSubcategories
                           : item - kLabelBase < kExpectedSubcategories;
}

/// Throws ItemOutOfUniverse unless in_universe(item).
void require_in_universe(Item item);

/// Dense bit index of an item inside the universe.
constexpr std::size_t item_bit(Item item) {
  return is_label(item) ? kItemBodyBits + (item - kLabelBase) : item;
}

/// The item whose dense bit is `bit` (the inverse of item_bit).
constexpr Item bit_item(std::size_t bit) {
  return bit < kItemBodyBits
             ? body_item(static_cast<SubcategoryId>(bit))
             : label_item(static_cast<SubcategoryId>(bit - kItemBodyBits));
}

/// The bits of every item in the universe.
const ItemBitset& universe_bits();

/// Encodes a set of items; throws ItemOutOfUniverse for an item outside
/// the universe.
ItemBitset encode_bitset(std::span<const Item> items);

/// The items of `bits`, ascending (the inverse of encode_bitset).
Itemset decode_bitset(const ItemBitset& bits);

}  // namespace bglpred
