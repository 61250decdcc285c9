#include "mining/items.hpp"

#include <string>

#include "taxonomy/catalog.hpp"

namespace bglpred {

bool is_subset(const Itemset& needle, const Itemset& haystack) {
  auto it = haystack.begin();
  for (Item want : needle) {
    while (it != haystack.end() && *it < want) {
      ++it;
    }
    if (it == haystack.end() || *it != want) {
      return false;
    }
    ++it;
  }
  return true;
}

// The whole point of the fixed width is that the catalog fits: growing
// Table 3 past the body slot must be a build error, not a silent hash of
// colliding bits.
static_assert(kExpectedSubcategories <= kItemBodyBits,
              "taxonomy catalog exceeds the ItemBitset body slot; widen "
              "ItemBitset::kBits in common/bitset.hpp");

ItemOutOfUniverse::ItemOutOfUniverse(Item item)
    : InvalidArgument("item " + std::to_string(item) +
                      " is outside the catalog item universe"),
      item_(item) {}

void require_in_universe(Item item) {
  if (!in_universe(item)) {
    throw ItemOutOfUniverse(item);
  }
}

const ItemBitset& universe_bits() {
  static const ItemBitset bits = [] {
    ItemBitset out;
    for (std::size_t s = 0; s < kExpectedSubcategories; ++s) {
      out.set(item_bit(body_item(static_cast<SubcategoryId>(s))));
      out.set(item_bit(label_item(static_cast<SubcategoryId>(s))));
    }
    return out;
  }();
  return bits;
}

ItemBitset encode_bitset(std::span<const Item> items) {
  ItemBitset bits;
  for (const Item item : items) {
    require_in_universe(item);
    bits.set(item_bit(item));
  }
  return bits;
}

Itemset decode_bitset(const ItemBitset& bits) {
  Itemset items;
  items.reserve(bits.count());
  bits.for_each_set([&](std::size_t bit) { items.push_back(bit_item(bit)); });
  return items;
}

std::string itemset_to_string(const Itemset& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) {
      out += ' ';
    }
    out += std::string(catalog().info(subcat_of(items[i])).name);
    if (is_label(items[i])) {
      out += '!';
    }
  }
  return out;
}

}  // namespace bglpred
