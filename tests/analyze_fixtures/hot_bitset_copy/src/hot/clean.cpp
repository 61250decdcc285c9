#include "hot/index.hpp"
// bgl:hot-begin(match-demo)
// References, pointers and fixed-width ItemBitset values are fine, and
// so is a static call that only counts.
std::size_t count_clean(const Index& index, const ItemBitset& observed) {
  const DynamicBitset& column = index.column(0);
  const DynamicBitset* other = index.find(1);
  ItemBitset live = observed;
  live.set(3);
  return DynamicBitset::and_count(column, *other) + live.count();
}
// bgl:hot-end
