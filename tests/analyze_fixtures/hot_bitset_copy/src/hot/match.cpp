#include "hot/index.hpp"
// bgl:hot-begin(match-demo)
std::size_t count_matches(const Index& index, const Window& window) {
  DynamicBitset candidates = index.always();
  Itemset observed;
  for (const Item item : window.items()) {
    observed.push_back(item);
  }
  const DynamicBitset both =
      DynamicBitset::and_of(candidates, index.column(observed[0]));
  return both.count() + index.naive(Itemset{1, 2});
}
// bgl:hot-end
