#include "oracles/wire_oracles.hpp"

#include <array>

namespace bglpred::oracles {

namespace {
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[n] = c;
  }
  return table;
}
}  // namespace

std::uint32_t reference_crc32(std::string_view data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace bglpred::oracles
