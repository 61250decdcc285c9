// Reference implementations of the wire primitives the serve protocol,
// log store and checkpoints build on, as first written: the bytewise
// table-driven CRC-32 loop and the one-push_back-per-byte little-endian
// append. common/crc32.hpp (slicing-by-8) and wire::append (one block
// append) must reproduce them bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace bglpred::oracles {

/// Bytewise CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), one
/// table lookup per byte; same arguments and result as bglpred::crc32.
std::uint32_t reference_crc32(std::string_view data, std::uint32_t seed = 0);

/// Per-byte little-endian append; same output as wire::append<T>.
template <typename T>
void reference_append(std::string& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff));
  }
}

}  // namespace bglpred::oracles
