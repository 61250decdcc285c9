// Little-endian wire primitives shared by every binary format in the
// repo (raslog/binary_io, mining rule serialization, the online-engine
// checkpoint). Byte order is fixed little-endian regardless of host so
// files and checkpoints are portable; doubles travel as their IEEE-754
// bit pattern. Readers throw ParseError on short reads, so truncation is
// always a diagnosable error, never silent garbage.
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace bglpred::wire {

/// Encodes an integral value into `sizeof(T)` raw bytes at `data`,
/// little-endian. Lets a fixed-layout header be built in a local buffer
/// and appended as one block.
template <typename T>
void encode(char* data, T value) {
  const auto v = static_cast<std::uint64_t>(value);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    data[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Appends an integral value to a byte buffer, little-endian, as one
/// block (one capacity check, not one per byte).
template <typename T>
void append(std::string& out, T value) {
  char buf[sizeof(T)];
  encode<T>(buf, value);
  out.append(buf, sizeof(T));
}

/// Decodes an integral value from a raw byte pointer, little-endian.
template <typename T>
T decode(const char* data) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
         << (8 * i);
  }
  return static_cast<T>(v);
}

/// Reads exactly `n` bytes or throws ParseError naming `what`.
inline void read_exact(std::istream& is, char* buffer, std::size_t n,
                       const char* what) {
  is.read(buffer, static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n) {
    throw ParseError(std::string("binary input truncated reading ") + what);
  }
}

/// Writes an integral value to a stream, little-endian.
template <typename T>
void write(std::ostream& os, T value) {
  char buf[sizeof(T)];
  encode<T>(buf, value);
  os.write(buf, sizeof(T));
}

/// Reads an integral value or throws ParseError naming `what`.
template <typename T>
T read(std::istream& is, const char* what) {
  char buf[sizeof(T)];
  read_exact(is, buf, sizeof(T), what);
  return decode<T>(buf);
}

/// Doubles travel as their IEEE-754 bit pattern in a u64.
inline void write_double(std::ostream& os, double value) {
  write<std::uint64_t>(os, std::bit_cast<std::uint64_t>(value));
}

inline double read_double(std::istream& is, const char* what) {
  return std::bit_cast<double>(read<std::uint64_t>(is, what));
}

/// Length-prefixed (u32) string. `max_length` guards against reading a
/// multi-gigabyte "string" out of a corrupt length field.
inline void write_string(std::ostream& os, std::string_view s) {
  write<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& is, const char* what,
                               std::size_t max_length = (1u << 20)) {
  const auto len = read<std::uint32_t>(is, what);
  if (len > max_length) {
    throw ParseError(std::string("binary string implausibly long reading ") +
                     what);
  }
  std::string s(len, '\0');
  if (len > 0) {
    read_exact(is, s.data(), len, what);
  }
  return s;
}

/// Fixed 4-byte section tags make checkpoint sections self-describing:
/// a reader that lands on the wrong offset fails immediately with the
/// expected/actual tag names instead of decoding garbage.
inline void write_tag(std::ostream& os, std::string_view tag) {
  os.write(tag.data(), static_cast<std::streamsize>(tag.size()));
}

inline void expect_tag(std::istream& is, std::string_view tag) {
  std::string got(tag.size(), '\0');
  read_exact(is, got.data(), got.size(), "section tag");
  if (got != tag) {
    throw ParseError("binary section tag mismatch: expected '" +
                     std::string(tag) + "', got '" + got + "'");
  }
}

}  // namespace bglpred::wire
