// String interning.
//
// RAS logs repeat a small vocabulary of entry-data strings, facility names,
// and location codes millions of times. The preprocessing and mining layers
// work on 32-bit interned ids instead of strings: comparisons become integer
// compares and transactions become small integer vectors.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bglpred {

/// Identifier of an interned string. Dense, starting at 0.
using StringId = std::uint32_t;

/// Sentinel for "no string".
inline constexpr StringId kInvalidStringId = ~StringId{0};

/// Append-only string interner. Not thread-safe; each pipeline owns one.
///
/// Storage is a deque so element addresses are stable and the index can
/// key string_views into the stored strings without re-hashing on growth.
class StringPool {
 public:
  /// Interns `s`, returning its id; repeated calls with equal content
  /// return the same id.
  StringId intern(std::string_view s);

  /// intern(s) for streams whose strings mostly repeat the one before:
  /// returns `previous` without hashing when `s` equals the string stored
  /// under it (the pool's own copy, so `s` may view a buffer the caller
  /// has since refilled). kInvalidStringId means no previous string.
  StringId intern_after(StringId previous, std::string_view s) {
    if (previous < strings_.size() && strings_[previous] == s) {
      return previous;
    }
    return intern(s);
  }

  /// Looks up an already-interned string; returns kInvalidStringId if
  /// absent (never inserts).
  StringId find(std::string_view s) const;

  /// Resolves an id back to its string. Requires a valid id.
  const std::string& str(StringId id) const;

  std::size_t size() const { return strings_.size(); }

 private:
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, StringId> index_;
};

}  // namespace bglpred
