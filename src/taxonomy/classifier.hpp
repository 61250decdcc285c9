// Hierarchical event categorization (Phase 1, step 1).
//
// Assigns each record a subcategory from the catalog by combining the
// FACILITY field with a phrase match against ENTRY_DATA, falling back to
// facility- and severity-based heuristics when the text matches no known
// phrase — mirroring the paper's use of LOCATION, FACILITY, and ENTRY_DATA
// for categorization.
//
// The result depends only on (entry text, facility, severity), and a log
// repeats a small vocabulary of entry texts millions of times (full-scale
// ANL: 3.80 M records, 62,653 distinct entries). The offline paths
// therefore classify through a ClassificationMemo: one 4-byte slot per
// pool id remembering the last (facility, severity) it was computed for
// and its answer. A slot is reused only when that key matches, and is
// recomputed and overwritten otherwise, so memoised output equals
// per-record classify() by construction, even when one text arrives
// under several facilities or severities. classify_all keeps a memo local
// to the call; the fused ingest (preprocess/fused_ingest.cpp) owns one
// that grows with its pool. EventClassifier itself stays const and
// stateless, and OnlineEngine, which sees wire text with no pool id,
// calls classify() directly.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "raslog/log.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

/// Statistics from a classification pass.
struct ClassificationStats {
  std::size_t classified_by_phrase = 0;  ///< matched a catalog phrase
  std::size_t classified_by_fallback = 0;  ///< facility/severity heuristic
  std::size_t total = 0;

  /// Per-main-category record counts, indexed by MainCategory.
  std::vector<std::size_t> per_main =
      std::vector<std::size_t>(kMainCategoryCount, 0);
};

/// Per-pool-id cache of classify() results (see file comment). Serves
/// exactly one StringPool: ids index its slots, so a memo must never be
/// reused across pools. 4 bytes per distinct entry.
class ClassificationMemo {
 public:
  ClassificationMemo() = default;
  /// Pre-sizes the slots for a pool of `pool_size` strings; the memo
  /// still grows on demand when the pool does.
  explicit ClassificationMemo(std::size_t pool_size) : slots_(pool_size) {}

 private:
  friend class EventClassifier;

  static constexpr std::uint8_t kEmpty = 0xff;  ///< no facility has it
  static constexpr std::uint16_t kPhraseBit = 0x8000;
  static_assert(kExpectedSubcategories < kPhraseBit,
                "a slot packs the id and the phrase bit into 16 bits");

  struct Slot {
    std::uint8_t facility = kEmpty;  ///< key: Facility computed for
    std::uint8_t severity = 0;       ///< key: Severity computed for
    std::uint16_t result = 0;  ///< SubcategoryId | kPhraseBit if matched
  };

  std::vector<Slot> slots_;
};

/// Stateless (after construction) classifier over the global catalog.
class EventClassifier {
 public:
  EventClassifier();

  /// Classifies a single entry-data text + facility pair; returns the
  /// subcategory id, or the facility fallback if no phrase matches.
  SubcategoryId classify(std::string_view entry_data, Facility facility,
                         Severity severity) const;

  /// Same, additionally reporting (when `matched_phrase` is non-null)
  /// whether a catalog phrase matched or the facility/severity fallback
  /// decided — the attribution classify_all tallies.
  SubcategoryId classify(std::string_view entry_data, Facility facility,
                         Severity severity, bool* matched_phrase) const;

  /// Per-record form of classify_all, without a memo: stamps
  /// `rec.subcategory` from `entry_data` and accumulates `stats` exactly
  /// as one classify_all iteration would (the reference the memoised
  /// overload below is tested against).
  void classify_record(std::string_view entry_data, RasRecord& rec,
                       ClassificationStats& stats) const;

  /// Memoised form for records whose `entry_data` id belongs to `pool`:
  /// same subcategory and tallies as classify_record(pool.str(id), ...),
  /// but the phrase scan runs only when `memo` holds no answer for
  /// (id, facility, severity). `memo` must serve `pool` alone.
  void classify_record(const StringPool& pool, RasRecord& rec,
                       ClassificationStats& stats,
                       ClassificationMemo& memo) const;

  /// Classifies every record in the log in place (fills
  /// RasRecord::subcategory) and returns statistics.
  ClassificationStats classify_all(RasLog& log) const;

 private:
  SubcategoryId fallback(Facility facility, Severity severity) const;
  static void tally(SubcategoryId id, bool matched_phrase,
                    ClassificationStats& stats);

  // Phrase index: per facility, the (phrase, id) list to scan. Facility
  // narrows candidates so the text scan is short.
  std::vector<std::vector<std::pair<std::string_view, SubcategoryId>>>
      by_facility_;
};

}  // namespace bglpred
