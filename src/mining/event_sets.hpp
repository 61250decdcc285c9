// Event-set extraction (§3.2.2 Step 1).
//
// For each fatal event f in a preprocessed log, the event-set is the set
// of distinct *non-fatal* subcategories observed in the rule generation
// window before f, plus the label item for f's subcategory. The window
// holds the records that come before f in the log's order and whose time
// lies in (t_f - W, t_f]: the open interval (t_f - W, t_f) plus any
// record stamped in f's own second that sorts before f (RecordTimeOrder
// breaks same-second ties by location, severity and entry data). A
// same-second record sorting after f is not in f's window, and a record
// exactly at t_f - W never is. Unclassified records contribute nothing,
// and a subcategory outside the catalog throws ItemOutOfUniverse before
// any window is built.
// Fatal events with no precursors yield label-only transactions; they
// stay in the database (they contribute to the support denominator and
// measure the "no precursor" fraction the paper reports) but generate no
// rules.
//
// Extraction costs each window its own records: a window sets its
// records' body bits in a fixed-width ItemBitset and appends them,
// already sorted, as one row of the database, with no per-window item
// vector. Negative windows find their first record through a bucketed
// search over a contiguous time array.
#pragma once

#include "common/time.hpp"
#include "mining/transaction.hpp"
#include "raslog/log.hpp"

namespace bglpred {

/// Extraction statistics reported alongside the transactions.
struct EventSetStats {
  std::size_t fatal_events = 0;
  std::size_t with_precursors = 0;
  std::size_t without_precursors = 0;

  /// Fraction of fatal events lacking any non-fatal precursor (the
  /// quantity behind the rule-based method's recall ceiling).
  double no_precursor_fraction() const {
    return fatal_events == 0
               ? 0.0
               : static_cast<double>(without_precursors) /
                     static_cast<double>(fatal_events);
  }
};

/// Builds the event-set transaction database from a time-sorted,
/// categorized log (or view) using rule generation window `window`
/// (seconds).
///
/// `negative_ratio` adds that many label-free *negative* windows per
/// fatal event, sampled (deterministically from `seed`) at instants t not
/// followed by a failure within `window`; a negative window holds every
/// record with time in (t - W, t]. Negatives make a body's
/// support count reflect how often it occurs when nothing fails, so rule
/// confidence estimates P(failure | body) instead of the
/// conditioned-on-failure quantity mined from positive windows alone.
TransactionDb extract_event_sets(const LogView& log, Duration window,
                                 EventSetStats* stats = nullptr,
                                 double negative_ratio = 0.0,
                                 std::uint64_t seed = 0x5eed);

}  // namespace bglpred
