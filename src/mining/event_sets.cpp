#include "mining/event_sets.hpp"

#include <algorithm>
#include <cstdint>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mining/items.hpp"

namespace bglpred {
namespace {

// Records that contribute no body item (fatal or unclassified) carry
// this spare body bit: the catalog never reaches it (items.cpp
// static_asserts the catalog fits below it), so the window loops set it
// without a branch per record and clear it once per window.
constexpr std::size_t kNoBody = kItemBodyBits - 1;
static_assert(kExpectedSubcategories <= kNoBody,
              "the spare body bit must lie past the catalog");

// Lower-bound search over a sorted time array through a bucket table:
// the span is cut into at most one bucket per record, and a bucket stores
// the first record at or after its start, so a query costs one table
// lookup plus a search within its bucket instead of a full-length binary
// search. The negative windows sample their instants uniformly over the
// span, and each full-length search missed cache at almost every step.
// Bucket widths are a power of two, so a time's bucket is a shift, not a
// division, and the table is built by two branch-free passes.
class TimeIndex {
 public:
  explicit TimeIndex(const std::vector<TimePoint>& times)
      : times_(times), begin_(times.front()) {
    BGL_REQUIRE(times.size() < UINT32_MAX, "too many records to index");
    const auto span = static_cast<std::uint64_t>(times.back() - begin_);
    while ((span >> shift_) > times.size()) {
      ++shift_;
    }
    const auto buckets = static_cast<std::size_t>(span >> shift_) + 1;
    // first_[b] = the first record whose bucket is b or later; the extra
    // slot past the last bucket holds times.size().
    first_.assign(buckets + 1, static_cast<std::uint32_t>(times.size()));
    for (std::size_t i = times.size(); i-- > 0;) {
      first_[bucket(times[i])] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t b = buckets; b-- > 0;) {
      first_[b] = std::min(first_[b], first_[b + 1]);
    }
  }

  /// Index of the first time >= t.
  std::size_t lower_bound(TimePoint t) const {
    if (t <= begin_) {
      return 0;
    }
    const std::size_t b = bucket(t);
    if (b + 1 >= first_.size()) {
      return times_.size();
    }
    // Every time in [first_[b], first_[b + 1]) lies in bucket b, which
    // holds t, so the answer lies in that range or at its end.
    const auto lo = times_.begin() + static_cast<std::ptrdiff_t>(first_[b]);
    const auto hi =
        times_.begin() + static_cast<std::ptrdiff_t>(first_[b + 1]);
    return static_cast<std::size_t>(std::lower_bound(lo, hi, t) -
                                    times_.begin());
  }

 private:
  // Bucket of a time at or after begin_.
  std::size_t bucket(TimePoint t) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(t - begin_) >>
                                    shift_);
  }

  const std::vector<TimePoint>& times_;
  TimePoint begin_;
  unsigned shift_ = 0;  // bucket width is 2^shift_ seconds
  std::vector<std::uint32_t> first_;
};

}  // namespace

TransactionDb extract_event_sets(const LogView& log, Duration window,
                                 EventSetStats* stats,
                                 double negative_ratio,
                                 std::uint64_t seed) {
  BGL_REQUIRE(window > 0, "rule generation window must be positive");
  // One pass over the view into contiguous arrays: record times (the
  // negative windows binary-search these rather than 40-byte records
  // behind the view's segment branch), each record's body bit (kNoBody
  // for fatal and unclassified records), and the fatal records'
  // positions. Subcategories are checked against the catalog here, so
  // the window loops below only ever see items inside the universe.
  const std::size_t n = log.size();
  std::vector<TimePoint> times(n);
  std::vector<std::uint8_t> bodies(n);
  std::vector<std::size_t> fatals;
  bool sorted = true;
  bool unlabeled_fatal = false;
  bool out_of_universe = false;
  Item outside = 0;  // an item of a subcategory past the catalog
  for (std::size_t i = 0; i < n; ++i) {
    const RasRecord& rec = log[i];
    times[i] = rec.time;
    sorted = sorted && (i == 0 || times[i - 1] <= rec.time);
    const bool classified = rec.subcategory != kUnclassified;
    if (classified && !in_catalog(rec.subcategory)) {
      out_of_universe = true;
      outside = rec.fatal() ? label_item(rec.subcategory)
                            : body_item(rec.subcategory);
    }
    if (rec.fatal()) {
      fatals.push_back(i);
      unlabeled_fatal = unlabeled_fatal || !classified;
      bodies[i] = kNoBody;
    } else {
      bodies[i] = static_cast<std::uint8_t>(
          in_catalog(rec.subcategory) ? rec.subcategory : kNoBody);
    }
  }
  BGL_REQUIRE(sorted, "log must be time-sorted");
  BGL_REQUIRE(!unlabeled_fatal,
              "fatal record lacks a subcategory; run preprocess first");
  if (out_of_universe) {
    throw ItemOutOfUniverse(outside);
  }

  EventSetStats local;
  local.fatal_events = fatals.size();
  // Negative windows to sample (see below).
  const std::size_t wanted =
      negative_ratio > 0.0 && n > 0
          ? static_cast<std::size_t>(negative_ratio *
                                     static_cast<double>(fatals.size()))
          : 0;
  TransactionDb db;
  db.reserve(fatals.size() + wanted);

  // Positive windows: fatal record i's body is every subcategory seen in
  // records [window_start, i). A window sets its records' body bits in an
  // ItemBitset and appends them, ascending, as one row: the cost is the
  // window's own records (about ten on the calibrated logs), not the
  // catalog's width.
  std::size_t window_start = 0;  // first index with time > t - window
  // bgl:hot-begin(rule-extract)
  for (const std::size_t i : fatals) {
    const TimePoint t = times[i];
    while (window_start < i && times[window_start] <= t - window) {
      ++window_start;
    }
    ItemBitset row;
    for (std::size_t j = window_start; j < i; ++j) {
      row.set(bodies[j]);
    }
    row.clear(kNoBody);
    if (row.any()) {
      ++local.with_precursors;
    } else {
      ++local.without_precursors;
    }
    row.set(item_bit(label_item(log[i].subcategory)));
    db.add_row(row);
  }
  // bgl:hot-end

  // Negative windows: instants with no fatal event in the following
  // `window` seconds; their transactions are label-free.
  if (wanted > 0) {
    std::vector<TimePoint> fatal_times;
    fatal_times.reserve(fatals.size());
    for (const std::size_t i : fatals) {
      fatal_times.push_back(times[i]);
    }
    const TimeSpan span{times.front(), times.back() + 1};
    Rng rng(seed ^ (n * 0x9e3779b97f4a7c15ULL));
    const TimeIndex fatal_index(fatal_times);
    const TimeIndex index(times);
    std::size_t made = 0;
    // bgl:hot-begin(rule-extract)
    for (std::size_t attempt = 0; attempt < wanted * 8 && made < wanted;
         ++attempt) {
      const TimePoint t =
          span.begin + rng.uniform_int(0, span.length() - 1);
      // Reject if a fatal event falls in (t, t + window].
      const std::size_t next = fatal_index.lower_bound(t + 1);
      if (next != fatal_times.size() && fatal_times[next] <= t + window) {
        continue;
      }
      // Body subcategories of the records in (t - window, t].
      ItemBitset row;
      for (std::size_t j = index.lower_bound(t - window + 1);
           j < n && times[j] <= t; ++j) {
        row.set(bodies[j]);
      }
      row.clear(kNoBody);
      db.add_row(row);  // label-free, possibly empty
      ++made;
    }
    // bgl:hot-end
  }

  if (stats != nullptr) {
    *stats = local;
  }
  return db;
}

}  // namespace bglpred
