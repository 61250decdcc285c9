#include "mining/event_sets.hpp"

#include <algorithm>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace bglpred {
namespace {

// Marks records that contribute no body item (fatal or unclassified).
constexpr SubcategoryId kNoBody = kUnclassified;

// Appends the set bits of `live` (subcategory ids, ascending) as body
// items: the transaction comes out sorted and sized exactly, with room
// for `extra` more items.
Transaction emit_bodies(const DynamicBitset& live, std::size_t extra) {
  Transaction t;
  t.reserve(live.count() + extra);
  live.for_each_set([&](std::size_t subcat) {
    t.push_back(body_item(static_cast<SubcategoryId>(subcat)));
    return false;
  });
  return t;
}

// Lower-bound search over a sorted time array through a bucket table:
// the span is cut into about one bucket per record, and a bucket stores
// the first record at or after its start, so a query costs one table
// lookup plus a search within its bucket instead of a full-length binary
// search. The negative windows sample their instants uniformly over the
// span, and each full-length search missed cache at almost every step.
class TimeIndex {
 public:
  explicit TimeIndex(const std::vector<TimePoint>& times)
      : times_(times),
        begin_(times.front()),
        width_(std::max<Duration>(
            1, (times.back() - times.front()) /
                   static_cast<Duration>(times.size()) + 1)) {
    const auto buckets = static_cast<std::size_t>(
        (times.back() - begin_) / width_ + 1);
    first_.resize(buckets + 1);
    std::size_t i = 0;
    for (std::size_t b = 0; b <= buckets; ++b) {
      const TimePoint start = begin_ + static_cast<Duration>(b) * width_;
      while (i < times.size() && times[i] < start) {
        ++i;
      }
      first_[b] = i;
    }
  }

  /// Index of the first time >= t.
  std::size_t lower_bound(TimePoint t) const {
    if (t <= begin_) {
      return 0;
    }
    const auto b = static_cast<std::size_t>((t - begin_) / width_);
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
  const std::vector<TimePoint>& times_;
  TimePoint begin_;
  Duration width_;
  std::vector<std::size_t> first_;
};

}  // namespace

TransactionDb extract_event_sets(const LogView& log, Duration window,
                                 EventSetStats* stats,
                                 double negative_ratio,
                                 std::uint64_t seed) {
  BGL_REQUIRE(window > 0, "rule generation window must be positive");
  // One pass over the view into contiguous arrays: record times (the
  // negative windows binary-search these rather than 40-byte records
  // behind the view's segment branch), each record's body subcategory
  // (kNoBody for fatal and unclassified records), and the fatal records'
  // positions.
  const std::size_t n = log.size();
  std::vector<TimePoint> times(n);
  std::vector<SubcategoryId> bodies(n);
  std::vector<std::size_t> fatals;
  std::size_t body_bits = 0;  // one past the largest body subcategory
  bool sorted = true;
  bool unlabeled_fatal = false;
  for (std::size_t i = 0; i < n; ++i) {
    const RasRecord& rec = log[i];
    times[i] = rec.time;
    sorted = sorted && (i == 0 || times[i - 1] <= rec.time);
    if (rec.fatal()) {
      fatals.push_back(i);
      unlabeled_fatal = unlabeled_fatal || rec.subcategory == kUnclassified;
      bodies[i] = kNoBody;
    } else {
      bodies[i] = rec.subcategory;
      if (rec.subcategory != kNoBody) {
        body_bits = std::max<std::size_t>(body_bits, rec.subcategory + 1u);
      }
    }
  }
  BGL_REQUIRE(sorted, "log must be time-sorted");
  BGL_REQUIRE(!unlabeled_fatal,
              "fatal record lacks a subcategory; run preprocess first");

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

  // Positive windows: a sliding count per body subcategory over records
  // [window_start, i) — every record enters once and leaves once, however
  // much consecutive fatal windows overlap — plus the set of subcategories
  // with a non-zero count, which is the transaction's body.
  std::vector<std::uint32_t> counts(body_bits, 0);
  DynamicBitset live(body_bits);
  std::size_t counted = 0;       // records [0, counted) have entered
  std::size_t window_start = 0;  // first index with time > t - window
  for (const std::size_t i : fatals) {
    const TimePoint t = times[i];
    for (; counted < i; ++counted) {
      const SubcategoryId s = bodies[counted];
      if (s != kNoBody && counts[s]++ == 0) {
        live.set(s);
      }
    }
    for (; window_start < i && times[window_start] <= t - window;
         ++window_start) {
      const SubcategoryId s = bodies[window_start];
      if (s != kNoBody && --counts[s] == 0) {
        live.clear(s);
      }
    }
    Transaction items = emit_bodies(live, 1);
    if (items.empty()) {
      ++local.without_precursors;
    } else {
      ++local.with_precursors;
    }
    items.push_back(label_item(log[i].subcategory));
    db.add_sorted(std::move(items));
  }

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
    DynamicBitset seen(body_bits);
    std::size_t made = 0;
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
      const std::size_t first = index.lower_bound(t - window + 1);
      std::size_t last = first;
      for (; last < n && times[last] <= t; ++last) {
        if (bodies[last] != kNoBody) {
          seen.set(bodies[last]);
        }
      }
      db.add_sorted(emit_bodies(seen, 0));  // label-free, possibly empty
      for (std::size_t j = first; j < last; ++j) {
        if (bodies[j] != kNoBody) {
          seen.clear(bodies[j]);
        }
      }
      ++made;
    }
  }

  if (stats != nullptr) {
    *stats = local;
  }
  return db;
}

}  // namespace bglpred
