#include "mining/event_sets.hpp"

#include <algorithm>
#include <cstdint>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace bglpred {
namespace {

// Marks records that contribute no body item (fatal or unclassified).
constexpr SubcategoryId kNoBody = kUnclassified;

// bgl:hot-begin(rule-extract)
// Appends the set bits of `live` (subcategory ids, ascending) to the
// open row of `db` as body items, straight from the bitset.
void push_bodies(const DynamicBitset& live, TransactionDb& db) {
  live.for_each_set([&](std::size_t subcat) {
    db.push_item(body_item(static_cast<SubcategoryId>(subcat)));
    return false;
  });
}
// bgl:hot-end

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

  // Positive windows: fatal record i's body is every subcategory seen in
  // records [window_start, i), that is every subcategory whose latest
  // occurrence before i lies at or after window_start. Each record enters
  // once, storing its index + 1 as its subcategory's latest (records with
  // no body write a spare slot, so the loop does not branch on them); a
  // window then reads the body off that table in ascending order, which
  // costs O(body_bits): the catalog's 101 subcategories on real logs.
  std::vector<std::size_t> latest(body_bits + 1, 0);
  std::size_t counted = 0;       // records [0, counted) have entered
  std::size_t window_start = 0;  // first index with time > t - window
  // bgl:hot-begin(rule-extract)
  for (const std::size_t i : fatals) {
    const TimePoint t = times[i];
    for (; counted < i; ++counted) {
      const SubcategoryId s = bodies[counted];
      latest[s == kNoBody ? body_bits : s] = counted + 1;
    }
    while (window_start < i && times[window_start] <= t - window) {
      ++window_start;
    }
    std::size_t found = 0;
    for (std::size_t s = 0; s < body_bits; ++s) {
      if (latest[s] > window_start) {
        db.push_item(body_item(static_cast<SubcategoryId>(s)));
        ++found;
      }
    }
    if (found == 0) {
      ++local.without_precursors;
    } else {
      ++local.with_precursors;
    }
    db.push_item(label_item(log[i].subcategory));  // labels sort last
    db.end_row();
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
    DynamicBitset seen(body_bits);
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
      const std::size_t first = index.lower_bound(t - window + 1);
      std::size_t last = first;
      for (; last < n && times[last] <= t; ++last) {
        if (bodies[last] != kNoBody) {
          seen.set(bodies[last]);
        }
      }
      push_bodies(seen, db);  // label-free, possibly empty
      db.end_row();
      for (std::size_t j = first; j < last; ++j) {
        if (bodies[j] != kNoBody) {
          seen.clear(bodies[j]);
        }
      }
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
