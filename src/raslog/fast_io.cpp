#include "raslog/fast_io.hpp"

#include <cstring>
#include <istream>

#include "bgl/location.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/time.hpp"

namespace bglpred {

LineScanner::LineScanner(std::istream& is, std::size_t chunk_size)
    : is_(&is), chunk_size_(chunk_size) {
  BGL_REQUIRE(chunk_size_ > 0, "LineScanner chunk size must be positive");
}

void LineScanner::refill() {
  // Slide the unconsumed tail (a partial line straddling the chunk
  // boundary) to the front so the next read appends after it.
  if (pos_ > 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
    len_ -= pos_;
    pos_ = 0;
  }
  if (buf_.size() < len_ + chunk_size_) {
    buf_.resize(len_ + chunk_size_);
  }
  is_->read(buf_.data() + len_, static_cast<std::streamsize>(chunk_size_));
  const auto got = static_cast<std::size_t>(is_->gcount());
  len_ += got;
  if (got == 0) {
    eof_ = true;
  }
}

// bgl:hot-begin(ingest-scanner)
// Per-record tokenizing: one pass over the chunk buffer, string_views
// only. Allocation lives in refill() (amortized once per chunk) and in
// the cold replay path of ingest_records — never here.
bool LineScanner::next(std::string_view& line) {
  for (;;) {
    const char* base = buf_.data();
    const void* nl =
        pos_ < len_ ? std::memchr(base + pos_, '\n', len_ - pos_) : nullptr;
    if (nl != nullptr) {
      const auto eol =
          static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      line = std::string_view(base + pos_, eol - pos_);
      pos_ = eol + 1;
      ++line_no_;
      return true;
    }
    if (eof_) {
      if (pos_ < len_) {
        // Unterminated final line — yield it, as std::getline would.
        line = std::string_view(base + pos_, len_ - pos_);
        pos_ = len_;
        ++line_no_;
        return true;
      }
      return false;
    }
    refill();
  }
}

bool split_fields(std::string_view line,
                  std::array<std::string_view, kRecordFieldCount>& out) {
  std::size_t start = 0;
  for (std::size_t i = 0; i + 1 < kRecordFieldCount; ++i) {
    const std::size_t pos = line.find('|', start);
    if (pos == std::string_view::npos) {
      return false;
    }
    out[i] = std::string_view(line.data() + start, pos - start);
    start = pos + 1;
  }
  out[kRecordFieldCount - 1] =
      std::string_view(line.data() + start, line.size() - start);
  return true;
}

bool try_parse_record(std::string_view line, RasRecord& rec,
                      std::string_view& entry) {
  std::array<std::string_view, kRecordFieldCount> fields;
  if (!split_fields(line, fields)) {
    return false;
  }
  std::uint32_t job = 0;
  if (!try_parse_time(fields[0], rec.time) ||
      !try_parse_event_type(fields[1], rec.event_type) ||
      !try_parse_severity(fields[2], rec.severity) ||
      !try_parse_facility(fields[3], rec.facility) ||
      !bgl::try_parse_location(fields[4], rec.location) ||
      !try_parse_u32(fields[5], job)) {
    return false;
  }
  rec.job = static_cast<bgl::JobId>(job);
  entry = fields[6];
  return true;
}
// bgl:hot-end

RasLog read_log_fast(std::istream& is) {
  return read_log_fast(is, ReadOptions::strict());
}

RasLog read_log_fast(std::istream& is, const ReadOptions& options,
                     IngestReport* report) {
  RasLog log;
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  // Three in four records of a generated ANL log repeat the previous
  // record's entry text; those skip the hash.
  StringId previous = kInvalidStringId;
  ingest_records(is, options, rep,
                 [&](RasRecord rec, std::string_view entry) {
                   previous = log.pool().intern_after(previous, entry);
                   rec.entry_data = previous;
                   log.append(rec);
                 });
  return log;
}

}  // namespace bglpred
