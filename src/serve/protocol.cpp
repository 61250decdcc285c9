#include "serve/protocol.hpp"

#include <bit>

#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace bglpred::serve {

bool is_request_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MessageType::kSubmitRecord) &&
         type <= static_cast<std::uint8_t>(MessageType::kStreamStatus);
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kBadVersion:
      return "bad version";
    case ErrorCode::kBadType:
      return "bad message type";
    case ErrorCode::kOversizedFrame:
      return "oversized frame";
    case ErrorCode::kBadCrc:
      return "payload CRC mismatch";
    case ErrorCode::kBadPayload:
      return "malformed payload";
    case ErrorCode::kDuplicateFrame:
      return "duplicate frame";
    case ErrorCode::kRestoreFailed:
      return "restore failed";
    case ErrorCode::kNotSupported:
      return "not supported";
  }
  return "unknown error";
}

std::string encode_frame(const Frame& frame) {
  BGL_REQUIRE(frame.payload.size() <= kMaxPayload,
              "frame payload exceeds kMaxPayload");
  char head[kFrameHeaderSize] = {};
  kFrameMagic.copy(head, kFrameMagic.size());
  wire::encode<std::uint8_t>(head + 4, kProtocolVersion);
  wire::encode<std::uint8_t>(head + 5, static_cast<std::uint8_t>(frame.type));
  wire::encode<std::uint16_t>(head + 6, frame.flags);
  wire::encode<std::uint64_t>(head + 8, frame.stream_id);
  wire::encode<std::uint32_t>(head + 16, frame.seq);
  wire::encode<std::uint32_t>(
      head + kLengthOffset, static_cast<std::uint32_t>(frame.payload.size()));
  wire::encode<std::uint32_t>(head + kCrcOffset, crc32(frame.payload));
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  out.append(head, kFrameHeaderSize);
  out += frame.payload;
  return out;
}

void FrameReader::feed(std::string_view bytes) {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

FrameReader::Status FrameReader::next(Frame& frame, FrameError& error) {
  if (desynced_) {
    error = FrameError{ErrorCode::kBadMagic,
                       "frame stream desynchronized; close the connection", 0,
                       0};
    return Status::kDesync;
  }
  const std::string_view view(buffer_.data() + pos_, buffer_.size() - pos_);
  // Validate what we can as early as we can: a wrong magic or version is
  // a desync regardless of how many bytes follow.
  if (view.size() >= kFrameMagic.size() &&
      view.substr(0, kFrameMagic.size()) != kFrameMagic) {
    desynced_ = true;
    error = FrameError{ErrorCode::kBadMagic, "frame magic mismatch", 0, 0};
    return Status::kDesync;
  }
  if (view.size() >= 5 &&
      static_cast<std::uint8_t>(view[4]) != kProtocolVersion) {
    desynced_ = true;
    error = FrameError{
        ErrorCode::kBadVersion,
        "unsupported protocol version " +
            std::to_string(static_cast<unsigned>(
                static_cast<std::uint8_t>(view[4]))),
        0, 0};
    return Status::kDesync;
  }
  if (view.size() < kFrameHeaderSize) {
    return Status::kNeedMore;
  }
  const auto stream_id = wire::decode<std::uint64_t>(view.data() + 8);
  const auto seq = wire::decode<std::uint32_t>(view.data() + 16);
  const auto payload_size =
      wire::decode<std::uint32_t>(view.data() + kLengthOffset);
  const auto crc = wire::decode<std::uint32_t>(view.data() + kCrcOffset);
  if (payload_size > kMaxPayload) {
    // The length prefix itself is implausible: nothing downstream of it
    // can be trusted, so this is a desync, not a skippable frame.
    desynced_ = true;
    error = FrameError{ErrorCode::kOversizedFrame,
                       "frame payload length " + std::to_string(payload_size) +
                           " exceeds limit",
                       stream_id, seq};
    return Status::kDesync;
  }
  if (view.size() < kFrameHeaderSize + payload_size) {
    return Status::kNeedMore;
  }
  const std::string_view payload = view.substr(kFrameHeaderSize, payload_size);
  pos_ += kFrameHeaderSize + payload_size;
  if (crc32(payload) != crc) {
    error = FrameError{ErrorCode::kBadCrc, "payload CRC mismatch", stream_id,
                       seq};
    return Status::kBadFrame;
  }
  frame.type = static_cast<MessageType>(static_cast<std::uint8_t>(view[5]));
  frame.flags = wire::decode<std::uint16_t>(view.data() + 6);
  frame.stream_id = stream_id;
  frame.seq = seq;
  frame.payload.assign(payload);
  return Status::kFrame;
}

// ---- BytesReader ---------------------------------------------------------

void BytesReader::require(std::size_t n, const char* what) const {
  if (bytes_.size() - pos_ < n) {
    throw ParseError(std::string("payload truncated reading ") + what);
  }
}

double BytesReader::read_double(const char* what) {
  return std::bit_cast<double>(read<std::uint64_t>(what));
}

std::string BytesReader::read_string(const char* what,
                                     std::size_t max_length) {
  return std::string(read_string_view(what, max_length));
}

std::string_view BytesReader::read_string_view(const char* what,
                                               std::size_t max_length) {
  const auto len = read<std::uint32_t>(what);
  if (len > max_length) {
    throw ParseError(std::string("payload string implausibly long reading ") +
                     what);
  }
  return std::string_view(read_bytes(len, what), len);
}

// ---- record / warning codecs ---------------------------------------------

namespace {
void append_string(std::string& out, std::string_view s) {
  wire::append<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// A record travels as a fixed 27-byte header followed by the
// length-prefixed entry text:
//
//   offset size  field                 offset size  field
//   0      8     time (i64)            21     1     location unit
//   8      4     entry data            22     1     event type
//   12     4     job                   23     1     facility
//   16     1     location kind         24     1     severity
//   17     2     location rack         25     2     subcategory
//   19     1     location midplane     27     4     entry length
//   20     1     location node card    31     -     entry bytes
constexpr std::size_t kRecordHeaderSize = 27;
}  // namespace

void encode_record(std::string& out, const RasRecord& rec,
                   std::string_view entry) {
  char head[kRecordHeaderSize + 4] = {};
  wire::encode<std::int64_t>(head + 0, rec.time);
  wire::encode<std::uint32_t>(head + 8, rec.entry_data);
  wire::encode<std::uint32_t>(head + 12, rec.job);
  wire::encode<std::uint8_t>(head + 16,
                             static_cast<std::uint8_t>(rec.location.kind));
  wire::encode<std::uint16_t>(head + 17, rec.location.rack);
  wire::encode<std::uint8_t>(head + 19, rec.location.midplane);
  wire::encode<std::uint8_t>(head + 20, rec.location.node_card);
  wire::encode<std::uint8_t>(head + 21, rec.location.unit);
  wire::encode<std::uint8_t>(head + 22,
                             static_cast<std::uint8_t>(rec.event_type));
  wire::encode<std::uint8_t>(head + 23,
                             static_cast<std::uint8_t>(rec.facility));
  wire::encode<std::uint8_t>(head + 24,
                             static_cast<std::uint8_t>(rec.severity));
  wire::encode<std::uint16_t>(head + 25, rec.subcategory);
  wire::encode<std::uint32_t>(head + kRecordHeaderSize,
                              static_cast<std::uint32_t>(entry.size()));
  out.append(head, sizeof(head));
  out += entry;
}

WireRecord decode_record(BytesReader& in) {
  const WireRecordView view = decode_record_view(in);
  return WireRecord{view.record, std::string(view.entry)};
}

WireRecordView decode_record_view(BytesReader& in) {
  // Enum fields pass through as raw integers on purpose: the
  // OnlineEngine's validate() is the single range-checking authority, so
  // a served stream and an in-process stream degrade identically.
  const char* h = in.read_bytes(kRecordHeaderSize, "record header");
  WireRecordView wr;
  RasRecord& rec = wr.record;
  rec.time = wire::decode<std::int64_t>(h + 0);
  rec.entry_data = wire::decode<std::uint32_t>(h + 8);
  rec.job = wire::decode<std::uint32_t>(h + 12);
  rec.location.kind =
      static_cast<bgl::LocationKind>(wire::decode<std::uint8_t>(h + 16));
  rec.location.rack = wire::decode<std::uint16_t>(h + 17);
  rec.location.midplane = wire::decode<std::uint8_t>(h + 19);
  rec.location.node_card = wire::decode<std::uint8_t>(h + 20);
  rec.location.unit = wire::decode<std::uint8_t>(h + 21);
  rec.event_type = static_cast<EventType>(wire::decode<std::uint8_t>(h + 22));
  rec.facility = static_cast<Facility>(wire::decode<std::uint8_t>(h + 23));
  rec.severity = static_cast<Severity>(wire::decode<std::uint8_t>(h + 24));
  rec.subcategory = wire::decode<std::uint16_t>(h + 25);
  wr.entry = in.read_string_view("record entry text");
  return wr;
}

void encode_warning(std::string& out, const Warning& warning) {
  wire::append<std::int64_t>(out, warning.issued_at);
  wire::append<std::int64_t>(out, warning.window_begin);
  wire::append<std::int64_t>(out, warning.window_end);
  wire::append<std::uint64_t>(out,
                              std::bit_cast<std::uint64_t>(warning.confidence));
  wire::append<std::uint8_t>(out, warning.mergeable ? 1 : 0);
  append_string(out, warning.source);
}

Warning decode_warning(BytesReader& in) {
  Warning w;
  w.issued_at = in.read<std::int64_t>("warning issued_at");
  w.window_begin = in.read<std::int64_t>("warning window begin");
  w.window_end = in.read<std::int64_t>("warning window end");
  w.confidence = in.read_double("warning confidence");
  const auto mergeable = in.read<std::uint8_t>("warning mergeable");
  if (mergeable > 1) {
    throw ParseError("warning mergeable flag out of range");
  }
  w.mergeable = mergeable == 1;
  w.source = in.read_string("warning source");
  return w;
}

std::string encode_warnings(const std::vector<Warning>& warnings) {
  std::string out;
  wire::append<std::uint32_t>(out,
                              static_cast<std::uint32_t>(warnings.size()));
  for (const Warning& w : warnings) {
    encode_warning(out, w);
  }
  return out;
}

std::vector<Warning> decode_warnings(std::string_view payload) {
  BytesReader in(payload);
  const auto count = in.read<std::uint32_t>("warning count");
  if (count > payload.size()) {
    // Each warning needs well over one byte; a count larger than the
    // payload is a corrupt length, not a big list.
    throw ParseError("warning count implausibly large");
  }
  std::vector<Warning> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(decode_warning(in));
  }
  if (in.remaining() != 0) {
    throw ParseError("trailing bytes after warning list");
  }
  return out;
}

// ---- typed frame builders ------------------------------------------------

Frame make_error_frame(const FrameError& error) {
  Frame frame;
  frame.type = MessageType::kError;
  frame.stream_id = error.stream_id;
  frame.seq = error.seq;
  wire::append<std::uint16_t>(frame.payload,
                              static_cast<std::uint16_t>(error.code));
  append_string(frame.payload, error.message);
  return frame;
}

std::string encode_error_frame(const FrameError& error) {
  return encode_frame(make_error_frame(error));
}

FrameError decode_error_payload(const Frame& frame) {
  BGL_REQUIRE(frame.type == MessageType::kError,
              "decode_error_payload needs a kError frame");
  BytesReader in(frame.payload);
  FrameError error;
  error.code = static_cast<ErrorCode>(in.read<std::uint16_t>("error code"));
  error.message = in.read_string("error message");
  error.stream_id = frame.stream_id;
  error.seq = frame.seq;
  return error;
}

}  // namespace bglpred::serve
