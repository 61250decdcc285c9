// Tests for the serve wire protocol (framing, payload codecs) and the
// common metrics registry it reports through.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "oracles/wire_oracles.hpp"
#include "serve/protocol.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred::serve {
namespace {

// ---- CRC-32 --------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32Test, SeedChainsMultiPartComputations) {
  const std::uint32_t whole = crc32("123456789");
  const std::uint32_t part = crc32("6789", crc32("12345"));
  EXPECT_EQ(part, whole);
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) {
    c = static_cast<char>(rng() & 0xffu);
  }
  return out;
}

TEST(Crc32Test, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  // Every length 0..256 at every start offset 0..7 covers each way the
  // 8-byte main loop and the bytewise tail can split a buffer, at every
  // alignment of the first byte.
  Rng rng(0xc3c32);
  const std::string buf = random_bytes(rng, 256 + 8);
  const std::string_view view(buf);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const std::string_view part = view.substr(off, len);
      ASSERT_EQ(crc32(part), oracles::reference_crc32(part))
          << "offset " << off << " length " << len;
      ASSERT_EQ(crc32(part, 0x12345678u),
                oracles::reference_crc32(part, 0x12345678u))
          << "seeded, offset " << off << " length " << len;
    }
  }
}

TEST(Crc32Test, SlicedMatchesBytewiseOnRandomBuffersAndChainsAtEverySplit) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64 << 10));
    const std::string big = random_bytes(rng, len);
    ASSERT_EQ(crc32(big), oracles::reference_crc32(big))
        << "seed " << seed << " length " << len;
    // Chaining: prefix CRC as the suffix's seed equals the whole-buffer
    // CRC at every split point (a shorter buffer keeps this quadratic
    // check cheap).
    const std::string small = big.substr(0, std::min<std::size_t>(len, 1500));
    const std::string_view view(small);
    const std::uint32_t whole = crc32(view);
    for (std::size_t split = 0; split <= view.size(); ++split) {
      ASSERT_EQ(crc32(view.substr(split), crc32(view.substr(0, split))), whole)
          << "seed " << seed << " split " << split;
    }
  }
}

// ---- wire primitives -----------------------------------------------------

template <typename T>
void expect_append_matches_reference(T value) {
  std::string got = "prefix";
  std::string want = "prefix";
  wire::append<T>(got, value);
  oracles::reference_append<T>(want, value);
  EXPECT_EQ(got, want) << "width " << sizeof(T) << " value "
                       << static_cast<long long>(value);
  std::ostringstream os;
  wire::write<T>(os, value);
  EXPECT_EQ(os.str(), want.substr(6));
  EXPECT_EQ(wire::decode<T>(got.data() + 6), value);
}

template <typename T>
void expect_append_matches_reference_at_edges() {
  using L = std::numeric_limits<T>;
  for (const T v : {T{0}, T{1}, T{0x5a}, L::max(), L::min(),
                    static_cast<T>(L::max() - 1), static_cast<T>(L::min() + 1)}) {
    expect_append_matches_reference<T>(v);
  }
}

TEST(WireTest, AppendMatchesPerByteLoopForEveryIntegralWidth) {
  expect_append_matches_reference_at_edges<std::uint8_t>();
  expect_append_matches_reference_at_edges<std::int8_t>();
  expect_append_matches_reference_at_edges<std::uint16_t>();
  expect_append_matches_reference_at_edges<std::int16_t>();
  expect_append_matches_reference_at_edges<std::uint32_t>();
  expect_append_matches_reference_at_edges<std::int32_t>();
  expect_append_matches_reference_at_edges<std::uint64_t>();
  expect_append_matches_reference_at_edges<std::int64_t>();
  expect_append_matches_reference<std::int64_t>(-1);
  expect_append_matches_reference<std::int64_t>(-1136073600);
  expect_append_matches_reference<std::int32_t>(-2);
  expect_append_matches_reference<std::uint64_t>(0x0102030405060708ULL);
}

// ---- framing -------------------------------------------------------------

Frame sample_frame(std::uint32_t seq = 7) {
  Frame f;
  f.type = MessageType::kSubmitRecord;
  f.stream_id = 0xDEADBEEFCAFEF00DULL;
  f.seq = seq;
  f.payload = "payload bytes";
  return f;
}

TEST(FrameTest, EncodeDecodeRoundtrip) {
  const Frame sent = sample_frame();
  FrameReader reader;
  reader.feed(encode_frame(sent));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.stream_id, sent.stream_id);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.payload, sent.payload);
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, IncrementalFeedNeedsEveryByte) {
  const std::string bytes = encode_frame(sample_frame());
  FrameReader reader;
  Frame got;
  FrameError error;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(std::string_view(bytes).substr(i, 1));
    ASSERT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore)
        << "frame decoded after only " << i + 1 << " bytes";
  }
  reader.feed(std::string_view(bytes).substr(bytes.size() - 1));
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
}

TEST(FrameTest, MultipleFramesInOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame(sample_frame(1)) + encode_frame(sample_frame(2)));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 1u);
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore);
}

TEST(FrameTest, BadCrcIsRecoverableAndReaderStaysSynced) {
  std::string damaged = encode_frame(sample_frame(1));
  damaged[kFrameHeaderSize] ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(damaged + encode_frame(sample_frame(2)));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kBadFrame);
  EXPECT_EQ(error.code, ErrorCode::kBadCrc);
  EXPECT_EQ(error.seq, 1u);
  // The damaged frame's extent was trustworthy, so the next frame parses.
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 2u);
}

TEST(FrameTest, BadMagicDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  bytes[0] = 'X';
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kBadMagic);
  // A desynced reader never yields frames again, even for valid bytes.
  reader.feed(encode_frame(sample_frame()));
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
}

TEST(FrameTest, BadVersionDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  bytes[4] = static_cast<char>(kProtocolVersion + 1);
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kBadVersion);
}

TEST(FrameTest, OversizedLengthPrefixDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  // Patch the little-endian payload-size field to kMaxPayload + 1.
  const std::uint32_t huge = kMaxPayload + 1;
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[kLengthOffset + b] = static_cast<char>((huge >> (8 * b)) & 0xff);
  }
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kOversizedFrame);
  EXPECT_EQ(error.stream_id, sample_frame().stream_id);
}

TEST(FrameTest, RejectsOversizedPayloadAtEncode) {
  Frame f = sample_frame();
  f.payload.assign(kMaxPayload + 1, 'x');
  EXPECT_THROW(encode_frame(f), Error);
}

// ---- payload codecs ------------------------------------------------------

RasRecord sample_record() {
  const SubcategoryInfo& torus = catalog().info(catalog().find("torusFailure"));
  RasRecord rec;
  rec.time = 123456;
  rec.job = 42;
  rec.location = bgl::Location::make_compute_chip(3, 1, 7, 2);
  rec.event_type = EventType::kRas;
  rec.facility = torus.facility;
  rec.severity = torus.severity;
  return rec;
}

TEST(CodecTest, RecordRoundtrip) {
  const RasRecord rec = sample_record();
  const std::string entry = "TORUS non-recoverable error seq=1";
  std::string bytes;
  encode_record(bytes, rec, entry);
  BytesReader in(bytes);
  const WireRecord got = decode_record(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(got.record.time, rec.time);
  EXPECT_EQ(got.record.job, rec.job);
  EXPECT_EQ(got.record.location.kind, rec.location.kind);
  EXPECT_EQ(got.record.location.rack, rec.location.rack);
  EXPECT_EQ(got.record.location.midplane, rec.location.midplane);
  EXPECT_EQ(got.record.location.node_card, rec.location.node_card);
  EXPECT_EQ(got.record.location.unit, rec.location.unit);
  EXPECT_EQ(got.record.event_type, rec.event_type);
  EXPECT_EQ(got.record.facility, rec.facility);
  EXPECT_EQ(got.record.severity, rec.severity);
  EXPECT_EQ(got.record.subcategory, rec.subcategory);
  EXPECT_EQ(got.entry, entry);
}

TEST(CodecTest, TruncatedRecordThrowsParseError) {
  // Every proper prefix: inside the fixed header, inside the entry
  // length, and inside the entry text.
  std::string bytes;
  encode_record(bytes, sample_record(), "entry");
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    BytesReader in(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(decode_record(in), ParseError) << "kept " << keep;
  }
}

std::string from_hex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return out;
}

TEST(CodecTest, SubmitBatchFrameMatchesGoldenBytes) {
  // Pins the version-1 wire layout byte for byte: header fields, the
  // payload CRC (0x886190e5, also what zlib.crc32 gives for these 38
  // payload bytes) and one record's 27-byte header plus entry text.
  RasRecord rec;
  rec.time = 1136073600;  // 0x43b71b80
  rec.entry_data = 7;
  rec.job = 0x12345;
  rec.location.kind = bgl::LocationKind::kComputeChip;  // 3
  rec.location.rack = 0x0102;
  rec.location.midplane = 1;
  rec.location.node_card = 15;
  rec.location.unit = 2;
  rec.event_type = EventType::kRas;     // 0
  rec.facility = Facility::kKernel;     // 2
  rec.severity = Severity::kFailure;    // 5
  rec.subcategory = 0xab;
  Frame frame;
  frame.type = MessageType::kSubmitBatch;
  frame.flags = kFlagPipelineFollow;
  frame.stream_id = 0x1122334455667788ULL;
  frame.seq = 0x0a0b0c0d;
  wire::append<std::uint32_t>(frame.payload, 1);
  encode_record(frame.payload, rec, "abc");
  const std::string golden = from_hex(
      // magic "BGLS", version 1, type 2, flags 0x0001
      "42474c53" "01" "02" "0100"
      // stream id, seq, payload length 38, payload CRC
      "8877665544332211" "0d0c0b0a" "26000000" "e5906188"
      // payload: record count 1
      "01000000"
      // time, entry data, job
      "801bb74300000000" "07000000" "45230100"
      // location kind, rack, midplane, node card, unit
      "03" "0201" "01" "0f" "02"
      // event type, facility, severity, subcategory
      "00" "02" "05" "ab00"
      // entry length 3, "abc"
      "03000000" "616263");
  ASSERT_EQ(golden.size(), kFrameHeaderSize + 38);
  EXPECT_EQ(encode_frame(frame), golden);

  FrameReader reader;
  reader.feed(golden);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.flags, kFlagPipelineFollow);
  BytesReader in(got.payload);
  ASSERT_EQ(in.read<std::uint32_t>("count"), 1u);
  const WireRecordView view = decode_record_view(in);
  EXPECT_EQ(in.remaining(), 0u);
  std::string reencoded;
  encode_record(reencoded, view.record, view.entry);
  EXPECT_EQ(reencoded, golden.substr(kFrameHeaderSize + 4));
}

TEST(CodecTest, WarningRoundtripPreservesEveryField) {
  Warning w;
  w.issued_at = -5;  // times may be negative (relative clocks)
  w.window_begin = 100;
  w.window_end = 1900;
  w.confidence = 0.8125;
  w.source = "meta";
  w.mergeable = true;
  std::string bytes;
  encode_warning(bytes, w);
  BytesReader in(bytes);
  const Warning got = decode_warning(in);
  EXPECT_EQ(got.issued_at, w.issued_at);
  EXPECT_EQ(got.window_begin, w.window_begin);
  EXPECT_EQ(got.window_end, w.window_end);
  EXPECT_EQ(got.confidence, w.confidence);
  EXPECT_EQ(got.source, w.source);
  EXPECT_EQ(got.mergeable, w.mergeable);
}

TEST(CodecTest, WarningListRoundtripIsByteStable) {
  std::vector<Warning> list(3);
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i].issued_at = static_cast<TimePoint>(i * 100);
    list[i].window_end = static_cast<TimePoint>(i * 100 + 1800);
    list[i].confidence = 0.25 * static_cast<double>(i);
    list[i].source = "rule";
  }
  const std::string bytes = encode_warnings(list);
  const std::vector<Warning> got = decode_warnings(bytes);
  ASSERT_EQ(got.size(), list.size());
  // Byte-identity through the codec: re-encoding the decoded list must
  // reproduce the exact payload (this is the equivalence test's measure).
  EXPECT_EQ(encode_warnings(got), bytes);
}

TEST(CodecTest, WarningListRejectsCorruptShapes) {
  const std::string bytes = encode_warnings({Warning{}});
  EXPECT_THROW(decode_warnings(bytes + "x"), ParseError);  // trailing bytes
  std::string huge_count = bytes;
  huge_count[0] = '\xff';
  huge_count[1] = '\xff';
  huge_count[2] = '\xff';
  huge_count[3] = '\xff';
  EXPECT_THROW(decode_warnings(huge_count), ParseError);
}

TEST(CodecTest, ErrorFrameRoundtrip) {
  const FrameError sent{ErrorCode::kBadPayload, "broken \"quoted\" field", 9,
                        31};
  FrameReader reader;
  reader.feed(encode_error_frame(sent));
  Frame frame;
  FrameError frame_error;
  ASSERT_EQ(reader.next(frame, frame_error), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, MessageType::kError);
  const FrameError got = decode_error_payload(frame);
  EXPECT_EQ(got.code, sent.code);
  EXPECT_EQ(got.message, sent.message);
  EXPECT_EQ(got.stream_id, sent.stream_id);
  EXPECT_EQ(got.seq, sent.seq);
}

TEST(CodecTest, RequestTypePredicate) {
  EXPECT_TRUE(is_request_type(
      static_cast<std::uint8_t>(MessageType::kSubmitRecord)));
  EXPECT_TRUE(is_request_type(static_cast<std::uint8_t>(MessageType::kShutdown)));
  EXPECT_FALSE(is_request_type(0));
  EXPECT_FALSE(is_request_type(static_cast<std::uint8_t>(MessageType::kOk)));
  EXPECT_FALSE(is_request_type(255));
}

TEST(CodecTest, EveryWireOpcodeRoundtripsThroughTheFramer) {
  // The full MessageType inventory — adding an opcode without extending
  // this list trips the drift check in tools/repo_analyze.py.
  const MessageType requests[] = {
      MessageType::kSubmitRecord, MessageType::kSubmitBatch,
      MessageType::kPollWarnings, MessageType::kCheckpoint,
      MessageType::kRestore,      MessageType::kStats,
      MessageType::kShutdown,     MessageType::kStreamStatus,
  };
  const MessageType responses[] = {
      MessageType::kOk,        MessageType::kWarnings,
      MessageType::kCheckpointBlob, MessageType::kStatsJson,
      MessageType::kError,     MessageType::kRejectedBusy,
      MessageType::kRejectedOverloaded,
  };
  const auto roundtrip = [](MessageType type, bool request) {
    Frame f = sample_frame();
    f.type = type;
    FrameReader reader;
    reader.feed(encode_frame(f));
    Frame got;
    FrameError error;
    ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame)
        << "opcode " << static_cast<unsigned>(type);
    EXPECT_EQ(got.type, type);
    EXPECT_EQ(is_request_type(static_cast<std::uint8_t>(type)), request)
        << "opcode " << static_cast<unsigned>(type);
  };
  for (const MessageType type : requests) {
    roundtrip(type, /*request=*/true);
  }
  for (const MessageType type : responses) {
    roundtrip(type, /*request=*/false);
  }
}

// ---- metrics registry ----------------------------------------------------

TEST(MetricsTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("records");
  Counter& b = registry.counter("records");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsTest, NameKindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), InvalidArgument);
  EXPECT_THROW(registry.histogram("x"), InvalidArgument);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), InvalidArgument);
}

TEST(MetricsTest, HistogramQuantilesBracketSamples) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  for (std::uint64_t v = 0; v < 100; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 4950u);
  // Power-of-two resolution: the quantile is the holding bucket's upper
  // bound, so it can only overshoot the true value, never undershoot.
  EXPECT_GE(h.quantile(0.5), 49u);
  EXPECT_LE(h.quantile(0.5), 63u);
  EXPECT_GE(h.quantile(0.99), 99u);
  EXPECT_LE(h.quantile(0.99), 127u);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(MetricsTest, DumpJsonIsDeterministicAndSorted) {
  MetricsRegistry registry;
  // Register in unsorted order; the dump must not care.
  registry.counter("zeta").inc(2);
  registry.counter("alpha").inc(1);
  registry.gauge("depth").set(-4);
  registry.histogram("lat").record(7);
  const std::string a = registry.dump_json();
  const std::string b = registry.dump_json();
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("\"alpha\":1"), a.find("\"zeta\":2"));
  EXPECT_NE(a.find("\"depth\":-4"), std::string::npos);
  EXPECT_NE(a.find("\"lat\":{\"count\":1,\"sum\":7"), std::string::npos);
}

}  // namespace
}  // namespace bglpred::serve
