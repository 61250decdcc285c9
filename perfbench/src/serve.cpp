// serve_anl: the served path with the trained meta-learner.
//
// Set-up streams full-scale ANL through the fused Phase-1 ingest, trains
// the meta predictor on the Phase-1 events of the first 80 % of the raw
// records, and snapshots it with save_state; every stream's engine on the
// server is built by a factory that load_state()s that snapshot. The raw
// records of the last 20 % (the tail) are split into one stream per node
// card — (rack, midplane, node_card), 32 on ANL — keeping time order.
//
// Each timed pass starts a fresh server (4 shards, inline drain) and
// replays the whole tail from one client thread over 4 connections,
// stream s on connection s % 4. For the pass, the client thread and the
// server's loop thread are pinned to the one CPU the client is on: the
// two then take turns the same way in every pass, while left to the
// scheduler they share one CPU in some passes and use two in others,
// which moves a pass's CPU time and flood rate by up to 1.7x.
//
//   paced  the first 15 % of the tail's records, open loop at a fixed
//          offered rate. A stream's records go out in frames of 16; a
//          frame is due when the offered schedule reaches its last
//          record. Each submit (serve::Client::submit_batch) is followed
//          by a poll of its stream; latencies are timed from the due
//          time, so a stalled generator counts against them.
//   flood  the remaining records, closed loop: windows of 8 pipelined
//          SUBMIT_BATCH frames of 128 records per connection, then one
//          poll per stream. The rate is taken up to the last warning
//          polled.
//
// Gates: every stream's served warnings are byte-equal to an in-process
// OnlineEngine fed the same stream; every served warning matches a
// record of the frame it was polled after by issued_at; the server's
// record and frame counters equal what was sent; no frame is refused,
// errored, unanswered or desynced.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <sstream>
#include <utility>

#include "common/binary.hpp"
#include "core/online.hpp"
#include "eval/matcher.hpp"
#include "preprocess/fused_ingest.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bglpred;
using namespace bglpred::serve;

namespace {

// Replay parameters. Fixed here and stated in BENCHMARK.json and
// NOTES.md; never derived at run time.
constexpr double kTrainShare = 0.8;  ///< of ANL's raw records
constexpr std::size_t kStreams = 32;  ///< node cards on ANL
constexpr std::size_t kConnections = 4;
constexpr std::size_t kShards = 4;
constexpr double kPacedShare = 0.15;  ///< of the tail's records
constexpr double kPacedRate = 100000.0;  ///< offered records per second
constexpr std::size_t kPacedFrameRecords = 16;
constexpr std::size_t kFloodFrameRecords = 128;
constexpr std::size_t kFloodWindow = 8;

std::size_t node_card_stream(const bgl::Location& loc) {
  return (static_cast<std::size_t>(loc.rack) * 2 + loc.midplane) * 16 +
         loc.node_card;
}

/// Splits the generator's stream at a record index: records before
/// `cut` pass through (the training head), later ones are copied out as
/// the raw tail and withheld from the consumer.
class SplitSource final : public RecordBatchSource {
 public:
  SplitSource(RecordBatchSource& inner, std::uint64_t cut,
              std::vector<WireRecord>& tail)
      : inner_(&inner), cut_(cut), tail_(&tail) {}

  bool next_batch(RasLog& out) override {
    const bool more = inner_->next_batch(out);
    std::vector<RasRecord>& records = out.mutable_records();
    std::size_t head = 0;
    for (const RasRecord& rec : records) {
      if (seen_++ < cut_) {
        ++head;
      } else {
        tail_->push_back(WireRecord{rec, out.text_of(rec)});
      }
    }
    records.resize(head);  // the head records lead every batch
    return more;
  }

 private:
  RecordBatchSource* inner_;
  std::uint64_t cut_;
  std::uint64_t seen_ = 0;
  std::vector<WireRecord>* tail_;
};

struct PacedFrame {
  std::uint64_t stream = 0;
  std::size_t last = 0;  ///< tail index of the frame's last record
  std::vector<WireRecord> records;
};

struct FloodFrame {
  std::uint64_t stream = 0;
  std::vector<std::uint32_t> records;  ///< tail indices
};

struct Workload {
  std::string blob;  ///< trained meta predictor, save_state bytes
  std::vector<WireRecord> tail;
  std::vector<std::uint32_t> stream_of;  ///< per tail record
  std::vector<PacedFrame> paced;         ///< in due order
  std::vector<std::vector<FloodFrame>> flood;  ///< per connection
  std::vector<TimePoint> failures;  ///< tail Phase-1 fatal times
  std::size_t tail_phase1 = 0;      ///< tail Phase-1 events kept
  std::uint64_t generated = 0;
  double batch_s = 0.0;
  bool partition_ok = true;
};

std::function<PredictorPtr()> restore_factory(const ThreePhasePredictor& tpp,
                                              const std::string& blob) {
  return [&tpp, &blob] {
    PredictorPtr p = tpp.make_predictor(Method::kMeta);
    std::istringstream is(blob);
    p->load_state(is);
    return p;
  };
}

void prepare(std::uint64_t seed, const ThreePhasePredictor& tpp,
             Workload& w) {
  w = Workload{};
  // A counting pass fixes the split: the tail is the last 20 % of the
  // records, so its size does not swing with where bursts fall in time.
  std::uint64_t total = 0;
  {
    StreamRecordSource counting(SystemProfile::anl(), stream_config(seed));
    TimedSource timed(counting);
    RasLog batch;
    while (timed.next_batch(batch)) {
    }
    total = timed.records();
    w.batch_s = timed.seconds();
  }
  StreamRecordSource source(SystemProfile::anl(), stream_config(seed));
  TimedSource timed(source);
  SplitSource split(
      timed,
      static_cast<std::uint64_t>(kTrainShare * static_cast<double>(total)),
      w.tail);
  RasLog phase1;
  {
    const Span s("preprocess.ingest_classified");
    phase1 = ingest_classified(split, tpp.options().preprocess);
  }
  w.generated = timed.records();
  w.batch_s += timed.seconds();

  PredictorPtr predictor = tpp.make_predictor(Method::kMeta);
  {
    const Span s("predict.train");
    predictor->train(phase1);
  }
  predictor->reset();
  std::ostringstream os;
  predictor->save_state(os);
  w.blob = os.str();

  // The tail's own Phase 1: the ground truth served warnings are scored
  // against, and the offline side of the train/serve skew ratio.
  {
    const Span s("preprocess.tail_phase1");
    RasLog tail_log;
    for (const WireRecord& r : w.tail) {
      tail_log.append_with_text(r.record, r.entry);
    }
    preprocess(tail_log, tpp.options().preprocess);
    w.failures = fatal_times(tail_log);
    w.tail_phase1 = tail_log.size();
  }

  // Stream partition and frames.
  w.stream_of.reserve(w.tail.size());
  for (const WireRecord& r : w.tail) {
    const std::size_t s = node_card_stream(r.record.location);
    w.partition_ok = w.partition_ok && s < kStreams;
    w.stream_of.push_back(static_cast<std::uint32_t>(s % kStreams));
  }
  const auto paced_records =
      static_cast<std::size_t>(kPacedShare * static_cast<double>(w.tail.size()));
  std::vector<PacedFrame> open_paced(kStreams);
  for (std::size_t g = 0; g < paced_records; ++g) {
    PacedFrame& f = open_paced[w.stream_of[g]];
    f.stream = w.stream_of[g];
    f.last = g;
    f.records.push_back(w.tail[g]);
    if (f.records.size() == kPacedFrameRecords) {
      w.paced.push_back(std::move(f));
      f = PacedFrame{};
    }
  }
  for (PacedFrame& f : open_paced) {
    if (!f.records.empty()) {
      w.paced.push_back(std::move(f));
    }
  }
  std::stable_sort(w.paced.begin(), w.paced.end(),
                   [](const PacedFrame& a, const PacedFrame& b) {
                     return a.last < b.last;
                   });
  w.flood.assign(kConnections, {});
  std::vector<FloodFrame> open_flood(kStreams);
  const auto close_flood = [&](FloodFrame& f) {
    w.flood[f.stream % kConnections].push_back(std::move(f));
    f = FloodFrame{};
  };
  for (std::size_t g = paced_records; g < w.tail.size(); ++g) {
    FloodFrame& f = open_flood[w.stream_of[g]];
    f.stream = w.stream_of[g];
    f.records.push_back(static_cast<std::uint32_t>(g));
    if (f.records.size() == kFloodFrameRecords) {
      close_flood(f);
    }
  }
  for (FloodFrame& f : open_flood) {
    if (!f.records.empty()) {
      close_flood(f);
    }
  }
  for (auto& frames : w.flood) {
    std::stable_sort(frames.begin(), frames.end(),
                     [](const FloodFrame& a, const FloodFrame& b) {
                       return a.records.front() < b.records.front();
                     });
  }
}

/// The in-process reference: one OnlineEngine per stream, fed the same
/// records in the same order on this thread.
struct Reference {
  std::vector<std::string> warnings;  ///< per stream, encoded
  double feed_ns = 0.0;               ///< mean per record
  std::size_t forwarded = 0;
};

Reference run_reference(const Workload& w, const ThreePhasePredictor& tpp) {
  const auto factory = restore_factory(tpp, w.blob);
  std::vector<OnlineEngine> engines;
  for (std::size_t s = 0; s < kStreams; ++s) {
    engines.emplace_back(factory(), OnlineOptions{});
  }
  Reference ref;
  ref.warnings.assign(kStreams, {});
  std::int64_t feed_ns = 0;
  {
    const Span span("core.online_feed");
    for (std::size_t g = 0; g < w.tail.size(); ++g) {
      const std::size_t s = w.stream_of[g];
      const std::int64_t t0 = now_ns();
      const std::vector<Warning> out =
          engines[s].feed(w.tail[g].record, w.tail[g].entry);
      feed_ns += now_ns() - t0;
      for (const Warning& warning : out) {
        encode_warning(ref.warnings[s], warning);
      }
    }
  }
  // No flush(): the server never flushes a stream, and with the default
  // reorder horizon of 0 nothing is ever buffered.
  for (const OnlineEngine& e : engines) {
    ref.forwarded += e.stats().forwarded;
  }
  ref.feed_ns = static_cast<double>(feed_ns) /
                static_cast<double>(std::max<std::size_t>(1, w.tail.size()));
  return ref;
}

void wait_until(std::int64_t due_ns) {
  if (now_ns() >= due_ns) {
    return;
  }
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// (seq, records) of each frame of one pipelined window.
using Window = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// One raw connection of the flood phase: pipelined frames encoded by
/// the benchmark through the public wire-protocol functions.
struct FloodConn {
  OwnedFd fd;
  FrameReader reader;
  std::uint32_t next_seq = 1;
  std::size_t next_frame = 0;
  std::string wire;
  std::deque<Window> windows;  ///< sent, replies not yet read
};

/// Everything one timed pass observed.
struct PassOutcome {
  double wall_s = 0.0;
  double flood_rate = 0.0;
  std::vector<double> submit_us;
  std::vector<double> warning_us;
  std::vector<double> lag_us;
  std::vector<std::vector<Warning>> served =
      std::vector<std::vector<Warning>>(kStreams);
  std::uint64_t records_sent = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_bad = 0;  ///< refused, errored or mismatched
  std::uint64_t warnings_unmatched = 0;
  double encode_s = 0.0;
  double loop_busy = 0.0;
  double loadgen_busy = 0.0;
  // Server-side counters.
  std::uint64_t frames_in = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_rejected = 0;
  std::uint64_t protocol_errors = 0;
  double records_per_wakeup = 0.0;
  double submit_micros_p50 = 0.0;
  double submit_micros_p99 = 0.0;
};

/// Blocks until `n` reply frames arrive on `c`, handing each to `on`.
template <typename OnFrame>
void await_replies(FloodConn& c, std::size_t n, OnFrame&& on) {
  std::string chunk;
  std::size_t got = 0;
  while (got < n) {
    Frame frame;
    FrameError error;
    const FrameReader::Status st = c.reader.next(frame, error);
    if (st == FrameReader::Status::kFrame) {
      on(frame);
      ++got;
      continue;
    }
    if (st != FrameReader::Status::kNeedMore) {
      throw Error("serve_anl: undecodable reply frame: " + error.message);
    }
    chunk.clear();
    const std::size_t r = recv_some(c.fd, chunk);
    if (r == 0 || r == SIZE_MAX) {
      throw Error("serve_anl: connection closed with replies outstanding");
    }
    c.reader.feed(chunk);
  }
}

void run_paced(const Workload& w, std::uint16_t port, PassOutcome& out) {
  const Span phase("loadgen.paced");
  std::vector<Client> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.push_back(Client::connect(port));
  }
  const double cpu0 = this_thread_cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (const PacedFrame& f : w.paced) {
    const std::int64_t due =
        t0 + static_cast<std::int64_t>(static_cast<double>(f.last) /
                                       kPacedRate * 1e9);
    wait_until(due);
    out.lag_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    Client& client = clients[f.stream % kConnections];
    SubmitResult r;
    {
      const Span s("serve.client_submit_batch");
      r = client.submit_batch(f.stream, f.records);
    }
    out.submit_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    ++out.frames_sent;
    out.records_sent += f.records.size();
    if (r.busy || r.accepted != f.records.size()) {
      ++out.frames_bad;
    }
    std::vector<Warning> warnings;
    {
      const Span s("serve.client_poll_warnings");
      warnings = client.poll_warnings(f.stream);
    }
    const std::int64_t polled = now_ns();
    ++out.frames_sent;
    for (Warning& warning : warnings) {
      const bool matched =
          std::any_of(f.records.begin(), f.records.end(),
                      [&](const WireRecord& rec) {
                        return rec.record.time == warning.issued_at;
                      });
      if (matched) {
        out.warning_us.push_back(static_cast<double>(polled - due) * 1e-3);
      } else {
        ++out.warnings_unmatched;
      }
      out.served[f.stream].push_back(std::move(warning));
    }
  }
  out.loadgen_busy =
      (this_thread_cpu_seconds() - cpu0) / seconds_since(t0);
}

void run_flood(const Workload& w, std::uint16_t port, PassOutcome& out) {
  std::vector<FloodConn> conns(kConnections);
  for (FloodConn& c : conns) {
    c.fd = connect_loopback(port);
  }
  const Span phase("loadgen.flood");
  std::int64_t encode_ns = 0;
  std::uint64_t records = 0;
  const std::int64_t t0 = now_ns();
  const auto await_window = [&](FloodConn& c) {
    const Span s("serve.await_window");
    const Window window = std::move(c.windows.front());
    c.windows.pop_front();
    std::size_t i = 0;
    await_replies(c, window.size(), [&](const Frame& reply) {
      const auto [seq, count] = window[i++];
      bool ok = reply.type == MessageType::kOk && reply.seq == seq;
      if (ok) {
        BytesReader in(reply.payload);
        ok = in.read<std::uint64_t>("accepted") == count;
      }
      out.frames_bad += ok ? 0 : 1;
    });
    out.frames_sent += window.size();
  };
  // Each connection keeps up to two windows in flight: the next window
  // is encoded and sent before the previous one's replies are awaited.
  for (bool more = true; more;) {
    more = false;
    for (std::size_t ci = 0; ci < kConnections; ++ci) {
      FloodConn& c = conns[ci];
      const std::vector<FloodFrame>& frames = w.flood[ci];
      if (c.next_frame < frames.size()) {
        c.wire.clear();
        Window window;
        {
          const Span s("serve.client_encode");
          const std::int64_t e0 = now_ns();
          for (std::size_t k = 0;
               k < kFloodWindow && c.next_frame < frames.size(); ++k) {
            const FloodFrame& f = frames[c.next_frame++];
            Frame frame;
            frame.type = MessageType::kSubmitBatch;
            frame.flags = k == 0 ? 0 : kFlagPipelineFollow;
            frame.stream_id = f.stream;
            frame.seq = c.next_seq++;
            wire::append<std::uint32_t>(
                frame.payload, static_cast<std::uint32_t>(f.records.size()));
            for (const std::uint32_t g : f.records) {
              encode_record(frame.payload, w.tail[g].record, w.tail[g].entry);
            }
            c.wire += encode_frame(frame);
            window.emplace_back(frame.seq,
                                static_cast<std::uint32_t>(f.records.size()));
            records += f.records.size();
          }
          encode_ns += now_ns() - e0;
        }
        c.windows.push_back(std::move(window));
        const Span s("serve.send_window");
        send_all(c.fd, c.wire);
      }
      if (c.windows.size() > 1 ||
          (c.next_frame == frames.size() && !c.windows.empty())) {
        await_window(c);
      }
      more = more || c.next_frame < frames.size() || !c.windows.empty();
    }
  }
  // One poll per stream, pipelined per connection.
  for (std::size_t ci = 0; ci < kConnections; ++ci) {
    FloodConn& c = conns[ci];
    c.wire.clear();
    std::vector<std::uint64_t> polled;
    for (std::uint64_t s = ci; s < kStreams; s += kConnections) {
      Frame frame;
      frame.type = MessageType::kPollWarnings;
      frame.stream_id = s;
      frame.seq = c.next_seq++;
      c.wire += encode_frame(frame);
      polled.push_back(s);
    }
    const Span s("serve.poll_streams");
    send_all(c.fd, c.wire);
    std::size_t i = 0;
    await_replies(c, polled.size(), [&](const Frame& reply) {
      const std::uint64_t stream = polled[i++];
      if (reply.type != MessageType::kWarnings || reply.stream_id != stream) {
        ++out.frames_bad;
        return;
      }
      for (Warning& warning : decode_warnings(reply.payload)) {
        out.served[stream].push_back(std::move(warning));
      }
    });
    out.frames_sent += polled.size();
  }
  out.records_sent += records;
  out.flood_rate = static_cast<double>(records) / seconds_since(t0);
  out.encode_s = static_cast<double>(encode_ns) * 1e-9;
}

PassCost run_pass(const Workload& w, const ThreePhasePredictor& tpp,
                  PredictorProbe* probe, PassOutcome& out) {
  ServerOptions options;
  options.shards.shard_count = kShards;
  options.shards.worker_threads = 0;
  options.shards.queue_capacity = 1u << 20;
  options.shards.predictor_factory =
      probed_factory(restore_factory(tpp, w.blob), probe);
  const std::vector<int> before = thread_ids();
  Server server(options);
  server.start();
  std::vector<int> loop_threads;
  for (const int tid : thread_ids()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) {
      loop_threads.push_back(tid);
    }
  }
  const auto loop_cpu = [&] {
    double cpu = 0.0;
    for (const int tid : loop_threads) {
      cpu += thread_cpu_seconds(tid);
    }
    return cpu;
  };

  // The client (this thread) and the loop thread share one CPU for the
  // pass (see the file comment).
  cpu_set_t saved;
  CPU_ZERO(&saved);
  cpu_set_t one;
  CPU_ZERO(&one);
  const int cpu = sched_getcpu();
  bool pinned = cpu >= 0 && sched_getaffinity(0, sizeof saved, &saved) == 0;
  if (pinned) {
    CPU_SET(cpu, &one);
    pinned = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  for (const int tid : loop_threads) {
    pinned = pinned && sched_setaffinity(tid, sizeof one, &one) == 0;
  }
  if (!pinned) {
    throw Error("serve_anl: cannot pin the client and loop threads to one CPU");
  }
  const double cpu0 = loop_cpu();
  const PassTimer timer;
  run_paced(w, server.port(), out);
  const PassCost paced = timer.cost();
  run_flood(w, server.port(), out);
  const PassCost cost = timer.cost();
  out.wall_s = cost.wall_s;
  out.loop_busy = (loop_cpu() - cpu0) / out.wall_s;
  if (sched_setaffinity(0, sizeof saved, &saved) != 0) {
    throw Error("serve_anl: cannot restore the client thread's CPU set");
  }
  std::fprintf(stderr,
               "  paced %.4f s cpu, lag p99 %.0f us; flood %.4f s cpu, "
               "%.0f records/s\n",
               paced.cpu_s, quantile(out.lag_us, 0.99),
               cost.cpu_s - paced.cpu_s, out.flood_rate);

  MetricsRegistry& m = server.metrics();
  out.frames_in = m.counter("serve.frames_in").value();
  out.records_in = m.counter("serve.records_in").value();
  out.records_rejected = m.counter("serve.records_rejected").value();
  out.protocol_errors = m.counter("serve.decode_errors").value() +
                        m.counter("serve.duplicate_frames").value() +
                        m.counter("serve.budget_rejected").value();
  out.records_per_wakeup =
      static_cast<double>(out.records_in) /
      static_cast<double>(
          std::max<std::uint64_t>(1, m.counter("serve.wakeups").value()));
  // Power-of-two histogram: these quantiles are bucket edges.
  Histogram& submit = m.histogram("serve.submit_micros");
  out.submit_micros_p50 = static_cast<double>(submit.quantile(0.5));
  out.submit_micros_p99 = static_cast<double>(submit.quantile(0.99));
  server.stop();
  return cost;
}

/// Served warnings scored the way evaluate_split scores a fold.
Confusion score(const PassOutcome& out, const Workload& w) {
  std::vector<Warning> all;
  for (const auto& stream : out.served) {
    all.insert(all.end(), stream.begin(), stream.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Warning& a, const Warning& b) {
                     return a.issued_at < b.issued_at;
                   });
  return match_warnings(merge_episodes(std::move(all)), w.failures);
}

/// Applies the per-pass gates.
void check_pass(const PassOutcome& out, const Workload& w,
                const Reference& ref, Result& result) {
  std::size_t mismatched_streams = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    std::string served;
    for (const Warning& warning : out.served[s]) {
      encode_warning(served, warning);
    }
    mismatched_streams += served == ref.warnings[s] ? 0 : 1;
  }
  result.check(mismatched_streams == 0,
               "serve_anl: " + std::to_string(mismatched_streams) +
                   " streams' served warnings differ from the in-process "
                   "engine");
  result.check(out.records_in == out.records_sent &&
                   out.records_sent == w.tail.size(),
               "serve_anl: serve.records_in (" +
                   std::to_string(out.records_in) + ") != records sent (" +
                   std::to_string(out.records_sent) + ")");
  result.check(out.frames_in == out.frames_sent,
               "serve_anl: serve.frames_in (" + std::to_string(out.frames_in) +
                   ") != frames sent (" + std::to_string(out.frames_sent) +
                   ")");
  result.check(out.frames_bad == 0 && out.records_rejected == 0 &&
                   out.protocol_errors == 0,
               "serve_anl: refused, errored or desynced frames");
  result.check(out.warnings_unmatched == 0,
               "serve_anl: a paced warning matches no record of its frame");
  // Records plus frames attempted; refused or bad ones failed.
  result.tally(out.records_sent + out.frames_sent,
               out.frames_bad + out.records_rejected +
                   (out.records_sent - std::min(out.records_sent,
                                                out.records_in)));
}

}  // namespace

void run_serve_anl(const RunOptions& opt, Result& result) {
  const ThreePhasePredictor tpp(paper_options("ANL", 30 * kMinute));
  Tracer setup_tracer;
  Tracer pass_tracer;
  if (opt.trace) {
    Tracer::activate(&setup_tracer);
  }
  Workload w;
  const double setup_s = timed_setup(opt, [&] { prepare(opt.seed, tpp, w); });
  const Reference ref = run_reference(w, tpp);
  Tracer::activate(nullptr);
  result.check(w.partition_ok,
               "serve_anl: a tail record maps outside the 32 node cards");

  PredictorProbe probe;
  PassOutcome plain;  // pooled latencies of the untraced passes
  std::vector<double> flood_rates;
  Confusion served;
  const PassTimes times = run_passes(opt, pass_tracer, [&](bool traced) {
    PassOutcome out;
    const PassCost cost = run_pass(w, tpp, traced ? &probe : nullptr, out);
    check_pass(out, w, ref, result);
    if (!traced) {
      flood_rates.push_back(out.flood_rate);
      plain.submit_us.insert(plain.submit_us.end(), out.submit_us.begin(),
                             out.submit_us.end());
      plain.warning_us.insert(plain.warning_us.end(), out.warning_us.begin(),
                              out.warning_us.end());
      plain.lag_us.insert(plain.lag_us.end(), out.lag_us.begin(),
                          out.lag_us.end());
      plain.loadgen_busy = out.loadgen_busy;
      served = score(out, w);
    } else {
      plain.encode_s = out.encode_s;
      plain.frames_in = out.frames_in;
      plain.records_rejected = out.records_rejected;
      plain.records_per_wakeup = out.records_per_wakeup;
      plain.submit_micros_p50 = out.submit_micros_p50;
      plain.submit_micros_p99 = out.submit_micros_p99;
      plain.loop_busy = out.loop_busy;
    }
    return cost;
  });

  if (!opt.trace) {
    result.metric("setup_s", setup_s, "s");
    result.metric("cpu_s", times.best_cpu(), "s");
    result.metric("meta_precision", served.precision(), "ratio");
    result.metric("meta_recall", served.recall(), "ratio");
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  zero_fill_per_layer(result);
  result.metric("wall.pass_s", times.best_wall(), "s");
  result.metric("wall.records_per_s",
                static_cast<double>(w.tail.size()) / times.best_wall(), "1/s");
  // Wall-clock flood rate of the untraced passes, client and loop thread
  // on one CPU.
  result.metric("serve.flood_records_per_s", median(flood_rates), "1/s");
  result.metric("simgen.batch_s", w.batch_s, "s");
  result.metric("simgen.records", static_cast<double>(w.generated), "count");
  result.metric("core.online.feed_ns", ref.feed_ns, "ns");
  result.metric("core.online.forwarded", static_cast<double>(ref.forwarded),
                "count");
  result.metric("core.online.skew_ratio",
                static_cast<double>(ref.forwarded) /
                    static_cast<double>(w.tail_phase1),
                "ratio");
  result.metric("predict.train_s", setup_tracer.total_seconds("predict.train"),
                "s");
  result.metric("predict.observe_ns", probe.observe_mean_ns(), "ns");
  result.metric("serve.client_encode_s", plain.encode_s, "s");
  result.metric("serve.frames_in", static_cast<double>(plain.frames_in),
                "count");
  result.metric("serve.records_rejected",
                static_cast<double>(plain.records_rejected), "count");
  result.metric("serve.records_per_wakeup", plain.records_per_wakeup, "count");
  result.metric("serve.submit_micros_p50", plain.submit_micros_p50, "us");
  result.metric("serve.submit_micros_p99", plain.submit_micros_p99, "us");
  result.metric("serve.loop_busy_ratio", plain.loop_busy, "ratio");
  result.metric("serve.predictor_observe_ns", probe.observe_mean_ns(), "ns");
  result.metric("serve.served_precision", served.precision(), "ratio");
  result.metric("serve.served_recall", served.recall(), "ratio");
  result.metric("serve.warning_p50_us", quantile(plain.warning_us, 0.5), "us");
  result.metric("serve.warning_p99_us", quantile(plain.warning_us, 0.99),
                "us");
  result.metric("serve.warnings_timed",
                static_cast<double>(plain.warning_us.size()), "count");
  result.metric("serve.submit_p50_us", quantile(plain.submit_us, 0.5), "us");
  result.metric("serve.submit_p99_us", quantile(plain.submit_us, 0.99), "us");
  result.metric("serve.frames_timed",
                static_cast<double>(plain.submit_us.size()), "count");
  result.metric("loadgen.lag_p99_us", quantile(plain.lag_us, 0.99), "us");
  result.metric("loadgen.cpu_busy_ratio", plain.loadgen_busy, "ratio");
  finish_traced_run(opt, times, setup_tracer, pass_tracer, result);
}

}  // namespace perfbench
