#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

// ---- Result ----------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::check(bool ok, const std::string& what) {
  tally(1, ok ? 0 : 1);
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Result::tally(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (passed() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(v.value) ? v.value : 0.0);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---- /proc readers -----------------------------------------------------------

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double thread_cpu_seconds(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) {
    return 0.0;
  }
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line (11 and 12 after the state).
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) {
    fields >> skip;
  }
  double utime = 0;
  double stime = 0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<int> thread_ids() {
  std::vector<int> out;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(std::stoi(entry.path().filename().string()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double this_thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Tracer ----------------------------------------------------------------

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint32_t> g_next_thread{1};
thread_local std::vector<std::uint32_t> t_open;  // open span ids
thread_local std::uint32_t t_thread = 0;

std::uint32_t thread_index() {
  if (t_thread == 0) {
    t_thread = g_next_thread.fetch_add(1);
  }
  return t_thread;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer* Tracer::active() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::activate(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
  SpanRecord rec;
  rec.parent = parent;
  rec.name = name;
  rec.thread = thread_index();
  rec.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, double> out;
  for (const SpanRecord& s : all) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    for (const SpanRecord* c : children[s.id]) {
      const std::int64_t b = std::max(c->start_ns, s.start_ns);
      const std::int64_t e = std::min(c->end_ns, s.end_ns);
      if (e > b) {
        covered.emplace_back(b, e);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_b = 0;
    std::int64_t run_e = -1;
    for (const auto& [b, e] : covered) {
      if (b > run_e) {
        union_ns += run_e > run_b ? run_e - run_b : 0;
        run_b = b;
        run_e = e;
      } else {
        run_e = std::max(run_e, e);
      }
    }
    union_ns += run_e > run_b ? run_e - run_b : 0;
    out[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - union_ns) * 1e-9;
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans()) {
    if (s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (const SpanRecord& s : spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"thread\": " << s.thread
        << "}\n";
  }
}

// ---- Span ------------------------------------------------------------------

Span::Span(const char* name, bool fork_point)
    : tracer_(Tracer::active()), fork_point_(fork_point) {
  if (tracer_ == nullptr) {
    return;
  }
  const std::uint32_t parent =
      t_open.empty() ? tracer_->fork_parent() : t_open.back();
  id_ = tracer_->begin(name, parent);
  t_open.push_back(id_);
  if (fork_point_) {
    saved_fork_ = tracer_->fork_parent();
    tracer_->set_fork_parent(id_);
  }
}

Span::~Span() {
  if (tracer_ == nullptr) {
    return;
  }
  if (fork_point_) {
    tracer_->set_fork_parent(saved_fork_);
  }
  t_open.pop_back();
  tracer_->end(id_);
}

}  // namespace perfbench
