// Outside-in probes around product calls: a forwarding predictor that
// times train()/observe() and harvests per-method statistics, a timed
// record-batch source, and the accumulators both feed. Used only in
// traced runs, so untraced runs execute the product objects unwrapped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "predict/predictor.hpp"
#include "raslog/source.hpp"

namespace perfbench {

/// Totals gathered from every ProbedPredictor of a run.
struct PredictorProbe {
  std::atomic<std::uint64_t> train_ns{0};
  std::atomic<std::uint64_t> trains{0};
  std::atomic<std::uint64_t> observe_ns{0};
  std::atomic<std::uint64_t> observes{0};
  /// Wall time from construction to destruction of each wrapper — in
  /// cross-validation, one fold's whole evaluate_split on its worker.
  std::atomic<std::uint64_t> lifetime_ns{0};
  // Harvested from wrapped MetaLearners.
  std::atomic<std::uint64_t> dispatch_rule_only{0};
  std::atomic<std::uint64_t> dispatch_stat_only{0};
  std::atomic<std::uint64_t> dispatch_by_confidence{0};
  std::atomic<std::uint64_t> suppressed{0};
  // Harvested from wrapped RulePredictors after training.
  std::atomic<std::uint64_t> transactions{0};
  std::atomic<std::uint64_t> rules{0};

  double observe_mean_ns() const;
};

/// Forwards every BasePredictor call to `inner`; train() is a
/// "predict.train" span, observe() is timed into the probe (one span
/// per record would dwarf the call it measures).
class ProbedPredictor final : public bglpred::BasePredictor {
 public:
  ProbedPredictor(bglpred::PredictorPtr inner, PredictorProbe& probe);
  ~ProbedPredictor() override;

  std::string name() const override { return inner_->name(); }
  void train(const bglpred::LogView& training) override;
  void reset() override { inner_->reset(); }
  std::optional<bglpred::Warning> observe(
      const bglpred::RasRecord& rec) override;
  bool checkpointable() const override { return inner_->checkpointable(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  bglpred::PredictorPtr inner_;
  PredictorProbe* probe_;
  std::int64_t born_ns_;
};

/// Wraps `make` so every predictor it builds is probed when `probe` is
/// non-null; returns `make` itself otherwise.
std::function<bglpred::PredictorPtr()> probed_factory(
    std::function<bglpred::PredictorPtr()> make, PredictorProbe* probe);

/// Forwards next_batch() under a "simgen.batch" span and counts the
/// records and time it produced.
class TimedSource final : public bglpred::RecordBatchSource {
 public:
  explicit TimedSource(bglpred::RecordBatchSource& inner) : inner_(&inner) {}
  bool next_batch(bglpred::RasLog& out) override;

  double seconds() const { return static_cast<double>(ns_) * 1e-9; }
  std::uint64_t records() const { return records_; }

 private:
  bglpred::RecordBatchSource* inner_;
  std::uint64_t ns_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace perfbench
