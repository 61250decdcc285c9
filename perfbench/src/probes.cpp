#include "probes.hpp"

#include "bench.hpp"
#include "meta/meta_learner.hpp"
#include "predict/rule_predictor.hpp"

namespace perfbench {

using namespace bglpred;

double PredictorProbe::observe_mean_ns() const {
  const std::uint64_t n = observes.load();
  return n == 0 ? 0.0
                : static_cast<double>(observe_ns.load()) /
                      static_cast<double>(n);
}

ProbedPredictor::ProbedPredictor(PredictorPtr inner, PredictorProbe& probe)
    : inner_(std::move(inner)), probe_(&probe), born_ns_(now_ns()) {}

ProbedPredictor::~ProbedPredictor() {
  probe_->lifetime_ns += static_cast<std::uint64_t>(now_ns() - born_ns_);
  if (const auto* meta = dynamic_cast<const MetaLearner*>(inner_.get())) {
    const MetaDispatchStats& d = meta->dispatch_stats();
    probe_->dispatch_rule_only += d.to_rule_only;
    probe_->dispatch_stat_only += d.to_statistical_only;
    probe_->dispatch_by_confidence += d.by_confidence;
    probe_->suppressed += d.suppressed;
  }
}

void ProbedPredictor::train(const LogView& training) {
  const Span span("predict.train");
  const std::int64_t t0 = now_ns();
  inner_->train(training);
  probe_->train_ns += static_cast<std::uint64_t>(now_ns() - t0);
  ++probe_->trains;
  if (const auto* rule = dynamic_cast<const RulePredictor*>(inner_.get())) {
    probe_->transactions += rule->training_stats().fatal_events;
    probe_->rules += rule->rules().size();
  }
}

std::optional<Warning> ProbedPredictor::observe(const RasRecord& rec) {
  const std::int64_t t0 = now_ns();
  std::optional<Warning> w = inner_->observe(rec);
  probe_->observe_ns += static_cast<std::uint64_t>(now_ns() - t0);
  ++probe_->observes;
  return w;
}

std::function<PredictorPtr()> probed_factory(
    std::function<PredictorPtr()> make, PredictorProbe* probe) {
  if (probe == nullptr) {
    return make;
  }
  return [make = std::move(make), probe]() -> PredictorPtr {
    return std::make_unique<ProbedPredictor>(make(), *probe);
  };
}

bool TimedSource::next_batch(RasLog& out) {
  const Span span("simgen.batch");
  const std::int64_t t0 = now_ns();
  const bool more = inner_->next_batch(out);
  ns_ += static_cast<std::uint64_t>(now_ns() - t0);
  records_ += out.size();
  return more;
}

}  // namespace perfbench
