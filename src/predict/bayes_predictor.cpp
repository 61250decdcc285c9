#include "predict/bayes_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/check.hpp"
#include "common/error.hpp"
#include "predict/checkpoint.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

BayesPredictor::BayesPredictor(const PredictionConfig& config,
                               const BayesOptions& options)
    : config_(config), options_(options) {
  BGL_REQUIRE(config.window > config.lead,
              "prediction window must exceed the lead time");
  BGL_REQUIRE(options.posterior_threshold > 0.0 &&
                  options.posterior_threshold < 1.0,
              "posterior threshold must be in (0, 1)");
  BGL_REQUIRE(options.smoothing > 0.0, "smoothing must be positive");
}

void BayesPredictor::train(const LogView& training) {
  // Reuse the rule miner's window extraction: transactions with a label
  // item are positive windows, label-free ones negative.
  const TransactionDb db =
      extract_event_sets(training, options_.feature_window, nullptr,
                         options_.negative_ratio);
  const std::size_t vocab = catalog().size();
  std::array<std::vector<double>, 2> present_counts{
      std::vector<double>(vocab, 0.0), std::vector<double>(vocab, 0.0)};
  std::array<double, 2> class_counts{0.0, 0.0};

  for (std::size_t r = 0; r < db.size(); ++r) {
    const std::span<const Item> t = db.row(r);
    const bool positive =
        std::any_of(t.begin(), t.end(), [](Item i) { return is_label(i); });
    const std::size_t cls = positive ? 1 : 0;
    class_counts[cls] += 1.0;
    for (const Item item : t) {
      if (!is_label(item)) {
        BGL_CHECK_RANGE(subcat_of(item), vocab);
        present_counts[cls][subcat_of(item)] += 1.0;
      }
    }
  }
  const double total = class_counts[0] + class_counts[1];
  prior_ = total == 0.0 ? 0.0 : class_counts[1] / total;

  for (std::size_t cls = 0; cls < 2; ++cls) {
    log_present_[cls].assign(vocab, 0.0);
    log_absent_[cls].assign(vocab, 0.0);
    const double denom = class_counts[cls] + 2.0 * options_.smoothing;
    for (std::size_t s = 0; s < vocab; ++s) {
      const double p =
          (present_counts[cls][s] + options_.smoothing) / denom;
      log_present_[cls][s] = std::log(p);
      log_absent_[cls][s] = std::log1p(-p);
    }
  }
  reset();
}

void BayesPredictor::reset() {
  window_.clear();
  last_warning_end_ = 0;
}

void BayesPredictor::save_state(std::ostream& os) const {
  detail::write_checkpoint_header(os, "BAYS", config_);
  wire::write_double(os, prior_);
  // Both tables share one vocabulary size (0 when untrained).
  wire::write<std::uint64_t>(os, log_present_[0].size());
  for (std::size_t cls = 0; cls < 2; ++cls) {
    for (const double v : log_present_[cls]) {
      wire::write_double(os, v);
    }
    for (const double v : log_absent_[cls]) {
      wire::write_double(os, v);
    }
  }
  wire::write<std::uint64_t>(os, window_.size());
  for (const auto& [time, subcat] : window_) {
    wire::write<std::int64_t>(os, time);
    wire::write<std::uint16_t>(os, subcat);
  }
  wire::write<std::int64_t>(os, last_warning_end_);
}

void BayesPredictor::load_state(std::istream& is) {
  detail::read_checkpoint_header(is, "BAYS", config_);
  prior_ = wire::read_double(is, "bayes prior");
  const auto vocab = wire::read<std::uint64_t>(is, "bayes vocabulary size");
  // The likelihood tables must line up with the live catalog, or
  // posterior() would index past them.
  if (vocab != 0 && vocab != catalog().size()) {
    throw ParseError("checkpoint vocabulary size does not match catalog");
  }
  for (std::size_t cls = 0; cls < 2; ++cls) {
    log_present_[cls].resize(vocab);
    for (double& v : log_present_[cls]) {
      v = wire::read_double(is, "log-likelihood");
    }
    log_absent_[cls].resize(vocab);
    for (double& v : log_absent_[cls]) {
      v = wire::read_double(is, "log-likelihood");
    }
  }
  window_.clear();
  const auto window_size = wire::read<std::uint64_t>(is, "window size");
  for (std::uint64_t i = 0; i < window_size; ++i) {
    const auto time = wire::read<std::int64_t>(is, "window entry time");
    const auto subcat = wire::read<std::uint16_t>(is, "window entry subcat");
    window_.emplace_back(static_cast<TimePoint>(time),
                         static_cast<SubcategoryId>(subcat));
  }
  last_warning_end_ = static_cast<TimePoint>(
      wire::read<std::int64_t>(is, "last warning end"));
}

double BayesPredictor::posterior(
    const std::vector<SubcategoryId>& present) const {
  if (log_present_[0].empty()) {
    return 0.0;  // untrained
  }
  if (prior_ <= 0.0) {
    return 0.0;
  }
  if (prior_ >= 1.0) {
    return 1.0;
  }
  std::vector<bool> mask(catalog().size(), false);
  // If the catalog grew between train() and predict time, the likelihood
  // loop below would read past the learned tables.
  BGL_CHECK(mask.size() == log_present_[0].size(),
            "taxonomy catalog changed size since training");
  for (const SubcategoryId s : present) {
    if (s < mask.size()) {
      mask[s] = true;
    }
  }
  double log_pos = std::log(prior_);
  double log_neg = std::log1p(-prior_);
  for (std::size_t s = 0; s < mask.size(); ++s) {
    if (mask[s]) {
      log_pos += log_present_[1][s];
      log_neg += log_present_[0][s];
    } else {
      log_pos += log_absent_[1][s];
      log_neg += log_absent_[0][s];
    }
  }
  // Stable sigmoid of the log-odds.
  const double delta = log_neg - log_pos;
  return 1.0 / (1.0 + std::exp(delta));
}

std::optional<Warning> BayesPredictor::observe(const RasRecord& rec) {
  while (!window_.empty() &&
         window_.front().first <= rec.time - options_.feature_window) {
    window_.pop_front();
  }
  if (rec.fatal() || rec.subcategory == kUnclassified) {
    return std::nullopt;
  }
  window_.emplace_back(rec.time, rec.subcategory);

  std::vector<SubcategoryId> present;
  present.reserve(window_.size());
  for (const auto& [t, s] : window_) {
    present.push_back(s);
  }
  std::sort(present.begin(), present.end());
  present.erase(std::unique(present.begin(), present.end()), present.end());

  const double p = posterior(present);
  if (p < options_.posterior_threshold) {
    return std::nullopt;
  }
  // Level-triggered with same-second dedup, like the rule base; episode
  // merging consolidates the refreshes.
  if (rec.time == last_warning_end_ - config_.window) {
    return std::nullopt;
  }
  last_warning_end_ = rec.time + config_.window;

  Warning w;
  w.issued_at = rec.time;
  w.window_begin = rec.time + config_.lead + 1;
  w.window_end = rec.time + config_.window;
  w.confidence = p;
  w.source = name();
  w.mergeable = true;
  return w;
}

}  // namespace bglpred
