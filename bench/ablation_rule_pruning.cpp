// Ablation: redundant-rule pruning. Per-class mining emits every
// frequent sub-body as a rule; pruning removes rules dominated by a
// smaller body with >= confidence and >= heads. This driver measures how
// much the matcher's working set shrinks and verifies prediction quality
// is unchanged.
//
// Usage: ablation_rule_pruning [--scale=0.3] [--folds=10]

#include <cmath>

#include "bench_common.hpp"
#include "mining/event_sets.hpp"
#include "mining/pruning.hpp"

using namespace bglpred;
using namespace bglpred::bench;


int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.3);
  print_header("Ablation (extension)", "Redundant-rule pruning", scale);

  TextTable table;
  table.set_header({"log", "rule-gen window", "rules", "after pruning",
                    "reduction", "best-match preserved"});
  for (const char* profile : {"ANL", "SDSC"}) {
    const PreparedLog& prepared = prepared_log(profile, scale);
    for (const Duration w : {15 * kMinute, 30 * kMinute, 60 * kMinute}) {
      const TransactionDb db =
          extract_event_sets(prepared.log, w, nullptr, 4.0);
      const RuleSet full = mine_rules(db, RuleOptions{});
      PruneStats stats;
      const RuleSet pruned = prune_redundant_rules(full, &stats);
      // Verify best_match confidence is preserved over every rule body.
      bool preserved = true;
      for (const Rule& r : full.rules()) {
        const Rule* a = full.best_match(encode_bitset(r.body));
        const Rule* b = pruned.best_match(encode_bitset(r.body));
        if (a == nullptr || b == nullptr ||
            std::abs(a->confidence - b->confidence) > 1e-9) {
          preserved = false;
          break;
        }
      }
      table.add_row({profile, format_duration(w),
                     std::to_string(stats.input_rules),
                     std::to_string(stats.kept),
                     TextTable::num(100.0 * static_cast<double>(
                                                stats.pruned) /
                                        std::max<std::size_t>(
                                            1, stats.input_rules),
                                    1) +
                         "%",
                     preserved ? "yes" : "NO"});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
