// Ablation: the tangent-surrogate design choices that BoundVariant
// (oipa/tangent_bound.h) documents.
//
//  (1) Bound anchoring: the paper's Figure-2 construction anchors
//      uncovered samples at sigmoid(-alpha) > 0, inflating the bound by
//      ~n*sigmoid(-alpha); the default zero-anchored variant is tight at
//      zero coverage. We report root bounds, achieved gaps, node counts.
//  (2) Pruning semantics: tau(greedy) pruning (paper, (1-1/e) guarantee)
//      vs exact pruning (bound scaled by e/(e-1), lossless).
//  (3) Greedy on the true sigma (no guarantee) vs the BAB framework.
//
// Flags: --theta, --k, --ell, --beta_over_alpha, --gap, --max_nodes

#include <cstdio>

#include "bench/bench_common.h"
#include "oipa/branch_and_bound.h"
#include "util/flags.h"
#include "util/table.h"

namespace {

struct VariantRow {
  const char* label;
  oipa::BabOptions options;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const int64_t theta = flags.GetInt("theta", 50'000);
  const int k = static_cast<int>(flags.GetInt("k", 20));
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const double ratio = flags.GetDouble("beta_over_alpha", 0.5);
  const BenchScales scales = RequestedScales(flags);
  const LogisticAdoptionModel model(1.0 / ratio, 1.0);

  const BenchEnv env = MakeEnv("lastfm", scales, ell, theta, 47);

  BabOptions base = DefaultBabOptions(flags);
  base.budget = k;

  std::vector<VariantRow> rows;
  {
    VariantRow r{"zero-anchored (default)", base};
    rows.push_back(r);
  }
  {
    VariantRow r{"paper tangent (Fig. 2)", base};
    r.options.variant = BoundVariant::kPaperTangent;
    rows.push_back(r);
  }
  {
    VariantRow r{"zero-anchored + exact pruning", base};
    r.options.exact_pruning = true;
    rows.push_back(r);
  }
  {
    VariantRow r{"lazy greedy (CELF bound)", base};
    r.options.lazy_greedy = true;
    rows.push_back(r);
  }
  {
    VariantRow r{"progressive (eps=0.5)", base};
    r.options.progressive = true;
    rows.push_back(r);
  }

  std::printf(
      "=== Ablation: bound variants on lastfm (k=%d, l=%d, "
      "beta/alpha=%.1f) ===\n",
      k, ell, ratio);
  TextTable table({"variant", "utility", "upper_bound", "gap%", "nodes",
                   "bound_calls", "tau_evals", "time_s", "converged"});
  for (const VariantRow& row : rows) {
    BabSolver solver(env.mrr.get(), model, env.dataset.promoter_pool,
                     row.options);
    const BabResult res = solver.Solve();
    const double gap =
        res.utility > 0.0
            ? 100.0 * (res.upper_bound - res.utility) / res.utility
            : 0.0;
    table.AddRow({row.label, TextTable::Num(res.utility, 3),
                  TextTable::Num(res.upper_bound, 3),
                  TextTable::Num(gap, 1),
                  std::to_string(res.nodes_expanded),
                  std::to_string(res.bound_calls),
                  std::to_string(res.tau_evals),
                  TextTable::Num(res.seconds, 3),
                  res.converged ? "yes" : "no"});
  }
  // Pure sigma-greedy reference (no guarantee).
  {
    const BabResult res = GreedySigmaSolve(
        *env.mrr, model, env.dataset.promoter_pool, k);
    table.AddRow({"sigma-greedy (no bound)", TextTable::Num(res.utility, 3),
                  "-", "-", "0", "0", "0", TextTable::Num(res.seconds, 3),
                  "-"});
  }
  table.Print();
  std::printf(
      "\nNote: the paper-tangent row shows why gap-based termination\n"
      "cannot fire under the Figure-2 anchoring — its bound includes a\n"
      "constant ~n*sigmoid(-alpha) no plan can reach (see BoundVariant\n"
      "in oipa/tangent_bound.h).\n");
  return 0;
}
