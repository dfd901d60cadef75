// Reproduces Figure 4: adoption utility (top row) and runtime (bottom
// row, paper plots log scale) of IM / TIM / BAB / BAB-P as the promoter
// budget k grows, on all three datasets.
//
// Paper shape to reproduce: utility grows with k for all methods;
// IM < TIM < BAB ~= BAB-P; runtimes IM,TIM << BAB-P << BAB, with BAB-P
// up to 24x (lastfm), 22x (dblp), 8.1x (tweet) faster than BAB.
//
// Flags: --datasets, --theta, --ell, --k=10,20,..., --beta_over_alpha,
//        --epsilon, --gap, --max_nodes, --scale_dblp, --scale_tweet

#include <cstdio>

#include "bench/bench_common.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const int64_t theta = flags.GetInt("theta", 50'000);
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const double ratio = flags.GetDouble("beta_over_alpha", 0.5);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const std::vector<int64_t> ks =
      flags.GetIntList("k", {10, 20, 30, 40, 50});
  const BenchScales scales = RequestedScales(flags);
  const BabOptions base = DefaultBabOptions(flags);
  const LogisticAdoptionModel model(1.0 / ratio, 1.0);

  std::printf(
      "=== Figure 4: varying the number k of promoters "
      "(l=%d, beta/alpha=%.1f, theta=%lld) ===\n",
      ell, ratio, static_cast<long long>(theta));
  // Utilities are evaluated on a held-out MRR collection by default so
  // that optimizers do not get credit for overfitting their own samples;
  // pass --insample for the paper's original protocol.
  const bool insample = flags.GetBool("insample", false);
  for (const std::string& name : RequestedDatasets(flags)) {
    const BenchEnv env = MakeEnv(name, scales, ell, theta, 13);
    const MrrCollection holdout =
        MrrCollection::Generate(env.pieces, theta, 777);
    TextTable utility({"k", "IM", "TIM", "BAB", "BAB-P"});
    TextTable time({"k", "IM_s", "TIM_s", "BAB_s", "BAB-P_s"});
    double speedup_max = 0.0;
    for (int64_t k64 : ks) {
      const int k = static_cast<int>(k64);
      MethodResult im = RunIm(env, model, k, 17);
      MethodResult tim = RunTim(env, model, k, 19);
      MethodResult bab = RunBab(env, model, k, base);
      MethodResult babp = RunBabP(env, model, k, epsilon, base);
      EvaluateOnHoldout(holdout, model, {&im, &tim, &bab, &babp});
      auto value = [insample](const MethodResult& r) {
        return insample ? r.utility : r.holdout_utility;
      };
      utility.AddRow({std::to_string(k), TextTable::Num(value(im), 3),
                      TextTable::Num(value(tim), 3),
                      TextTable::Num(value(bab), 3),
                      TextTable::Num(value(babp), 3)});
      time.AddRow({std::to_string(k), TextTable::Num(im.seconds, 3),
                   TextTable::Num(tim.seconds, 3),
                   TextTable::Num(bab.seconds, 3),
                   TextTable::Num(babp.seconds, 3)});
      if (babp.seconds > 0.0) {
        speedup_max =
            std::max(speedup_max, bab.seconds / babp.seconds);
      }
    }
    std::printf("\n--- %s: adoption utility ---\n", name.c_str());
    utility.Print();
    std::printf("--- %s: runtime (seconds, excl. sampling) ---\n",
                name.c_str());
    time.Print();
    std::printf("max BAB/BAB-P speedup on %s: %.1fx\n", name.c_str(),
                speedup_max);
  }
  return 0;
}
