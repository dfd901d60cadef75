// Reproduces Figure 6: adoption utility as the logistic steepness ratio
// beta/alpha varies over {0.3, 0.5, 0.7} (beta fixed to 1, so smaller
// ratios mean a higher adoption barrier alpha).
//
// Paper shape to reproduce: utility rises with beta/alpha for every
// method; the BAB advantage over IM/TIM is LARGEST at small beta/alpha
// (tweet: 280% over TIM at 0.3 vs 190% at 0.7) because a hard adoption
// barrier demands genuinely multi-piece plans.
//
// Flags: --datasets, --theta, --k, --ell, --ratios=0.3,0.5,0.7,
//        --epsilon, --gap, --scale_dblp, --scale_tweet

#include <cstdio>

#include "bench/bench_common.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const int64_t theta = flags.GetInt("theta", 50'000);
  const int k = static_cast<int>(flags.GetInt("k", 30));
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const std::vector<double> ratios =
      flags.GetDoubleList("ratios", {0.3, 0.5, 0.7});
  const BenchScales scales = RequestedScales(flags);
  const BabOptions base = DefaultBabOptions(flags);

  std::printf(
      "=== Figure 6: varying beta/alpha (k=%d, l=%d, theta=%lld) ===\n",
      k, ell, static_cast<long long>(theta));
  const bool insample = flags.GetBool("insample", false);
  for (const std::string& name : RequestedDatasets(flags)) {
    const BenchEnv env = MakeEnv(name, scales, ell, theta, 37);
    const MrrCollection holdout =
        MrrCollection::Generate(env.pieces, theta, 777);
    TextTable utility(
        {"beta/alpha", "IM", "TIM", "BAB", "BAB-P", "BAB/TIM"});
    for (double ratio : ratios) {
      const LogisticAdoptionModel model(1.0 / ratio, 1.0);
      MethodResult im = RunIm(env, model, k, 41);
      MethodResult tim = RunTim(env, model, k, 43);
      MethodResult bab = RunBab(env, model, k, base);
      MethodResult babp = RunBabP(env, model, k, epsilon, base);
      EvaluateOnHoldout(holdout, model, {&im, &tim, &bab, &babp});
      auto value = [insample](const MethodResult& r) {
        return insample ? r.utility : r.holdout_utility;
      };
      const double gain = value(tim) > 0.0 ? value(bab) / value(tim) : 0.0;
      utility.AddRow(
          {TextTable::Num(ratio, 1), TextTable::Num(value(im), 3),
           TextTable::Num(value(tim), 3), TextTable::Num(value(bab), 3),
           TextTable::Num(value(babp), 3), TextTable::Num(gain, 2)});
    }
    std::printf("\n--- %s: adoption utility ---\n", name.c_str());
    utility.Print();
  }
  return 0;
}
