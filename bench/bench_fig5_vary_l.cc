// Reproduces Figure 5: adoption utility and runtime as the number of
// viral pieces l grows from 1 to 5.
//
// Paper shape to reproduce: utility grows with l for all methods (each
// extra piece raises per-user adoption probability); the IM/TIM gap to
// BAB widens sharply with l (at l = 5 on tweet the paper reports 71x over
// IM and 2.9x over TIM) because single-piece baselines cannot stack
// pieces on the same audience.
//
// Flags: --datasets, --theta, --k, --ells=1,2,3,4,5, --beta_over_alpha,
//        --epsilon, --gap, --scale_dblp, --scale_tweet

#include <cstdio>

#include "bench/bench_common.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const int64_t theta = flags.GetInt("theta", 100'000);
  const int k = static_cast<int>(flags.GetInt("k", 30));
  const double ratio = flags.GetDouble("beta_over_alpha", 0.5);
  const double epsilon = flags.GetDouble("epsilon", 0.5);
  const std::vector<int64_t> ells =
      flags.GetIntList("ells", {1, 2, 3, 4, 5});
  const BenchScales scales = RequestedScales(flags);
  const BabOptions base = DefaultBabOptions(flags);
  const LogisticAdoptionModel model(1.0 / ratio, 1.0);

  std::printf(
      "=== Figure 5: varying the number l of viral pieces "
      "(k=%d, beta/alpha=%.1f, theta=%lld) ===\n",
      k, ratio, static_cast<long long>(theta));
  const bool insample = flags.GetBool("insample", false);
  for (const std::string& name : RequestedDatasets(flags)) {
    TextTable utility({"l", "IM", "TIM", "BAB", "BAB-P"});
    TextTable time({"l", "IM_s", "TIM_s", "BAB_s", "BAB-P_s"});
    for (int64_t ell64 : ells) {
      const int ell = static_cast<int>(ell64);
      // Environment (campaign + MRR) depends on l, so rebuild per point.
      const BenchEnv env = MakeEnv(name, scales, ell, theta, 23);
      const MrrCollection holdout =
          MrrCollection::Generate(env.pieces, theta, 777);
      MethodResult im = RunIm(env, model, k, 29);
      MethodResult tim = RunTim(env, model, k, 31);
      MethodResult bab = RunBab(env, model, k, base);
      MethodResult babp = RunBabP(env, model, k, epsilon, base);
      EvaluateOnHoldout(holdout, model, {&im, &tim, &bab, &babp});
      auto value = [insample](const MethodResult& r) {
        return insample ? r.utility : r.holdout_utility;
      };
      utility.AddRow({std::to_string(ell), TextTable::Num(value(im), 3),
                      TextTable::Num(value(tim), 3),
                      TextTable::Num(value(bab), 3),
                      TextTable::Num(value(babp), 3)});
      time.AddRow({std::to_string(ell), TextTable::Num(im.seconds, 3),
                   TextTable::Num(tim.seconds, 3),
                   TextTable::Num(bab.seconds, 3),
                   TextTable::Num(babp.seconds, 3)});
    }
    std::printf("\n--- %s: adoption utility ---\n", name.c_str());
    utility.Print();
    std::printf("--- %s: runtime (seconds, excl. sampling) ---\n",
                name.c_str());
    time.Print();
  }
  return 0;
}
