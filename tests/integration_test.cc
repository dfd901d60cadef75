#include <gtest/gtest.h>

#include <cmath>

#include "data/datasets.h"
#include "graph/generators.h"
#include "learn/action_log.h"
#include "learn/tic_learner.h"
#include "oipa/adoption.h"
#include "oipa/baselines.h"
#include "oipa/branch_and_bound.h"
#include "rrset/mrr_collection.h"
#include "topic/lda.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

/// A compact lastfm-flavored end-to-end environment used by the
/// integration suite (smaller than the real dataset so the whole file
/// runs in seconds).
class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeDatasetByName("lastfm", 1.0, 5);
    // Shrink further for test speed: use the first 400 vertices' induced
    // behavior implicitly via a small theta.
    Rng rng(7);
    campaign_ = Campaign::SampleUniformPieces(3, dataset_.num_topics, &rng);
    pieces_ = BuildPieceGraphs(*dataset_.graph, *dataset_.probs, campaign_);
    mrr_ = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces_, 20'000, 11));
    model_ = std::make_unique<LogisticAdoptionModel>(2.0, 1.0);
  }

  Dataset dataset_;
  Campaign campaign_;
  std::vector<InfluenceGraph> pieces_;
  std::unique_ptr<MrrCollection> mrr_;
  std::unique_ptr<LogisticAdoptionModel> model_;
};

TEST_F(PipelineFixture, AllFourMethodsRunAndRank) {
  const int k = 10;
  const BaselineResult im =
      ImBaseline(*dataset_.graph, *dataset_.probs, campaign_, *mrr_,
                 *model_, dataset_.promoter_pool, k, 5000, 13);
  const BaselineResult tim =
      TimBaseline(pieces_, *mrr_, *model_, dataset_.promoter_pool, k, 5000,
                  17);
  BabOptions opts;
  opts.budget = k;
  const BabResult bab =
      BabSolver(mrr_.get(), *model_, dataset_.promoter_pool, opts).Solve();
  BabOptions pro_opts = opts;
  pro_opts.progressive = true;
  const BabResult bab_p =
      BabSolver(mrr_.get(), *model_, dataset_.promoter_pool, pro_opts)
          .Solve();

  // The paper's headline ordering: BAB(-P) above both baselines; TIM
  // above IM (topic-aware helps).
  EXPECT_GT(bab.utility, 0.0);
  EXPECT_GE(bab.utility * 1.001, im.utility);
  EXPECT_GE(bab.utility * 1.001, tim.utility);
  EXPECT_GE(bab_p.utility * 1.05, bab.utility * 0.9);
  EXPECT_GE(tim.utility * 1.2, im.utility);  // TIM ~>= IM with slack
}

TEST_F(PipelineFixture, MrrEstimateAgreesWithForwardSimulation) {
  BabOptions opts;
  opts.budget = 8;
  const BabResult bab =
      BabSolver(mrr_.get(), *model_, dataset_.promoter_pool, opts).Solve();
  // Evaluate the chosen plan on HELD-OUT samples: the optimizer's own
  // estimate is biased upward (it selected the plan that maximizes it),
  // but a fresh collection is unbiased and must agree with simulation.
  const MrrCollection holdout =
      MrrCollection::Generate(pieces_, 20'000, 999);
  const double est = EstimateAdoptionUtility(holdout, *model_, bab.plan);
  const double sim = SimulateAdoptionUtility(pieces_, *model_, bab.plan,
                                             3000, 19);
  EXPECT_NEAR(sim, est, 0.12 * std::max(1.0, est));
}

TEST_F(PipelineFixture, UtilityGrowsWithBudget) {
  double prev = 0.0;
  for (int k : {2, 5, 10, 20}) {
    BabOptions opts;
    opts.budget = k;
    opts.progressive = true;
    const BabResult res =
        BabSolver(mrr_.get(), *model_, dataset_.promoter_pool, opts)
            .Solve();
    EXPECT_GE(res.utility + 1e-6, prev)
        << "utility must be monotone in k (k=" << k << ")";
    prev = res.utility;
  }
}

TEST(IntegrationTest, UtilityGrowsWithPieces) {
  // Fig. 5 qualitative check: more pieces => more utility for BAB.
  const Dataset ds = MakeDatasetByName("lastfm", 1.0, 23);
  const LogisticAdoptionModel model(2.0, 1.0);
  double prev = 0.0;
  for (int ell : {1, 3, 5}) {
    Rng rng(29);
    const Campaign campaign =
        Campaign::SampleUniformPieces(ell, ds.num_topics, &rng);
    const auto pieces = BuildPieceGraphs(*ds.graph, *ds.probs, campaign);
    const MrrCollection mrr = MrrCollection::Generate(pieces, 10'000, 31);
    BabOptions opts;
    opts.budget = 10;
    opts.progressive = true;
    const BabResult res =
        BabSolver(&mrr, model, ds.promoter_pool, opts).Solve();
    EXPECT_GE(res.utility, prev * 0.98) << "ell=" << ell;
    prev = res.utility;
  }
}

TEST(IntegrationTest, UtilityGrowsWithBetaOverAlpha) {
  // Fig. 6 qualitative check: larger beta/alpha (easier adoption) =>
  // higher utility.
  const Dataset ds = MakeDatasetByName("lastfm", 1.0, 37);
  Rng rng(41);
  const Campaign campaign =
      Campaign::SampleUniformPieces(3, ds.num_topics, &rng);
  const auto pieces = BuildPieceGraphs(*ds.graph, *ds.probs, campaign);
  const MrrCollection mrr = MrrCollection::Generate(pieces, 10'000, 43);
  double prev = 0.0;
  for (double ratio : {0.3, 0.5, 0.7}) {
    const LogisticAdoptionModel model(1.0 / ratio, 1.0);
    BabOptions opts;
    opts.budget = 10;
    opts.progressive = true;
    const BabResult res =
        BabSolver(&mrr, model, ds.promoter_pool, opts).Solve();
    EXPECT_GT(res.utility, prev) << "beta/alpha=" << ratio;
    prev = res.utility;
  }
}

TEST(IntegrationTest, LearningPipelineProducesUsableProbabilities) {
  // generate truth -> simulate action log -> learn -> optimize on the
  // learned model; the resulting plan must be decent under the truth.
  const Graph g = GenerateHolmeKim(250, 4, 0.4, 47);
  const EdgeTopicProbs truth =
      AssignWeightedCascadeTopics(g, 5, 2.0, 53);
  const ActionLog log = GenerateActionLog(g, truth, 400, 3, 59);
  TicLearnerOptions lopts;
  lopts.iterations = 4;
  const EdgeTopicProbs learned = LearnTicProbabilities(g, log, 5, lopts);

  Rng rng(61);
  const Campaign campaign = Campaign::SampleUniformPieces(3, 5, &rng);
  const LogisticAdoptionModel model(2.0, 1.0);
  const auto learned_pieces = BuildPieceGraphs(g, learned, campaign);
  const auto truth_pieces = BuildPieceGraphs(g, truth, campaign);

  const MrrCollection learned_mrr =
      MrrCollection::Generate(learned_pieces, 8000, 67);
  std::vector<VertexId> pool = SamplePromoterPool(250, 0.2, 71);
  BabOptions opts;
  opts.budget = 6;
  opts.progressive = true;
  const BabResult planned =
      BabSolver(&learned_mrr, model, pool, opts).Solve();

  // Evaluate the learned-model plan under the TRUE model and compare to
  // a random plan of the same size.
  const double planned_truth = SimulateAdoptionUtility(
      truth_pieces, model, planned.plan, 2000, 73);
  AssignmentPlan random_plan(3);
  Rng prng(79);
  while (random_plan.size() < 6) {
    random_plan.Add(static_cast<int>(prng.NextBounded(3)),
                    pool[prng.NextBounded(pool.size())]);
  }
  const double random_truth = SimulateAdoptionUtility(
      truth_pieces, model, random_plan, 2000, 83);
  EXPECT_GT(planned_truth, random_truth);
}

TEST(IntegrationTest, LdaDrivenTweetPipeline) {
  // Hashtag documents -> LDA profiles -> affinity probabilities -> OIPA.
  const int kUsers = 300, kTopics = 5;
  std::vector<TopicVector> unused;
  const Corpus corpus =
      GenerateSyntheticCorpus(kUsers, kTopics, 250, 30, 89, &unused);
  LdaOptions lda_opts;
  lda_opts.num_topics = kTopics;
  lda_opts.iterations = 30;
  lda_opts.seed = 97;
  LdaModel lda(lda_opts);
  lda.Train(corpus);
  std::vector<TopicVector> profiles;
  profiles.reserve(kUsers);
  for (int d = 0; d < kUsers; ++d) profiles.push_back(lda.DocumentTopics(d));

  const Graph g = GenerateRetweetForest(kUsers, 1.5, 101);
  const EdgeTopicProbs probs = AssignAffinityTopics(g, profiles, 2, 1.0);
  Rng rng(103);
  const Campaign campaign = Campaign::SampleUniformPieces(3, kTopics, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const MrrCollection mrr = MrrCollection::Generate(pieces, 5000, 107);
  const LogisticAdoptionModel model(2.0, 1.0);
  std::vector<VertexId> pool = SamplePromoterPool(kUsers, 0.2, 109);
  BabOptions opts;
  opts.budget = 5;
  opts.progressive = true;
  const BabResult res = BabSolver(&mrr, model, pool, opts).Solve();
  EXPECT_GT(res.utility, 0.0);
  EXPECT_LE(res.plan.size(), 5);
}

}  // namespace
}  // namespace oipa
