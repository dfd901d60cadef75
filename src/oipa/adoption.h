#ifndef OIPA_OIPA_ADOPTION_H_
#define OIPA_OIPA_ADOPTION_H_

#include <cstdint>
#include <vector>

#include "oipa/assignment_plan.h"
#include "oipa/logistic_model.h"
#include "rrset/mrr_collection.h"
#include "topic/influence_graph.h"

namespace oipa {

/// MRR-based adoption-utility estimate of a plan (Equation 6 / Lemma 2):
/// (n/theta) * sum_i f(#pieces of sample i covered by the plan). One scan
/// over the RR sets, so the collection need not be indexed; the result
/// is bit-identical to a CoverageState that AddSeeds the plan's
/// Assignments() in order (the argument is beside the definition).
double EstimateAdoptionUtility(const MrrCollection& mrr,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan);

/// Ground-truth Monte-Carlo estimate: simulates all pieces' cascades
/// `trials` times (independently, per the model) and averages the sum of
/// per-user logistic adoption probabilities.
double SimulateAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan, int trials,
                               uint64_t seed);

/// Exact adoption utility sigma(plan) on tiny graphs: per-piece exact
/// reach probabilities by live-edge-world enumeration (2^m per piece),
/// then a per-user Poisson-binomial DP over the independent pieces.
/// Feasible only for m <= ~20.
double ExactAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                            const LogisticAdoptionModel& model,
                            const AssignmentPlan& plan);

/// The Poisson-binomial expectation E[f(X)] with X = sum of independent
/// Bernoulli(q_j) and f given as a table of size q.size()+1. Exposed for
/// testing and for the exact evaluator above.
double ExpectationOverCountDistribution(const std::vector<double>& probs,
                                        const std::vector<double>& f_table);

}  // namespace oipa

#endif  // OIPA_OIPA_ADOPTION_H_
