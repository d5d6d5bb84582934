#include "engine/planner.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace rsj {

namespace {

// The variant / spill / prefetch decisions shared by both plan shapes.
void DecideFromEstimate(const PlannerOptions& options, PlanChoice* plan) {
  const JoinCostEstimate& est = plan->estimate;
  if (est.sj1_comparisons <= options.sj1_comparison_ceiling) {
    plan->algorithm = JoinAlgorithm::kSJ1;
  } else if (est.page_reads >= options.zorder_page_read_floor) {
    plan->algorithm = JoinAlgorithm::kSJ5;
  } else {
    plan->algorithm = JoinAlgorithm::kSJ4;
  }
  plan->spill = est.result_pairs >= options.spill_pair_floor;
  plan->spill_budget_chunks = options.spill_budget_chunks;
  plan->prefetch = est.page_reads >= options.prefetch_page_read_floor;
  plan->prefetch_ahead = options.prefetch_ahead;
}

}  // namespace

PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options) {
  PlanChoice plan;
  plan.estimate = EstimateJoinCost(r, s);
  DecideFromEstimate(options, &plan);
  plan.pipelined = true;  // meaningless for a pairwise join
  return plan;
}

PlanChoice PlanPairJoin(const RTree& r, const RTree& s,
                        const PlannerOptions& options,
                        bool /*exact_geometry*/) {
  return PlanPairJoin(r, s, options);
}

PlanChoice PlanChainJoin(const std::vector<JoinRelation>& relations,
                         const PlannerOptions& options) {
  RSJ_CHECK_MSG(relations.size() >= 2, "chain plan needs >= 2 relations");
  PlanChoice plan;
  // Compose pairwise estimates along the chain: the estimator predicts
  // |R_k ⋈ R_{k+1}| for adjacent pairs; dividing by |R_k| gives expected
  // matches per probing object, which scales the running tuple count.
  double tuples = 0.0;
  double peak = 0.0;
  for (size_t k = 0; k + 1 < relations.size(); ++k) {
    const JoinCostEstimate est =
        EstimateJoinCost(*relations[k].tree, *relations[k + 1].tree);
    plan.estimate.node_pairs += est.node_pairs;
    plan.estimate.page_reads += est.page_reads;
    plan.estimate.sj1_comparisons += est.sj1_comparisons;
    if (k == 0) {
      tuples = est.result_pairs;
    } else {
      const double probers =
          std::max<double>(1.0, relations[k].rects->size());
      tuples *= est.result_pairs / probers;
    }
    // Every tuple count between phases is a live frontier once.
    if (k + 2 < relations.size()) peak = std::max(peak, tuples);
  }
  plan.estimate.result_pairs = tuples;
  plan.peak_intermediate_tuples = peak;
  DecideFromEstimate(options, &plan);
  plan.pipelined = peak >= options.pipeline_tuple_floor;
  return plan;
}

void ApplyPlan(const PlanChoice& plan, JoinOptions* join,
               ParallelExecutorOptions* exec) {
  join->algorithm = plan.algorithm;
  exec->pipelined = plan.pipelined;
  exec->spill_results = plan.spill;
  exec->spill_budget_chunks = plan.spill_budget_chunks;
  exec->prefetch = plan.prefetch;
  exec->prefetch_ahead = plan.prefetch_ahead;
  join->refine_raster = plan.refine_raster;
  join->raster_grid_bits = plan.raster_grid_bits;
}

std::string PlanChoice::Describe() const {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "plan{algo=%s pipelined=%d spill=%d budget=%zu prefetch=%d "
                "ahead=%zu raster=%d bits=%u "
                "est{node_pairs=%.1f page_reads=%.1f sj1_cmp=%.1f "
                "result=%.1f peak_tuples=%.1f}}",
                JoinAlgorithmName(algorithm), pipelined ? 1 : 0,
                spill ? 1 : 0, spill_budget_chunks, prefetch ? 1 : 0,
                prefetch_ahead, refine_raster ? 1 : 0, raster_grid_bits,
                estimate.node_pairs, estimate.page_reads,
                estimate.sj1_comparisons, estimate.result_pairs,
                peak_intermediate_tuples);
  return std::string(buf);
}

}  // namespace rsj
