#include "core/runner.h"

#include "util/check.h"

namespace sophon::core {

PolicyRunResult run_policy(const Policy& policy, const dataset::Catalog& catalog,
                           const pipeline::Pipeline& pipeline,
                           const pipeline::CostModel& cost_model, const RunConfig& config) {
  SOPHON_CHECK(config.gpu_count >= 1);
  const auto gpu_model = model::GpuModel::lookup(config.net, config.gpu);
  const Seconds batch_time =
      gpu_model.batch_time(config.cluster.batch_size) / static_cast<double>(config.gpu_count);

  PlanContext ctx;
  ctx.catalog = &catalog;
  ctx.pipeline = &pipeline;
  ctx.cost_model = &cost_model;
  ctx.cluster = config.cluster;
  ctx.gpu_batch_time = batch_time;
  ctx.seed = config.seed;

  PolicyRunResult result;
  result.kind = policy.kind();
  result.name = std::string(policy.name());
  result.decision = policy.plan(ctx);
  result.stats = sim::simulate_epoch(catalog, pipeline, cost_model, config.cluster, batch_time,
                                     result.decision.plan.assignment(), config.seed);
  return result;
}

std::vector<PolicyRunResult> run_all_policies(const dataset::Catalog& catalog,
                                              const pipeline::Pipeline& pipeline,
                                              const pipeline::CostModel& cost_model,
                                              const RunConfig& config) {
  std::vector<PolicyRunResult> results;
  for (const auto& policy : make_all_policies()) {
    results.push_back(run_policy(*policy, catalog, pipeline, cost_model, config));
  }
  return results;
}

}  // namespace sophon::core
