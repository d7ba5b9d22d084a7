// Table 1 — capability matrix: existing offloading frameworks vs SOPHON.
//
// The paper's table is qualitative; here each claim about *our* policies is
// verified programmatically against an actual plan, so the printed matrix
// is derived from behaviour, not hard-coded.
#include "bench_common.h"
#include "core/policy.h"
#include "core/profiler.h"

using namespace sophon;

namespace {

struct Capabilities {
  bool operation_selective = false;  // offloads a strict subset of ops
  bool data_partial = false;         // offloads only part of the dataset
  bool data_selective = false;       // chooses *which* samples per their traits
  bool near_storage = false;         // executes on the storage node
};

Capabilities probe(core::PolicyKind kind, const core::PlanContext& ctx,
                   const std::vector<core::SampleProfile>& profiles) {
  const auto decision = core::plan_policy(kind, ctx);
  Capabilities caps;
  caps.near_storage = decision.plan.offloaded_count() > 0;
  const std::size_t n = decision.plan.size();
  bool any_partial_prefix = false;
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = decision.plan.prefix(i);
    if (p > 0 && p < 5) any_partial_prefix = true;
  }
  caps.operation_selective = any_partial_prefix;
  caps.data_partial = decision.plan.offloaded_count() > 0 && decision.plan.offloaded_count() < n;
  // Data-selective: offloaded samples are chosen by their characteristics —
  // every offloaded sample must be one stage-2 says benefits.
  if (caps.data_partial) {
    caps.data_selective = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (decision.plan.prefix(i) > 0 && !profiles[i].benefits()) caps.data_selective = false;
    }
  }
  return caps;
}

const char* mark(bool b) {
  return b ? "yes" : "-";
}

}  // namespace

int main() {
  bench::print_header("Table 1 — offloading capability matrix (verified against plans)",
                      "SOPHON is the only framework with operation-selective, data-partial, "
                      "data-selective near-storage offloading");

  const auto catalog = dataset::Catalog::generate(dataset::openimages_profile(8000), 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto profiles = core::profile_stage2(catalog, pipe, cm);

  core::PlanContext ctx;
  ctx.catalog = &catalog;
  ctx.pipeline = &pipe;
  ctx.cost_model = &cm;
  ctx.cluster.bandwidth = Bandwidth::mbps(100.0);
  ctx.gpu_batch_time = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000)
                           .batch_time(ctx.cluster.batch_size);
  ctx.seed = 42;

  TextTable table(
      {"policy", "operation-selective", "data-partial", "data-selective", "near-storage"});
  for (const auto kind : core::kPolicyKinds) {
    const auto caps = probe(kind, ctx, profiles);
    table.add_row({std::string(core::policy_kind_name(kind)), mark(caps.operation_selective),
                   mark(caps.data_partial), mark(caps.data_selective),
                   mark(caps.near_storage)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nNote: FastFlow *can* offload near storage in other regimes; in the paper's\n"
      "I/O-bound setups its coarse profile always declines (hence '-' here).\n");
  return 0;
}
