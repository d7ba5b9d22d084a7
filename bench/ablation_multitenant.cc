// Ablation A5 — multi-tenant storage-CPU scheduling (paper §6 future work).
//
// Three jobs share one storage node's preprocessing cores. Compare the
// greedy marginal-gain scheduler against a naive equal split, for both
// objectives.
#include <memory>

#include "bench_common.h"
#include "core/multitenant.h"
#include "core/profiler.h"
#include "sim/multijob.h"

using namespace sophon;

namespace {

core::TenantJob make_job(const char* name, const dataset::Catalog& catalog, double mbps,
                         model::NetKind net) {
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  core::TenantJob job;
  job.name = name;
  job.profiles = core::profile_stage2(catalog, pipe, cm);
  job.cluster.bandwidth = Bandwidth::mbps(mbps);
  const auto gpu = model::GpuModel::lookup(net, model::GpuKind::kRtx6000);
  job.gpu_epoch_time =
      gpu.batch_time(job.cluster.batch_size) *
      static_cast<double>((catalog.size() + job.cluster.batch_size - 1) /
                          job.cluster.batch_size);
  return job;
}

void print_alloc(const char* label, const std::vector<core::TenantJob>& jobs,
                 const core::CoreAllocation& alloc) {
  TextTable table({"job", "cores", "predicted epoch"});
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    table.add_row({jobs[j].name, strf("%d", alloc.cores[j]),
                   strf("%.1f s", alloc.predicted_epoch[j].value())});
  }
  std::printf("%s:\n%smakespan %.1f s, total %.1f s\n\n", label, table.render().c_str(),
              alloc.max_epoch.value(), alloc.total_epoch.value());
}

}  // namespace

int main() {
  bench::print_header("Ablation A5 — multi-tenant storage-CPU scheduler (§6 extension)",
                      "(future work in the paper: allocate storage-side CPUs among jobs)");

  const auto oi_a = dataset::Catalog::generate(dataset::openimages_profile(40000), 1);
  const auto oi_b = dataset::Catalog::generate(dataset::openimages_profile(20000), 2);
  const auto in_c = dataset::Catalog::generate(dataset::imagenet_profile(45000), 3);
  const std::vector<core::TenantJob> jobs = {
      make_job("job-A (OpenImages 40k, AlexNet, 500 Mbps)", oi_a, 500.0,
               model::NetKind::kAlexNet),
      make_job("job-B (OpenImages 20k, ResNet18, 250 Mbps)", oi_b, 250.0,
               model::NetKind::kResNet18),
      make_job("job-C (ImageNet 45k, AlexNet, 500 Mbps)", in_c, 500.0,
               model::NetKind::kAlexNet),
  };

  for (const int budget : {4, 8, 16}) {
    std::printf("---- storage-core budget: %d ----\n", budget);
    print_alloc("equal split", jobs, core::equal_split(jobs, budget));
    print_alloc("greedy (minimise total)", jobs,
                core::allocate_storage_cores(jobs, budget,
                                             core::SchedulerObjective::kMinimizeTotal));
    print_alloc("greedy (minimise makespan)", jobs,
                core::allocate_storage_cores(jobs, budget,
                                             core::SchedulerObjective::kMinimizeMakespan));
  }

  // --- DES-grounded check: shared pool vs hard partitions -----------------
  // Three jobs share one link and one 6-core storage pool. "Shared pool":
  // each plans as if it owned all 6 cores and they contend (work-conserving
  // sharing). "Partitioned": the greedy scheduler carves private slices and
  // each job plans within its slice (the isolation/quota deployment).
  std::printf("---- discrete-event check (shared 500 Mbps link, 6 shared cores) ----\n");
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  const auto cat_a = dataset::Catalog::generate(dataset::openimages_profile(20000), 11);
  const auto cat_b = dataset::Catalog::generate(dataset::openimages_profile(20000), 12);
  const auto cat_c = dataset::Catalog::generate(dataset::imagenet_profile(30000), 13);
  const dataset::Catalog* catalogs[] = {&cat_a, &cat_b, &cat_c};

  sim::ClusterConfig shared;
  shared.bandwidth = Bandwidth::mbps(500.0);
  shared.storage_cores = 6;
  const auto gpu = model::GpuModel::lookup(model::NetKind::kAlexNet, model::GpuKind::kRtx6000);
  const Seconds batch_time = gpu.batch_time(256);

  auto make_spec = [&](const dataset::Catalog& catalog, int plan_cores, int private_cores) {
    auto cluster = shared;
    cluster.storage_cores = plan_cores;
    const auto profiles = core::profile_stage2(catalog, pipe, cm);
    const Seconds t_g = batch_time * static_cast<double>((catalog.size() + 255) / 256);
    auto decision = core::decide_offloading(profiles, cluster, t_g);
    sim::JobSpec spec;
    spec.num_samples = catalog.size();
    spec.gpu_batch_time = batch_time;
    spec.private_storage_cores = private_cores;
    auto plan = std::make_shared<core::OffloadPlan>(std::move(decision.plan));
    spec.flow = [plan, flow = sim::plan_flow(catalog, pipe, cm, plan->assignment())](
                    std::size_t idx) { return flow(idx); };
    return spec;
  };

  // Uncoordinated: plan for 6, contend on 6.
  std::vector<sim::JobSpec> uncoordinated;
  for (const auto* catalog : catalogs) uncoordinated.push_back(make_spec(*catalog, 6, -1));
  const auto free_for_all = sim::simulate_multijob_epoch(uncoordinated, shared);

  // Partitioned: the greedy scheduler's allocation, made physical.
  std::vector<core::TenantJob> tenant_jobs;
  for (const auto* catalog : catalogs) {
    core::TenantJob job;
    job.profiles = core::profile_stage2(*catalog, pipe, cm);
    job.gpu_epoch_time = batch_time * static_cast<double>((catalog->size() + 255) / 256);
    job.cluster = shared;
    tenant_jobs.push_back(std::move(job));
  }
  const auto alloc = core::allocate_storage_cores(tenant_jobs, shared.storage_cores,
                                                  core::SchedulerObjective::kMinimizeMakespan);
  std::vector<sim::JobSpec> coordinated;
  for (std::size_t j = 0; j < 3; ++j) {
    coordinated.push_back(make_spec(*catalogs[j], std::max(alloc.cores[j], 0), alloc.cores[j]));
  }
  const auto partitioned = sim::simulate_multijob_epoch(coordinated, shared);

  TextTable des({"scheme", "job", "epoch time", "offloaded", "traffic"});
  const char* names[] = {"OI-20k", "OI-20k'", "IN-30k"};
  for (std::size_t j = 0; j < 3; ++j) {
    des.add_row({"shared pool (plan for 6, contend)", names[j],
                 strf("%.1f s", free_for_all.per_job[j].epoch_time.value()),
                 strf("%zu", free_for_all.per_job[j].offloaded_samples),
                 strf("%.2f GB", free_for_all.per_job[j].traffic.as_double() / 1e9)});
  }
  for (std::size_t j = 0; j < 3; ++j) {
    des.add_row({strf("partitioned (greedy: %d cores)", alloc.cores[j]), names[j],
                 strf("%.1f s", partitioned.per_job[j].epoch_time.value()),
                 strf("%zu", partitioned.per_job[j].offloaded_samples),
                 strf("%.2f GB", partitioned.per_job[j].traffic.as_double() / 1e9)});
  }
  std::printf("%s", des.render().c_str());
  std::printf(
      "makespan: shared pool %.1f s vs partitioned %.1f s\n"
      "(Finding: a work-conserving shared pool beats hard partitions — idle private\n"
      " cores are wasted capacity, and under link sharing each job's effective T_Net\n"
      " is higher than the partition planner's per-job model assumes, which makes\n"
      " offloading MORE valuable, not less. The greedy allocator is the right tool\n"
      " when quotas/isolation force partitions; otherwise share the pool.)\n",
      free_for_all.makespan.value(), partitioned.makespan.value());
  return 0;
}
