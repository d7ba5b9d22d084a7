// Ablation A5 — multi-tenant storage-CPU scheduling (paper §6 future work).
//
// Three jobs share one storage node's preprocessing cores. Compare the
// greedy marginal-gain scheduler against a naive equal split, for both
// objectives. Each job's epoch time at a candidate core count is what its
// own decision engine predicts when planning for that many cores.
#include <algorithm>
#include <memory>
#include <numeric>

#include "bench_common.h"
#include "core/profiler.h"
#include "sim/multijob.h"

using namespace sophon;

namespace {

struct Job {
  std::string name;
  std::vector<core::SampleProfile> profiles;
  Seconds gpu_epoch_time;
  sim::ClusterConfig cluster;  // storage_cores is set per allocation
};

Seconds predict(const Job& job, int storage_cores) {
  auto cluster = job.cluster;
  cluster.storage_cores = storage_cores;
  return core::decide_offloading(job.profiles, cluster, job.gpu_epoch_time)
      .final_cost.predicted_epoch_time();
}

struct Allocation {
  std::vector<int> cores;
  std::vector<Seconds> predicted;
  Seconds makespan;
  Seconds total;
};

Allocation evaluate(const std::vector<Job>& jobs, std::vector<int> cores) {
  Allocation alloc{std::move(cores), {}, {}, {}};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    alloc.predicted.push_back(predict(jobs[j], alloc.cores[j]));
    alloc.makespan = std::max(alloc.makespan, alloc.predicted[j]);
    alloc.total += alloc.predicted[j];
  }
  return alloc;
}

/// The naive baseline: equal shares, the remainder to the first jobs.
Allocation equal_split(const std::vector<Job>& jobs, int budget) {
  const int n = static_cast<int>(jobs.size());
  std::vector<int> cores(jobs.size(), budget / n);
  for (int j = 0; j < budget % n; ++j) ++cores[j];
  return evaluate(jobs, std::move(cores));
}

/// Hand out `budget` cores one at a time, each to the job where it helps the
/// objective most; stop early once no job gains from another core. Under
/// the makespan objective only the slowest job's gain counts in full.
Allocation greedy(const std::vector<Job>& jobs, int budget, bool makespan) {
  std::vector<int> cores(jobs.size(), 0);
  std::vector<Seconds> current;
  for (const auto& job : jobs) current.push_back(predict(job, 0));
  for (int given = 0; given < budget; ++given) {
    const Seconds slowest = *std::max_element(current.begin(), current.end());
    std::size_t best = jobs.size();
    double best_gain = 0.0;
    Seconds best_time;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Seconds with_one_more = predict(jobs[j], cores[j] + 1);
      const double delta = current[j].value() - with_one_more.value();
      if (delta <= 0.0) continue;
      const double gain = !makespan || current[j] == slowest ? delta : delta * 1e-6;
      if (gain > best_gain) {
        best_gain = gain;
        best = j;
        best_time = with_one_more;
      }
    }
    if (best == jobs.size()) break;
    ++cores[best];
    current[best] = best_time;
  }
  return evaluate(jobs, std::move(cores));
}

Job make_job(const char* name, const dataset::Catalog& catalog, double mbps,
             model::NetKind net) {
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;
  Job job;
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

void print_alloc(const char* label, const std::vector<Job>& jobs, const Allocation& alloc) {
  TextTable table({"job", "cores", "predicted epoch"});
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    table.add_row({jobs[j].name, strf("%d", alloc.cores[j]),
                   strf("%.1f s", alloc.predicted[j].value())});
  }
  std::printf("%s:\n%smakespan %.1f s, total %.1f s\n\n", label, table.render().c_str(),
              alloc.makespan.value(), alloc.total.value());
}

int cores_used(const Allocation& alloc) {
  return std::accumulate(alloc.cores.begin(), alloc.cores.end(), 0);
}

}  // namespace

int main() {
  bench::print_header("Ablation A5 — multi-tenant storage-CPU scheduler (§6 extension)",
                      "(future work in the paper: allocate storage-side CPUs among jobs)");

  const auto oi_a = dataset::Catalog::generate(dataset::openimages_profile(40000), 1);
  const auto oi_b = dataset::Catalog::generate(dataset::openimages_profile(20000), 2);
  const auto in_c = dataset::Catalog::generate(dataset::imagenet_profile(45000), 3);
  const std::vector<Job> jobs = {
      make_job("job-A (OpenImages 40k, AlexNet, 500 Mbps)", oi_a, 500.0,
               model::NetKind::kAlexNet),
      make_job("job-B (OpenImages 20k, ResNet18, 250 Mbps)", oi_b, 250.0,
               model::NetKind::kResNet18),
      make_job("job-C (ImageNet 45k, AlexNet, 500 Mbps)", in_c, 500.0,
               model::NetKind::kAlexNet),
  };

  // Each greedy allocation must be no worse than the equal split on its own
  // objective, within the budget.
  bool greedy_wins = true;
  for (const int budget : {4, 8, 16}) {
    std::printf("---- storage-core budget: %d ----\n", budget);
    const auto equal = equal_split(jobs, budget);
    const auto by_total = greedy(jobs, budget, false);
    const auto by_makespan = greedy(jobs, budget, true);
    print_alloc("equal split", jobs, equal);
    print_alloc("greedy (minimise total)", jobs, by_total);
    print_alloc("greedy (minimise makespan)", jobs, by_makespan);
    greedy_wins = greedy_wins && by_total.total <= equal.total &&
                  by_makespan.makespan <= equal.makespan && cores_used(by_total) <= budget &&
                  cores_used(by_makespan) <= budget;
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

  std::vector<Job> tenants;
  for (const auto* catalog : catalogs) {
    tenants.push_back({"", core::profile_stage2(*catalog, pipe, cm),
                       batch_time * static_cast<double>((catalog->size() + 255) / 256), shared});
  }
  auto make_spec = [&](std::size_t j, int plan_cores, int private_cores) {
    auto cluster = shared;
    cluster.storage_cores = plan_cores;
    auto decision =
        core::decide_offloading(tenants[j].profiles, cluster, tenants[j].gpu_epoch_time);
    sim::JobSpec spec;
    spec.num_samples = catalogs[j]->size();
    spec.gpu_batch_time = batch_time;
    spec.private_storage_cores = private_cores;
    auto plan = std::make_shared<core::OffloadPlan>(std::move(decision.plan));
    spec.flow = [plan, flow = sim::plan_flow(*catalogs[j], pipe, cm, plan->assignment())](
                    std::size_t idx) { return flow(idx); };
    return spec;
  };

  // Uncoordinated: plan for 6, contend on 6.
  std::vector<sim::JobSpec> uncoordinated;
  for (std::size_t j = 0; j < 3; ++j) uncoordinated.push_back(make_spec(j, 6, -1));
  const auto free_for_all = sim::simulate_multijob_epoch(uncoordinated, shared);

  // Partitioned: the greedy scheduler's allocation, made physical.
  const auto alloc = greedy(tenants, shared.storage_cores, true);
  std::vector<sim::JobSpec> coordinated;
  for (std::size_t j = 0; j < 3; ++j) {
    coordinated.push_back(make_spec(j, alloc.cores[j], alloc.cores[j]));
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

  const bool shared_wins = free_for_all.makespan < partitioned.makespan;
  if (greedy_wins && shared_wins) {
    std::printf("verified: greedy no worse than equal split within budget at 4/8/16 cores, "
                "shared pool beats partitions\n");
    return 0;
  }
  std::printf("FAILED: greedy_wins=%d shared_wins=%d\n", greedy_wins, shared_wins);
  return 1;
}
