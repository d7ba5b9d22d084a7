// A multi-node storage cluster on the real byte path.
//
// Four storage servers each own a shard of the dataset; a router presents
// them as one endpoint. The shard-aware decision engine plans with the
// per-node CPU budgets, and a DataLoader trains through the router. With a
// skewed placement, replica-aware planning routes offloaded prefixes to the
// colder replica holders.
#include <cstdio>

#include "core/decision.h"
#include "core/profiler.h"
#include "loader/loader.h"
#include "storage/dataset_store.h"
#include "storage/router.h"
#include "storage/server.h"
#include "util/table.h"

using namespace sophon;

int main() {
  auto profile = dataset::openimages_profile(64);
  profile.min_pixels = 1.2e5;
  profile.max_pixels = 8e5;
  const auto parametric = dataset::Catalog::generate(profile, 42);
  const auto pipe = pipeline::Pipeline::standard();
  const pipeline::CostModel cm;

  // Four nodes; every node can materialise every sample (fully replicated
  // store), but the shard map says who *serves* what.
  constexpr int kNodes = 4;
  std::vector<std::unique_ptr<storage::DatasetStore>> stores;
  std::vector<std::unique_ptr<storage::StorageServer>> servers;
  std::vector<net::StorageService*> endpoints;
  for (int n = 0; n < kNodes; ++n) {
    stores.push_back(std::make_unique<storage::DatasetStore>(parametric, 42, profile.quality));
    servers.push_back(std::make_unique<storage::StorageServer>(
        *stores.back(), pipe, cm, storage::StorageServer::Options{.seed = 42}));
    endpoints.push_back(servers.back().get());
  }

  // Skewed placement: node 0 holds most primaries.
  std::vector<std::uint16_t> assignment(parametric.size());
  Rng rng(5);
  for (auto& node : assignment) {
    node = static_cast<std::uint16_t>(rng.bernoulli(0.7) ? 0 : rng.uniform_int(1, kNodes - 1));
  }
  const auto primaries = storage::ShardMap::explicit_map(assignment, kNodes);
  const auto replicas = storage::ReplicaMap::replicated(primaries, 2, 7);

  // Plan shard-aware (primaries only) vs replica-aware.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i < parametric.size(); ++i) blobs.push_back(*stores[0]->get(i));
  const auto catalog = dataset::Catalog::from_blobs(blobs);
  const auto profiles = core::profile_stage2(catalog, pipe, cm);
  sim::ClusterConfig cluster;
  cluster.bandwidth = Bandwidth::mbps(5.0);
  cluster.storage_cores = 1;          // per node
  cluster.storage_core_speed = 0.3;   // slow cores: skew matters
  const Seconds t_g(0.3);

  const auto pinned = core::decide_offloading_replicated(
      profiles, storage::ReplicaMap::replicated(primaries, 1, 7), cluster, t_g);
  const auto routed = core::decide_offloading_replicated(profiles, replicas, cluster, t_g);
  std::printf("shard-aware (primaries only): offload %zu, predicted epoch %.1f s\n",
              pinned.offloaded, pinned.final_cost.predicted_epoch_time().value());
  std::printf("replica-aware (2 replicas):   offload %zu, predicted epoch %.1f s\n\n",
              routed.offloaded, routed.final_cost.predicted_epoch_time().value());

  // Train one epoch through the router, serving each sample from the node
  // the replica-aware plan picked.
  storage::RoutedFetchService router(endpoints, routed.execution_nodes);
  loader::DataLoader loader(router, pipe, routed.plan, catalog.size(),
                            {.num_workers = 2, .queue_capacity = 8, .seed = 42, .epoch = 0});
  loader.start();
  std::size_t delivered = 0;
  while (loader.next()) ++delivered;

  TextTable table({"node", "requests", "offloaded prefixes", "modeled CPU"});
  const auto per_node = router.per_node_requests();
  for (int n = 0; n < kNodes; ++n) {
    table.add_row({strf("%d", n), strf("%llu", static_cast<unsigned long long>(per_node[n])),
                   strf("%llu",
                        static_cast<unsigned long long>(servers[n]->offloaded_requests())),
                   human_seconds(servers[n]->modeled_cpu_time())});
  }
  std::printf("%zu samples trained through the router; traffic %s\n%s", delivered,
              human_bytes(loader.traffic()).c_str(), table.render().c_str());
  std::printf("\n(replica-aware routing pushed offloaded work off the hot node 0.)\n");
  return 0;
}
