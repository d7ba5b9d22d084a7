#include "storage/server.h"

#include "codec/sjpg.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "util/check.h"

namespace sophon::storage {

std::uint64_t augmentation_seed(std::uint64_t base_seed, std::uint64_t epoch,
                                std::uint64_t sample_id) {
  return derive_seed(derive_seed(derive_seed(base_seed, "augment"), epoch), sample_id);
}

StorageServer::StorageServer(BlobSource& store, const pipeline::Pipeline& pipeline,
                             pipeline::CostModel cost_model, Options options)
    : store_(store), pipeline_(pipeline), cost_model_(cost_model), options_(options) {}

net::FetchResponse StorageServer::fetch(const net::FetchRequest& request) {
  const auto prefix = static_cast<std::size_t>(request.directive.prefix_len);
  SOPHON_CHECK_MSG(prefix <= pipeline_.size(), "directive exceeds pipeline length");

  // Shard fast path: when the sample is materialised at a stage at or below
  // the requested cut, the stored bytes replace that much live execution.
  // Outcomes are exclusive per fetch: hit, corrupt (crc failed -> live
  // fallback), or miss.
  pipeline::SampleData payload;
  std::size_t base_stage = 0;     // stage `payload` is currently at
  bool from_shard = false;
  bool shard_direct = false;      // stored frame can ship verbatim
  std::vector<std::uint8_t> direct_frame;
  bool corrupt = false;
  if (options_.shard != nullptr) {
    if (const auto* entry = options_.shard->find(request.sample_id);
        entry != nullptr && entry->stage > 0 && entry->stage <= prefix) {
      obs::Span span(obs::SpanCategory::kStoragePrep, "shard_read");
      span.args().sample = static_cast<std::int64_t>(request.sample_id);
      span.args().prefix = static_cast<std::int32_t>(entry->stage);
      span.args().bytes = static_cast<std::int64_t>(entry->length);
      if (const auto stored = options_.shard->read_verified(*entry)) {
        if (entry->stage == prefix) {
          // Stage-exact: the stored frame IS the response payload — no
          // deserialise, no pipeline, no allocator churn beyond the reply
          // buffer itself.
          direct_frame.assign(stored->begin(), stored->end());
          base_stage = prefix;
          from_shard = shard_direct = true;
        } else if (auto parsed = net::deserialize_sample(*stored)) {
          payload = std::move(*parsed);
          base_stage = entry->stage;
          from_shard = true;
        } else {
          corrupt = true;  // frame unparseable despite matching crc
        }
      } else {
        corrupt = true;  // bit rot: checksum mismatch, run the prefix live
      }
    }
  }

  if (!from_shard) {
    const auto* blob = store_.get(request.sample_id);
    SOPHON_CHECK_MSG(blob != nullptr, "fetch for unknown sample id");
    payload = pipeline::EncodedBlob{*blob};
  }

  Seconds prefix_cost;
  if (prefix > base_stage) {
    if (base_stage == 0) {
      // Meter the modeled cost of the prefix against the real source shape.
      // The blob header carries the dimensions the cost model needs.
      const auto& blob = std::get<pipeline::EncodedBlob>(payload).bytes;
      const auto hdr = codec::sjpg_peek(blob);
      SOPHON_CHECK_MSG(hdr.has_value(), "stored blob is not valid SJPG");
      const auto raw = pipeline::SampleShape::encoded(
          Bytes(static_cast<std::int64_t>(blob.size())), hdr->width, hdr->height, hdr->channels);
      prefix_cost = pipeline_.prefix_cost(raw, prefix, cost_model_);
    } else {
      // Only the ops the shard did not cover cost live CPU; walk the shape
      // forward from the stored stage.
      auto shape = options_.shard->find(request.sample_id)->shape();
      for (std::size_t i = base_stage; i < prefix; ++i) {
        prefix_cost += pipeline_.op(i).cost(shape, cost_model_);
        shape = pipeline_.op(i).out_shape(shape);
      }
    }

    obs::Span span(obs::SpanCategory::kStoragePrep, "storage_prefix");
    span.args().sample = static_cast<std::int64_t>(request.sample_id);
    span.args().prefix = static_cast<std::int32_t>(prefix);
    payload = pipeline_.run_seeded(
        std::move(payload), base_stage, prefix,
        augmentation_seed(options_.seed, request.epoch, request.sample_id),
        obs::SpanCategory::kStoragePrep);
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    if (prefix > 0) {
      ++offloaded_;
      cpu_time_ += prefix_cost;
    }
    if (options_.shard != nullptr) {
      if (from_shard) {
        ++shard_hits_;
      } else if (corrupt) {
        ++shard_corrupt_;
      } else {
        ++shard_misses_;
      }
    }
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("sophon_server_fetch").increment();
    if (prefix > 0) {
      options_.metrics->counter("sophon_server_offload").increment();
      options_.metrics->duration("sophon_server_prefix_cpu").observe(prefix_cost);
    }
    if (options_.shard != nullptr) {
      options_.metrics
          ->counter(from_shard ? "sophon_shard_hit"
                               : (corrupt ? "sophon_shard_corrupt" : "sophon_shard_miss"))
          .increment();
    }
  }

  net::FetchResponse response;
  response.sample_id = request.sample_id;
  response.stage = static_cast<std::uint8_t>(prefix);
  response.provenance = from_shard ? net::FetchResponse::Provenance::kShard
                        : corrupt  ? net::FetchResponse::Provenance::kShardCorrupt
                                   : net::FetchResponse::Provenance::kLive;
  if (shard_direct) {
    response.payload = std::move(direct_frame);
    return response;
  }

  response.payload = net::serialize_sample(payload);
  return response;
}

Seconds StorageServer::modeled_cpu_time() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cpu_time_;
}

std::uint64_t StorageServer::requests_served() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

std::uint64_t StorageServer::offloaded_requests() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return offloaded_;
}

std::uint64_t StorageServer::shard_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_hits_;
}

std::uint64_t StorageServer::shard_misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_misses_;
}

std::uint64_t StorageServer::shard_corrupt() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_corrupt_;
}

void StorageServer::reset_counters() {
  const std::lock_guard<std::mutex> lock(mutex_);
  cpu_time_ = Seconds(0.0);
  requests_ = 0;
  offloaded_ = 0;
  shard_hits_ = 0;
  shard_misses_ = 0;
  shard_corrupt_ = 0;
}

}  // namespace sophon::storage
