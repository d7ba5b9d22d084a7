#include "net/rpc.h"

namespace sophon::net {

MeteringStorageService::MeteringStorageService(StorageService& inner) : inner_(inner) {}

FetchResponse MeteringStorageService::fetch(const FetchRequest& request) {
  auto response = inner_.fetch(request);
  traffic_.fetch_add(response.wire_bytes().count(), std::memory_order_relaxed);
  responses_.fetch_add(1, std::memory_order_relaxed);
  return response;
}

Bytes MeteringStorageService::traffic() const {
  return Bytes(traffic_.load(std::memory_order_relaxed));
}

std::uint64_t MeteringStorageService::responses() const {
  return responses_.load(std::memory_order_relaxed);
}

}  // namespace sophon::net
