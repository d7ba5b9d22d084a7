#include "net/rpc.h"

#include <gtest/gtest.h>

#include "net/wire.h"
#include "pipeline/sample.h"

namespace sophon::net {
namespace {

/// A canned service for meter-level tests: echoes a payload of a size
/// derived from the sample id.
class StubService final : public StorageService {
 public:
  FetchResponse fetch(const FetchRequest& request) override {
    last_request = request;
    FetchResponse response;
    response.sample_id = request.sample_id;
    response.stage = request.directive.prefix_len;
    pipeline::EncodedBlob blob;
    blob.bytes.assign(static_cast<std::size_t>(100 + request.sample_id), 0x5a);
    response.payload = serialize_sample(pipeline::SampleData(std::move(blob)));
    return response;
  }

  FetchRequest last_request;
};

TEST(MeteringStorageService, ForwardsRequestsVerbatim) {
  StubService service;
  MeteringStorageService meter(service);
  FetchRequest request;
  request.sample_id = 9;
  request.epoch = 3;
  request.position = 17;
  request.directive.prefix_len = 2;
  const auto response = meter.fetch(request);
  EXPECT_EQ(response.sample_id, 9u);
  EXPECT_EQ(service.last_request.epoch, 3u);
  EXPECT_EQ(service.last_request.position, 17u);
  EXPECT_EQ(service.last_request.directive, request.directive);
}

TEST(MeteringStorageService, MetersEveryResponseByte) {
  StubService service;
  MeteringStorageService meter(service);
  Bytes expected;
  for (std::uint64_t id = 0; id < 10; ++id) {
    FetchRequest request;
    request.sample_id = id;
    expected += meter.fetch(request).wire_bytes();
  }
  EXPECT_EQ(meter.traffic(), expected);
  EXPECT_EQ(meter.responses(), 10u);
  // Payload sizes differ per id, so the meter is not just count * constant.
  EXPECT_EQ(expected.count(), 10 * (100 + kFrameOverheadBytes) + 45);
}

TEST(OffloadDirective, EqualityComparesPrefix) {
  OffloadDirective a{2};
  OffloadDirective b{3};
  EXPECT_NE(a, b);
  b.prefix_len = 2;
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sophon::net
