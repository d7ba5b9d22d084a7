#include "prefetch/metrics.h"

namespace sophon::prefetch {

void register_prefetch_metrics(MetricsRegistry& registry) {
  for (const char* name :
       {kIssued, kHits, kLate, kFailed, kCancelled, kSkippedDeprioritized, kSkippedConsumed}) {
    (void)registry.counter(name);
  }
  (void)registry.gauge(kBufferDepth);
  (void)registry.gauge(kBufferBytes);
  (void)registry.gauge(kBufferBudgetBytes);
  (void)registry.gauge(kBufferHighwaterBytes);
  (void)registry.histogram(kLeadSeconds);
}

}  // namespace sophon::prefetch
