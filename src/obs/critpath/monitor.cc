#include "obs/critpath/monitor.h"

namespace sophon::obs::critpath {

const Analysis& CritPathMonitor::observe_epoch(const sim::Recorder& record,
                                               Seconds observed_epoch_time) {
  const Resource previous = bottleneck();
  last_ = critical_path(record, observed_epoch_time);
  ++epochs_;
  const Analysis& analysis = *last_;
  const Resource current = analysis.bottleneck();
  // The first epoch establishes the bottleneck; only a *change* afterwards
  // is a migration.
  if (epochs_ > 1 && current != previous) ++migrations_;

  if (metrics_ != nullptr) {
    metrics_->gauge("sophon_critpath_blame_storage_cpu_seconds")
        .set(analysis.blame.storage_cpu.value());
    metrics_->gauge("sophon_critpath_blame_link_seconds").set(analysis.blame.link.value());
    metrics_->gauge("sophon_critpath_blame_compute_cpu_seconds")
        .set(analysis.blame.compute_cpu.value());
    metrics_->gauge("sophon_critpath_blame_gpu_seconds").set(analysis.blame.gpu.value());
    metrics_->gauge("sophon_critpath_blame_delay_seconds").set(analysis.blame.delay.value());
    metrics_->gauge("sophon_critpath_bottleneck").set(static_cast<double>(current));
    metrics_->gauge("sophon_critpath_reconcile_error").set(analysis.reconcile_error);
    if (epochs_ > 1 && current != previous) {
      metrics_->counter("sophon_critpath_bottleneck_migrations").increment();
    }
  }
  return analysis;
}

}  // namespace sophon::obs::critpath
