// Instrumentation the benchmark attaches from outside the program.
//
// Nothing here reaches into src/: per-layer numbers come from decorators
// on the public ssp::SspChannel interface, from the public counters the
// libraries already expose, and from snapshots of the process-wide
// metrics registry the in-process daemons record into.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "ssp/ssp_server.h"

namespace sharoes::perfbench {

/// Nanoseconds on the steady clock.
uint64_t WallNs();
/// CPU time the calling thread has consumed, in nanoseconds.
uint64_t ThreadCpuNs();

/// Linear-interpolated quantile q in [0, 1] of `v` (sorted in place);
/// 0 when `v` is empty.
double Quantile(std::vector<double>* v, double q);

/// What one traced channel saw. Totals are additive across clients.
struct ChannelTotals {
  uint64_t calls = 0;
  uint64_t failed = 0;
  double call_us = 0;  // Sum of call wall time.
  // Logical channels only:
  double wan_ms = 0;    // Sum of PaperDsl RoundTripMs over the calls.
  double cpu_us = 0;    // Caller-thread CPU inside calls.
  double coord_us = 0;  // Sum of (call - its slowest node call).
  double probe_us = 0;  // The probe's own bookkeeping time.
  // Node channels only:
  std::vector<double> call_samples_us;

  void Merge(const ChannelTotals& o);
};

/// Thread-safe accumulator behind one or more TimedChannels. Node
/// channels of a ShardedChannel are called from its fan-out threads, so
/// recording takes a mutex; this probe runs only in traced phases.
class ChannelProbe {
 public:
  ChannelProbe() = default;
  ChannelProbe(const ChannelProbe&) = delete;
  ChannelProbe& operator=(const ChannelProbe&) = delete;

  ChannelTotals Totals() const;
  /// Drops everything recorded so far (the end of a warm-up).
  void Reset();

 private:
  friend class TimedChannel;
  mutable std::mutex mu_;
  ChannelTotals totals_;  // Guarded by mu_.
  /// Slowest node call since the logical channel's current call began.
  std::atomic<uint64_t> slowest_ns_{0};
};

/// Times every Call of the channel it wraps. A node decorator keeps each
/// call's time. A logical decorator (the client's own channel) records
/// the paper's WAN cost of the exchange from its request and response
/// sizes, the caller's CPU time inside the call, and how much of the call
/// its slowest node call does not cover (the sharded channel's
/// coordination).
class TimedChannel : public ssp::SspChannel {
 public:
  enum class Role { kLogical, kNode };
  TimedChannel(std::unique_ptr<ssp::SspChannel> inner, Role role,
               ChannelProbe* probe, ChannelProbe* nodes = nullptr);

  Result<ssp::Response> Call(const ssp::Request& req) override;

 private:
  std::unique_ptr<ssp::SspChannel> inner_;
  Role role_;
  ChannelProbe* probe_;  // Not owned; outlives the channel.
  ChannelProbe* nodes_;  // Not owned; may be null.
};

/// Delta of the process-wide registry between two snapshots.
class RegistryDelta {
 public:
  RegistryDelta(obs::RegistrySnapshot before, obs::RegistrySnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  uint64_t Counter(const std::string& name) const;
  /// Bucket-wise difference of one histogram.
  obs::HistogramSnapshot Histogram(const std::string& name) const;
  /// Merged difference of every histogram whose name has `prefix`.
  obs::HistogramSnapshot HistogramsWithPrefix(const std::string& prefix) const;
  /// Gauge value at the end of the interval.
  uint64_t GaugeAfter(const std::string& name) const;

 private:
  obs::RegistrySnapshot before_;
  obs::RegistrySnapshot after_;
};

}  // namespace sharoes::perfbench

#endif  // PERFBENCH_PROBES_H_
