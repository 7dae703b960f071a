#include "probes.h"

#include <time.h>

#include <algorithm>
#include <chrono>

#include "net/network_model.h"

namespace sharoes::perfbench {

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = q * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * frac;
}

void ChannelTotals::Merge(const ChannelTotals& o) {
  calls += o.calls;
  failed += o.failed;
  call_us += o.call_us;
  wan_ms += o.wan_ms;
  cpu_us += o.cpu_us;
  coord_us += o.coord_us;
  probe_us += o.probe_us;
  call_samples_us.insert(call_samples_us.end(), o.call_samples_us.begin(),
                         o.call_samples_us.end());
}

ChannelTotals ChannelProbe::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void ChannelProbe::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  totals_ = ChannelTotals();
}

TimedChannel::TimedChannel(std::unique_ptr<ssp::SspChannel> inner, Role role,
                           ChannelProbe* probe, ChannelProbe* nodes)
    : inner_(std::move(inner)), role_(role), probe_(probe), nodes_(nodes) {}

Result<ssp::Response> TimedChannel::Call(const ssp::Request& req) {
  const bool logical = role_ == Role::kLogical;
  if (nodes_ != nullptr) nodes_->slowest_ns_.store(0);
  const uint64_t cpu0 = logical ? ThreadCpuNs() : 0;
  const uint64_t t0 = WallNs();
  Result<ssp::Response> resp = inner_->Call(req);
  const uint64_t t1 = WallNs();
  const uint64_t call_ns = t1 - t0;
  const double call_us = static_cast<double>(call_ns) / 1e3;

  if (!logical) {
    uint64_t prev = probe_->slowest_ns_.load();
    while (prev < call_ns &&
           !probe_->slowest_ns_.compare_exchange_weak(prev, call_ns)) {
    }
    std::lock_guard<std::mutex> lock(probe_->mu_);
    ChannelTotals& t = probe_->totals_;
    t.calls += 1;
    t.failed += resp.ok() ? 0 : 1;
    t.call_us += call_us;
    t.call_samples_us.push_back(call_us);
    return resp;
  }

  const uint64_t cpu1 = ThreadCpuNs();
  // Sizes are the Serialize() encodings — the byte counts the simulated
  // WAN charges, independent of whether a trace id rides on the frame.
  const size_t req_bytes = req.Serialize().size();
  const size_t resp_bytes = resp.ok() ? resp->Serialize().size() : 0;
  const double slowest_us =
      nodes_ != nullptr ? static_cast<double>(nodes_->slowest_ns_.load()) / 1e3
                        : call_us;
  {
    std::lock_guard<std::mutex> lock(probe_->mu_);
    ChannelTotals& t = probe_->totals_;
    t.calls += 1;
    t.failed += resp.ok() ? 0 : 1;
    t.call_us += call_us;
    t.wan_ms += net::NetworkModel::PaperDsl().RoundTripMs(req_bytes,
                                                          resp_bytes);
    t.cpu_us += static_cast<double>(cpu1 - cpu0) / 1e3;
    t.coord_us += std::max(0.0, call_us - slowest_us);
    t.probe_us += static_cast<double>(WallNs() - t1) / 1e3;
  }
  return resp;
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto a = after_.counters.find(name);
  if (a == after_.counters.end()) return 0;
  auto b = before_.counters.find(name);
  return a->second - (b == before_.counters.end() ? 0 : b->second);
}

obs::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  obs::HistogramSnapshot out;
  auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return out;
  out = a->second;
  out.exemplars.clear();
  out.min = 0;
  auto b = before_.histograms.find(name);
  if (b == before_.histograms.end()) return out;
  const obs::HistogramSnapshot& prev = b->second;
  for (size_t i = 0; i < out.buckets.size() && i < prev.buckets.size(); ++i) {
    out.buckets[i] -= prev.buckets[i];
  }
  out.count -= prev.count;
  out.sum -= prev.sum;
  return out;
}

obs::HistogramSnapshot RegistryDelta::HistogramsWithPrefix(
    const std::string& prefix) const {
  obs::HistogramSnapshot merged;
  merged.buckets.assign(obs::Histogram::kNumBuckets, 0);
  for (const auto& [name, snap] : after_.histograms) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    obs::HistogramSnapshot d = Histogram(name);
    if (d.count == 0) continue;
    for (size_t i = 0; i < merged.buckets.size() && i < d.buckets.size();
         ++i) {
      merged.buckets[i] += d.buckets[i];
    }
    merged.count += d.count;
    merged.sum += d.sum;
    merged.max = std::max(merged.max, d.max);
  }
  return merged;
}

uint64_t RegistryDelta::GaugeAfter(const std::string& name) const {
  auto a = after_.gauges.find(name);
  return a == after_.gauges.end() ? 0 : a->second;
}

}  // namespace sharoes::perfbench
