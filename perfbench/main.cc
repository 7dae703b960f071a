// sharoes_perfbench: one closed-loop Sharoes benchmark run.
//
//   sharoes_perfbench --workload read_shared|create_churn|cluster_mixed
//                     --seed N --seconds S --trace 0|1
//                     [--ops N] [--clients N] [--work-dir D]
//
// One process, on as many CPUs as the workload has client threads:
// in-process daemons over loopback TCP, the enterprise provisioned and
// its tree migrated through core::Provisioner, and closed-loop client
// threads on the public SharoesClient API (each makes its next call
// only after the previous one returns).
//
// A run sets up kSetups times (set-up time is their median; the last
// deployment is kept), then runs an untraced phase of S seconds for the
// end-to-end metrics (throughput taken per tenth of the window, the
// median tenth reported) and a traced phase of S/2 seconds for the
// per-layer split and the paper-WAN byte model. For workloads that
// write, it then shuts the daemons down, recovers every WAL into fresh
// servers, checks that each replica recovered exactly the store it held
// at shutdown, and checks through a fresh client that every acked write
// reads back and every removed name is gone. `--ops N` replaces both
// phase deadlines with N calls per client, which makes every count
// exactly repeatable.
//
// Output: the host/config record and a summary as JSON lines, then, as
// the last line, {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The exit code is non-zero when any call failed, any read returned
// wrong bytes, an acked write was lost or a replica recovered another
// store than it held.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes_accel.h"
#include "deploy.h"
#include "obs/metrics.h"
#include "probes.h"
#include "workloads.h"

namespace sharoes::perfbench {
namespace {

/// Identity (user/group) RSA modulus. The paper uses 2048; 1024 keeps
/// repeated set-ups affordable and is recorded with every result.
constexpr size_t kIdentityKeyBits = 1024;
/// Direct NewSigningKeyPair calls timed to price one keygen.
constexpr int kKeygenSamples = 24;
/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  uint64_t ops = 0;  // > 0: fixed calls per client instead of deadlines.
  int clients = 0;   // > 0: overrides the workload's client count.
  std::string work_dir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--ops") {
      a->ops = std::strtoull(v, nullptr, 10);
    } else if (flag == "--clients") {
      a->clients = std::atoi(v);
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && a->clients >= 0;
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

/// Peak resident set of this process image, from VmHWM. (getrusage's
/// ru_maxrss survives execve, so it would report a larger parent's peak.)
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// CPU time of the whole machine from /proc/stat, in clock ticks: all
/// of it, and the share the hypervisor gave to other guests ("steal").
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// Confines this process, and every thread it starts later, to the last
/// `n` CPUs it may run on. On a shared host the hypervisor deschedules
/// virtual CPUs ("steal"). Each hop of a closed-loop call wakes a thread,
/// and on another CPU that wake-up can wait until the hypervisor runs the
/// CPU again: with all four CPUs in use, read_shared lost half its
/// throughput at 8% steal. On as many CPUs as there are client threads,
/// the loss stays near the stolen share.
void PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int left = n;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && left > 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &pinned);
      --left;
    }
  }
  sched_setaffinity(0, sizeof(pinned), &pinned);
}

/// Every client thread finishes its warm-up, then all start together.
class StartGate {
 public:
  explicit StartGate(int n) : waiting_(n) {}
  void CheckIn() {
    std::unique_lock<std::mutex> lock(mu_);
    if (--waiting_ == 0) ready_.notify_all();
    go_.wait(lock, [&] { return fired_; });
  }
  void WaitReady() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return waiting_ == 0; });
  }
  void Fire() {
    std::lock_guard<std::mutex> lock(mu_);
    fired_ = true;
    go_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::condition_variable go_;
  int waiting_;
  bool fired_ = false;
};

using Sessions = std::vector<std::unique_ptr<ClientSession>>;

/// The measured window is cut into this many equal time slices, and
/// `ops_per_s` is the median slice's rate: a burst of interference from
/// outside the benchmark then moves it less than it moves the window's
/// mean.
constexpr int kSlices = 10;

/// The measured window of a timed phase.
struct Window {
  uint64_t start_ns = 0;
  uint64_t length_ns = 0;

  /// The slice a step ending at `now_ns` (inside the window) counts in.
  int SliceOf(uint64_t now_ns) const {
    return static_cast<int>((now_ns - start_ns) * kSlices / length_ns);
  }
};

/// What one phase measured across all clients.
struct Phase {
  PhaseStats stats;   // The measured window.
  PhaseStats warmup;  // Counted only for attempted/failed.
  double ops_per_s = 0;
};

/// Runs warm-up steps, then a measured window on every client thread.
/// `at_start` runs while all clients wait at the gate (nothing in
/// flight), `at_end` after every client has stopped.
Phase RunPhase(Workload& w, Sessions& sessions, bool traced, double seconds,
               uint64_t ops, const std::function<void()>& at_start,
               const std::function<void()>& at_end) {
  const size_t n = sessions.size();
  std::vector<PhaseStats> stats(n), warm(n);
  std::vector<uint64_t> end_ns(n, 0);
  // Per thread and slice: calls completed, and when the slice's last
  // step ended. A slice's rate spans from the previous slice's last step
  // end to its own, so it counts whole calls over exactly their time.
  struct SliceTally {
    uint64_t calls = 0;
    uint64_t last_end_ns = 0;
  };
  std::vector<std::array<SliceTally, kSlices>> slices(n);
  StartGate gate(static_cast<int>(n));
  Window window;
  window.length_ns = ops > 0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      core::FsClient& client = sessions[t]->client();
      Actor& actor = w.actor(static_cast<int>(t));
      OpRecorder warm_rec(&warm[t], traced);
      for (int i = 0; i < w.warmup_steps(); ++i) actor.Step(client, warm_rec);
      gate.CheckIn();
      OpRecorder rec(&stats[t], traced);
      const uint64_t deadline = window.start_ns + window.length_ns;
      while (ops > 0 ? stats[t].attempted < ops : WallNs() < deadline) {
        const uint64_t before = stats[t].attempted;
        actor.Step(client, rec);
        const uint64_t now = WallNs();
        if (now < deadline) {
          SliceTally& tally = slices[t][window.SliceOf(now)];
          tally.calls += stats[t].attempted - before;
          tally.last_end_ns = now;
        }
      }
      end_ns[t] = WallNs();
    });
  }
  gate.WaitReady();
  at_start();
  window.start_ns = WallNs();
  gate.Fire();
  for (std::thread& th : threads) th.join();
  at_end();
  Phase phase;
  double mean_rate = 0;
  for (size_t t = 0; t < n; ++t) {
    phase.stats.Merge(stats[t]);
    phase.warmup.Merge(warm[t]);
    const double elapsed =
        static_cast<double>(end_ns[t] - window.start_ns) / 1e9;
    if (elapsed > 0) {
      mean_rate += static_cast<double>(stats[t].attempted) / elapsed;
    }
  }
  if (ops > 0) {
    phase.ops_per_s = mean_rate;  // Fixed-size runs have no deadline.
  } else {
    std::vector<double> rates(kSlices, 0);
    for (size_t t = 0; t < n; ++t) {
      uint64_t prev_end = window.start_ns;
      for (int k = 0; k < kSlices; ++k) {
        const SliceTally& tally = slices[t][k];
        if (tally.calls == 0) continue;
        rates[k] += static_cast<double>(tally.calls) * 1e9 /
                    static_cast<double>(tally.last_end_ns - prev_end);
        prev_end = tally.last_end_ns;
      }
    }
    phase.ops_per_s = Quantile(&rates, 0.5);
  }
  return phase;
}

/// A deployment with its enterprise and mounted untraced clients.
struct Stack {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Enterprise> enterprise;
  Sessions sessions;
  std::string dir;

  void Close() {
    sessions.clear();
    if (deployment != nullptr) deployment->Shutdown();
    deployment.reset();
  }
};

ClientSession::Options SessionOptions(const Workload& w, bool traced, int t) {
  ClientSession::Options o;
  o.traced = traced;
  o.cache_bytes = w.cache_bytes();
  o.engine_seed = (traced ? 2000u : 1000u) + static_cast<uint64_t>(t);
  return o;
}

/// Start, provisioning, migration and mounts.
Result<Stack> SetUp(const Workload& w, const core::LocalNode& tree,
                    const std::string& dir) {
  Stack s;
  s.dir = dir;
  SHAROES_ASSIGN_OR_RETURN(s.deployment,
                           Deployment::Start(w.topology(), dir));
  {
    SHAROES_ASSIGN_OR_RETURN(std::unique_ptr<ssp::SspChannel> admin,
                             s.deployment->Connect(nullptr, nullptr));
    SHAROES_ASSIGN_OR_RETURN(
        s.enterprise, Provision(admin.get(), tree, kIdentityKeyBits));
  }
  for (int t = 0; t < w.clients(); ++t) {
    SHAROES_ASSIGN_OR_RETURN(
        std::unique_ptr<ClientSession> session,
        ClientSession::Open(*s.deployment, *s.enterprise, w.user(),
                            SessionOptions(w, false, t)));
    s.sessions.push_back(std::move(session));
  }
  return s;
}

/// Mean wall time of one direct NewSigningKeyPair call, in µs. The
/// kMeasured engine does not time key generation, so the traced run
/// prices it here and multiplies by the keygen count.
double KeygenUs() {
  SimClock clock;
  crypto::CryptoEngineOptions o;
  o.rng_seed = 77;
  crypto::CryptoEngine engine(&clock, o);
  const uint64_t t0 = WallNs();
  for (int i = 0; i < kKeygenSamples; ++i) (void)engine.NewSigningKeyPair();
  return static_cast<double>(WallNs() - t0) / 1e3 / kKeygenSamples;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AppendNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    AppendNumber(&out, metrics[i].value);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double PerOp(double total, uint64_t ops) {
  return ops == 0 ? 0 : total / static_cast<double>(ops);
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, args.clients);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PinToCpus(w->clients());
  const Topology topo = w->topology();
  const std::string root = args.work_dir + "/run-" + std::to_string(getpid());
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{root};
  auto fail = [](const char* what, const Status& s) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
    return 1;
  };

  // Every timed figure slows when the hypervisor steals CPU time, so the
  // result records how much it stole during the run.
  const HostTicks host0 = ReadHostTicks();

  // 1. Set up several times; keep the last stack.
  const core::LocalNode tree = w->Tree();
  std::vector<double> setup_s;
  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.Close();
    const std::string dir = root + "/setup" + std::to_string(i);
    const uint64_t t0 = WallNs();
    auto built = SetUp(*w, tree, dir);
    if (!built.ok()) return fail("set-up", built.status());
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    stack = std::move(*built);
    if (i + 1 < kSetups) {
      stack.Close();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  // 2. Untraced phase: the end-to-end metrics.
  Phase plain = RunPhase(*w, stack.sessions, false, args.seconds, args.ops,
                         [] {}, [] {});
  const double peak_rss_mb = PeakRssMb();
  const double stored_per_user =
      static_cast<double>(stack.deployment->StoredBytes()) /
      static_cast<double>(std::max<uint64_t>(1, w->LiveUserBytes()));

  // 3. Traced phase: fresh clients with probes and a kMeasured engine.
  Sessions traced_sessions;
  for (int t = 0; t < w->clients(); ++t) {
    auto s = ClientSession::Open(*stack.deployment, *stack.enterprise,
                                 w->user(), SessionOptions(*w, true, t));
    if (!s.ok()) return fail("traced mount", s.status());
    traced_sessions.push_back(std::move(*s));
  }
  struct ClientMark {
    crypto::CryptoEngine::OpCounts counts;
    uint64_t crypto_ns = 0;
    uint64_t retry_rounds = 0, repairs = 0, failovers = 0;
  };
  auto mark = [&traced_sessions] {
    std::vector<ClientMark> out;
    for (const auto& s : traced_sessions) {
      ClientMark m;
      m.counts = s->engine().op_counts();
      m.crypto_ns = s->clock().snapshot().crypto_ns();
      if (const core::ShardedChannel* sc = s->sharded()) {
        m.retry_rounds = sc->quorum_retry_rounds();
        m.repairs = sc->read_repairs();
        m.failovers = sc->read_failovers();
      }
      out.push_back(m);
    }
    return out;
  };
  std::vector<ClientMark> mark0, mark1;
  obs::RegistrySnapshot reg0, reg1;
  Phase traced = RunPhase(
      *w, traced_sessions, true, args.seconds / 2, args.ops,
      [&] {
        for (auto& s : traced_sessions) s->ResetProbes();
        mark0 = mark();
        reg0 = obs::MetricsRegistry::Global().Snapshot();
      },
      [&] {
        mark1 = mark();
        reg1 = obs::MetricsRegistry::Global().Snapshot();
      });
  ChannelTotals logical, nodes;
  for (const auto& s : traced_sessions) {
    logical.Merge(s->LogicalTotals());
    nodes.Merge(s->NodeTotals());
  }
  traced_sessions.clear();

  // 4. Durability: recover every WAL into fresh daemons, compare each
  // replica's recovered store with what it held at shutdown, and read
  // every acked write back through a fresh client.
  uint64_t lost = 0;
  uint64_t diverged_replicas = 0;
  if (w->writes()) {
    stack.sessions.clear();
    stack.deployment->Shutdown();
    const std::vector<Bytes> served = stack.deployment->StoreImages();
    stack.Close();
    auto reopened = Deployment::Start(topo, stack.dir);
    if (!reopened.ok()) return fail("WAL recovery", reopened.status());
    // Before any client connects: read repair would rewrite replicas.
    const std::vector<Bytes> recovered = (*reopened)->StoreImages();
    for (size_t i = 0; i < served.size(); ++i) {
      if (served[i] != recovered[i]) ++diverged_replicas;
    }
    auto fresh = ClientSession::Open(**reopened, *stack.enterprise, w->user(),
                                     SessionOptions(*w, false, 99));
    if (!fresh.ok()) return fail("fresh mount", fresh.status());
    lost = w->CountLost((*fresh)->client());
  }
  stack.Close();

  // 5. Metrics.
  const uint64_t ops = traced.stats.attempted;
  const RegistryDelta reg(std::move(reg0), std::move(reg1));
  ClientMark d;
  for (size_t i = 0; i < mark0.size(); ++i) {
    const auto& a = mark0[i].counts;
    const auto& b = mark1[i].counts;
    d.counts.sym_encrypt += b.sym_encrypt - a.sym_encrypt;
    d.counts.sym_decrypt += b.sym_decrypt - a.sym_decrypt;
    d.counts.sign += b.sign - a.sign;
    d.counts.verify += b.verify - a.verify;
    d.counts.keygen += b.keygen - a.keygen;
    d.crypto_ns += mark1[i].crypto_ns - mark0[i].crypto_ns;
    d.retry_rounds += mark1[i].retry_rounds - mark0[i].retry_rounds;
    d.repairs += mark1[i].repairs - mark0[i].repairs;
    d.failovers += mark1[i].failovers - mark0[i].failovers;
  }
  const double keygen_us = KeygenUs();
  const HostTicks host1 = ReadHostTicks();
  const double steal_pct =
      host1.total > host0.total
          ? 100.0 * static_cast<double>(host1.steal - host0.steal) /
                static_cast<double>(host1.total - host0.total)
          : 0;
  const double crypto_us = static_cast<double>(d.crypto_ns) / 1e3;
  const double keygen_est_us =
      keygen_us * static_cast<double>(d.counts.keygen);
  // Outside its channel calls (and the probe's own bookkeeping), an op's
  // time belongs to the client: crypto, the keygen estimate and the
  // client's self time, which is all on the client thread's CPU.
  const double outside_wall_us =
      traced.stats.op_wall_us - logical.call_us - logical.probe_us;
  const double outside_cpu_us =
      traced.stats.op_cpu_us - logical.cpu_us - logical.probe_us;
  const double self_us = outside_cpu_us - crypto_us - keygen_est_us;
  // Wall time outside calls that the client thread did not spend on its
  // CPU: waits that neither the wire nor crypto nor self time explain.
  const double unexplained_pct =
      traced.stats.op_wall_us > 0
          ? 100.0 * (outside_wall_us - outside_cpu_us) /
                traced.stats.op_wall_us
          : 0;
  const uint64_t hits = reg.Counter("client.cache.hits");
  const uint64_t misses = reg.Counter("client.cache.misses");
  const obs::HistogramSnapshot service =
      reg.HistogramsWithPrefix("ssp.service_us.");
  std::vector<double> node_calls = nodes.call_samples_us;
  const double wire_p50 = Quantile(&node_calls, 0.5);
  const double service_p50 = static_cast<double>(service.Percentile(0.5));

  auto lat = [&](OpClass c, double q) {
    std::vector<double> v = plain.stats.latency_us[static_cast<int>(c)];
    return Quantile(&v, q);
  };
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"ops_per_s", plain.ops_per_s, "1/s"},
      {"wan_model_ms_per_op", PerOp(logical.wan_ms, ops), "ms"},
      {"stored_bytes_per_user_byte", stored_per_user, "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  std::vector<Metric> layers = {
      {"read_p50_us", lat(OpClass::kRead, 0.50), "us"},
      {"read_p99_us", lat(OpClass::kRead, 0.99), "us"},
      {"stat_p50_us", lat(OpClass::kStat, 0.50), "us"},
      {"stat_p99_us", lat(OpClass::kStat, 0.99), "us"},
      {"write_p50_us", lat(OpClass::kWrite, 0.50), "us"},
      {"write_p99_us", lat(OpClass::kWrite, 0.99), "us"},
      {"create_p50_us", lat(OpClass::kCreate, 0.50), "us"},
      {"create_p90_us", lat(OpClass::kCreate, 0.90), "us"},
      {"client.self_us_per_op", PerOp(self_us, ops), "us"},
      {"client.rpc_per_op", PerOp(static_cast<double>(logical.calls), ops),
       "count"},
      {"cache.hit_ratio",
       hits + misses == 0 ? 0
                          : static_cast<double>(hits) /
                                static_cast<double>(hits + misses),
       "ratio"},
      {"wire.us_per_call_p50", wire_p50, "us"},
      {"wire.req_bytes_per_op",
       PerOp(static_cast<double>(reg.Counter("ssp.bytes_in")), ops), "B"},
      {"wire.resp_bytes_per_op",
       PerOp(static_cast<double>(reg.Counter("ssp.bytes_out")), ops), "B"},
      {"wire.queue_us_p50", wire_p50 - service_p50, "us"},
      {"ssp.service_us_p50", service_p50, "us"},
      {"store.objects",
       static_cast<double>(reg.GaugeAfter("ssp.store.objects")), "count"},
      {"wal.appends_per_op",
       PerOp(static_cast<double>(reg.Counter("ssp.wal.appends")), ops),
       "count"},
      {"wal.fsyncs_per_op",
       PerOp(static_cast<double>(reg.Counter("ssp.wal.fsyncs")), ops),
       "count"},
      {"wal.append_us_p50",
       static_cast<double>(reg.Histogram("ssp.wal.append_us").Percentile(0.5)),
       "us"},
      {"wal.fsync_us_p50",
       static_cast<double>(reg.Histogram("ssp.wal.fsync_us").Percentile(0.5)),
       "us"},
      {"wal.compactions",
       static_cast<double>(reg.Counter("ssp.wal.compactions")), "count"},
      {"crypto.us_per_op", PerOp(crypto_us, ops), "us"},
      {"crypto.keygen_per_op",
       PerOp(static_cast<double>(d.counts.keygen), ops), "count"},
      {"crypto.keygen_us_est", PerOp(keygen_est_us, ops), "us"},
      {"crypto.sign_per_op", PerOp(static_cast<double>(d.counts.sign), ops),
       "count"},
      {"crypto.verify_per_op",
       PerOp(static_cast<double>(d.counts.verify), ops), "count"},
      {"crypto.sym_per_op",
       PerOp(static_cast<double>(d.counts.sym_encrypt + d.counts.sym_decrypt),
             ops),
       "count"},
      {"shard.fanout_per_call",
       PerOp(static_cast<double>(nodes.calls), logical.calls), "count"},
      {"shard.node_us_p50", wire_p50, "us"},
      {"shard.coord_us_per_call", PerOp(logical.coord_us, logical.calls),
       "us"},
      {"shard.retry_rounds_per_call",
       PerOp(static_cast<double>(d.retry_rounds), logical.calls), "count"},
      {"shard.read_repairs", static_cast<double>(d.repairs), "count"},
      {"shard.failovers", static_cast<double>(d.failovers), "count"},
      {"trace.overhead_pct",
       plain.ops_per_s > 0
           ? 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
           : 0,
       "%"},
  };

  const uint64_t attempted = plain.stats.attempted + plain.warmup.attempted +
                             traced.stats.attempted + traced.warmup.attempted;
  const uint64_t failed = plain.stats.failed + plain.warmup.failed +
                          traced.stats.failed + traced.warmup.failed;
  const bool correct = failed == 0 && lost == 0 && diverged_replicas == 0 &&
                       logical.failed == 0;
  // Reconciliation, in two parts, since self time has no measure of its
  // own: the time outside channel calls must be on the client's CPU (at
  // most 25% of op time unexplained), and the crypto time and keygen
  // estimate must fit inside that CPU time (self time not negative).
  const bool flagged = std::abs(unexplained_pct) > 25 || self_us < 0;
  if (flagged) {
    std::fprintf(stderr,
                 "perfbench: %s: traced op time does not reconcile: %.1f%% "
                 "off-CPU outside channel calls, client self time %.1f "
                 "us/op\n",
                 args.workload.c_str(), unexplained_pct, PerOp(self_us, ops));
  }
  if (lost > 0) {
    std::fprintf(stderr, "perfbench: %llu acked writes lost\n",
                 static_cast<unsigned long long>(lost));
  }
  if (diverged_replicas > 0) {
    std::fprintf(stderr,
                 "perfbench: %llu replicas recovered another store from "
                 "their WAL than they held at shutdown\n",
                 static_cast<unsigned long long>(diverged_replicas));
  }

  // Host and configuration: results from different hosts or settings
  // are not comparable.
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"ops\": %llu, \"cpus\": %d, \"aes_clmul\": %s, \"build_type\": "
      "\"%s\", \"wal_sync\": \"%s\", \"nodes\": %u, \"K\": %u, \"W\": %u, "
      "\"R\": %u, \"clients\": %d, \"cache_bytes\": %llu, "
      "\"identity_key_bits\": %zu, \"signing_key_bits\": %zu, "
      "\"setups\": %d}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, static_cast<unsigned long long>(args.ops), CpuCount(),
      crypto::CpuHasAesClmul() ? "true" : "false", PERFBENCH_BUILD_TYPE,
      ssp::WalSyncPolicyName(ssp::WalOptions{}.sync), topo.nodes,
      topo.replication, topo.write_quorum, topo.read_quorum, w->clients(),
      static_cast<unsigned long long>(
          w->cache_bytes().value_or(core::ClientOptions{}.cache_bytes)),
      kIdentityKeyBits, SigningKeyBits(), kSetups);
  std::printf(
      "{\"checks\": {\"lost_acked_writes\": %llu, "
      "\"diverged_replicas\": %llu, \"failed_calls\": %llu, "
      "\"measured_ops\": %llu, \"traced_ops\": %llu, "
      "\"traced_creates\": %zu, \"reads\": %zu, "
      "\"stats\": %zu, \"writes\": %zu, \"creates\": %zu, "
      "\"unexplained_pct\": %.3f, \"reconciliation_flagged\": %s, "
      "\"keygen_us\": %.1f, \"host_steal_pct\": %.2f}}\n",
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(diverged_replicas),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(plain.stats.attempted),
      static_cast<unsigned long long>(ops),
      traced.stats.latency_us[static_cast<int>(OpClass::kCreate)].size(),
      plain.stats.latency_us[0].size(), plain.stats.latency_us[1].size(),
      plain.stats.latency_us[2].size(), plain.stats.latency_us[3].size(),
      unexplained_pct, flagged ? "true" : "false", keygen_us, steal_pct);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace == 1 ? layers : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sharoes::perfbench

int main(int argc, char** argv) {
  sharoes::perfbench::Args args;
  if (!sharoes::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sharoes_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--ops N] [--clients N] "
                 "[--work-dir DIR]\n");
    return 2;
  }
  return sharoes::perfbench::Run(args);
}
