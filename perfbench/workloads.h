// The three closed-loop workloads. Each one generates its migrated tree
// and every client's call sequence from the run's seed, keeps a model of
// what the filesystem must hold, and checks every Read against it.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fs_client.h"
#include "core/migration.h"
#include "deploy.h"

namespace sharoes::perfbench {

/// Latency classes of FS calls.
enum class OpClass : int {
  kRead = 0,    // Read.
  kStat = 1,    // Getattr, Readdir.
  kWrite = 2,   // WriteFile.
  kCreate = 3,  // Create, Mkdir.
  kOther = 4,   // Unlink, Rename, Rmdir.
};
inline constexpr int kNumOpClasses = 5;

/// What one client thread measured in one phase.
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::array<std::vector<double>, kNumOpClasses> latency_us;
  double op_wall_us = 0;  // Sum over calls.
  double op_cpu_us = 0;   // Calling thread's CPU, traced phases only.

  void Merge(const PhaseStats& o);
};

/// Times each FS call a workload step makes. A call fails when it
/// returns a non-OK status or when the workload reports wrong output.
class OpRecorder {
 public:
  OpRecorder(PhaseStats* stats, bool traced) : stats_(stats), traced_(traced) {}

  /// Runs and times one FS call; returns its status.
  Status Run(OpClass cls, const std::function<Status()>& call);
  /// Marks the last call as failed: its output did not match the model.
  void FailLast();

 private:
  PhaseStats* stats_;
  bool traced_;
};

/// One client thread's call generator. Actors keep their state across
/// phases, so the model stays exact for the whole run.
class Actor {
 public:
  virtual ~Actor() = default;
  /// Makes the next step's FS calls.
  virtual void Step(core::FsClient& client, OpRecorder& rec) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Topology topology() const { return Topology{}; }
  virtual int clients() const = 0;
  /// The user every client session mounts as.
  virtual fs::UserId user() const = 0;
  virtual std::optional<size_t> cache_bytes() const { return std::nullopt; }
  /// Unmeasured steps per client before each phase (caches fill).
  virtual int warmup_steps() const = 0;
  /// The tree core::Provisioner migrates at set-up.
  virtual core::LocalNode Tree() const = 0;
  virtual Actor& actor(int client) = 0;
  /// Bytes of file content the model says is live.
  virtual uint64_t LiveUserBytes() const = 0;
  /// Whether the workload writes, so its durability is checked.
  virtual bool writes() const { return false; }
  /// Durability check through a fresh client over recovered daemons:
  /// counts acked content that does not read back and removed names
  /// that are still present.
  virtual uint64_t CountLost(core::FsClient& fresh) const {
    (void)fresh;
    return 0;
  }
};

/// "read_shared", "create_churn" or "cluster_mixed"; null otherwise.
/// `clients` > 0 overrides the workload's client count.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients);

}  // namespace sharoes::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
