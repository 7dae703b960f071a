// The system under test, assembled in one process: in-process SSP
// daemons over loopback TCP (each with its own write-ahead log, as
// `sharoes_sspd --wal` runs them), the enterprise provisioned through
// core::Provisioner, and client sessions built on the public
// SharoesClient API.

#ifndef PERFBENCH_DEPLOY_H_
#define PERFBENCH_DEPLOY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/identity.h"
#include "core/migration.h"
#include "core/sharded_channel.h"
#include "crypto/keys.h"
#include "probes.h"
#include "ssp/placement.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "util/bytes.h"
#include "util/sim_clock.h"

namespace sharoes::perfbench {

inline constexpr fs::UserId kOwner = 100;   // alice: owns every tree.
inline constexpr fs::UserId kMember = 101;  // bob: member of kGroup.
inline constexpr fs::GroupId kGroup = 500;  // staff.

/// A single daemon (nodes == 1) or a replicated cluster.
struct Topology {
  uint32_t nodes = 1;
  uint32_t replication = 1;  // K.
  uint32_t write_quorum = 1;  // W.
  uint32_t read_quorum = 1;   // R.
};

/// Running daemons. Each node serves an SspServer whose store is
/// recovered from (and logged to) `<work_dir>/node<i>` by ssp::Wal with
/// the library's default WalOptions.
class Deployment {
 public:
  /// Opens every node's WAL directory (creating it when absent), starts
  /// the daemons on ephemeral ports and, for a cluster, arms placement
  /// and delete tombstones exactly like `sharoes_sspd --cluster`.
  static Result<std::unique_ptr<Deployment>> Start(const Topology& topology,
                                                   const std::string& work_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Stops serving and closes every WAL (no final compaction: a reopen
  /// must replay the log). Idempotent.
  void Shutdown();

  bool cluster() const { return topology_.nodes > 1; }

  /// The client's channel: a RetryingConnection over one TCP stream, or
  /// a ShardedChannel over the cluster — both with library defaults.
  /// With probes, each per-node TCP channel is wrapped in a node
  /// TimedChannel and the result in a logical one. `sharded_out`
  /// receives the ShardedChannel (cluster only) for its counters.
  Result<std::unique_ptr<ssp::SspChannel>> Connect(
      ChannelProbe* logical, ChannelProbe* nodes,
      core::ShardedChannel** sharded_out = nullptr) const;

  /// Bytes the SSP stores across all nodes (replicas count).
  uint64_t StoredBytes() const;

  /// Each node's whole store as ObjectStore::Serialize writes it (byte
  /// for byte deterministic, generations and tombstones included). Taken
  /// after Shutdown and again after a restart on the same directory, it
  /// shows whether each replica's WAL recovered exactly what it served.
  std::vector<Bytes> StoreImages() const;

 private:
  struct Node {
    std::unique_ptr<ssp::SspServer> server;
    std::unique_ptr<ssp::Wal> wal;
    std::unique_ptr<ssp::TcpSspDaemon> daemon;
  };

  explicit Deployment(const Topology& topology) : topology_(topology) {}

  Topology topology_;
  ssp::ClusterConfig config_;
  // Servers check ownership against the ring per request: it must
  // outlive them, so it is declared first.
  std::unique_ptr<ssp::PlacementRing> ring_;
  std::vector<Node> nodes_;
};

/// The enterprise side: identity registry plus the user private keys
/// the provisioner hands out.
struct Enterprise {
  core::IdentityDirectory identity;
  std::map<fs::UserId, crypto::RsaPrivateKey> keys;
};

/// Registers alice and bob, the group {alice, bob}, and migrates `root`
/// through core::Provisioner over `channel`.
Result<std::unique_ptr<Enterprise>> Provision(ssp::SspChannel* channel,
                                              const core::LocalNode& root,
                                              size_t identity_key_bits);

/// Bits of the RSA signing keys every engine here generates (the
/// library default).
size_t SigningKeyBits();

/// One mounted client: engine, channel and SharoesClient for one user.
/// Untraced sessions use library defaults throughout; traced ones give
/// the client a ChargePolicy::kMeasured engine on its own SimClock (so
/// the clock's crypto total is real crypto time) with
/// client_overhead_ms = 0, and wrap the channels in probes.
class ClientSession {
 public:
  struct Options {
    bool traced = false;
    std::optional<size_t> cache_bytes;  // Library default when unset.
    uint64_t engine_seed = 1;
  };

  static Result<std::unique_ptr<ClientSession>> Open(
      const Deployment& deployment, const Enterprise& enterprise,
      fs::UserId uid, const Options& options);

  core::SharoesClient& client() { return *client_; }
  const crypto::CryptoEngine& engine() const { return *engine_; }
  const SimClock& clock() const { return clock_; }
  /// Null unless the deployment is a cluster.
  const core::ShardedChannel* sharded() const { return sharded_; }
  ChannelTotals LogicalTotals() const { return logical_probe_.Totals(); }
  ChannelTotals NodeTotals() const { return node_probe_.Totals(); }
  void ResetProbes() {
    logical_probe_.Reset();
    node_probe_.Reset();
  }

 private:
  ClientSession() = default;

  // Declaration order is destruction order in reverse: the client goes
  // first, then the channel (whose decorators point at the probes),
  // then the engine and clock.
  SimClock clock_;
  std::unique_ptr<crypto::CryptoEngine> engine_;
  ChannelProbe logical_probe_;
  ChannelProbe node_probe_;
  std::unique_ptr<ssp::SspChannel> channel_;
  core::ShardedChannel* sharded_ = nullptr;
  std::unique_ptr<core::SharoesClient> client_;
};

}  // namespace sharoes::perfbench

#endif  // PERFBENCH_DEPLOY_H_
