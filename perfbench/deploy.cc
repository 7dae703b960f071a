#include "deploy.h"

#include <filesystem>

#include "core/retrying_connection.h"

namespace sharoes::perfbench {
namespace {

core::RetryingConnection::ChannelFactory TcpFactory(
    uint16_t port, const net::TcpTimeouts& timeouts, ChannelProbe* probe) {
  return [port, timeouts,
          probe]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", port, timeouts);
    if (!channel.ok()) return channel.status();
    std::unique_ptr<ssp::SspChannel> out = std::move(*channel);
    if (probe != nullptr) {
      out = std::make_unique<TimedChannel>(
          std::move(out), TimedChannel::Role::kNode, probe);
    }
    return out;
  };
}

}  // namespace

Result<std::unique_ptr<Deployment>> Deployment::Start(
    const Topology& topology, const std::string& work_dir) {
  std::unique_ptr<Deployment> d(new Deployment(topology));
  d->config_.replication = topology.replication;
  d->config_.write_quorum = topology.write_quorum;
  d->config_.read_quorum = topology.read_quorum;
  d->nodes_.resize(topology.nodes);
  for (uint32_t i = 0; i < topology.nodes; ++i) {
    Node& node = d->nodes_[i];
    const std::string dir = work_dir + "/node" + std::to_string(i);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return Status::IoError("cannot create " + dir);
    node.server = std::make_unique<ssp::SspServer>();
    // Tombstones must be on before WAL recovery, as in sharoes_sspd.
    if (d->cluster()) node.server->store().set_tombstones_enabled(true);
    SHAROES_ASSIGN_OR_RETURN(
        node.wal, ssp::Wal::Open(dir, ssp::WalOptions{},
                                 &node.server->store()));
    node.server->set_wal(node.wal.get());
    SHAROES_ASSIGN_OR_RETURN(node.daemon,
                             ssp::TcpSspDaemon::Start(node.server.get(), 0));
    d->config_.nodes.push_back(
        ssp::ClusterNode{i, "127.0.0.1", node.daemon->port()});
  }
  if (d->cluster()) {
    SHAROES_RETURN_IF_ERROR(d->config_.Validate());
    SHAROES_ASSIGN_OR_RETURN(ssp::PlacementRing ring,
                             ssp::PlacementRing::Build(d->config_));
    d->ring_ = std::make_unique<ssp::PlacementRing>(std::move(ring));
    for (uint32_t i = 0; i < topology.nodes; ++i) {
      d->nodes_[i].server->set_placement(d->ring_.get(), i);
    }
  }
  return d;
}

Deployment::~Deployment() { Shutdown(); }

void Deployment::Shutdown() {
  for (Node& node : nodes_) {
    if (node.daemon != nullptr) node.daemon->Shutdown();
  }
  for (Node& node : nodes_) {
    if (node.server != nullptr) node.server->set_wal(nullptr);
    node.wal.reset();
  }
}

Result<std::unique_ptr<ssp::SspChannel>> Deployment::Connect(
    ChannelProbe* logical, ChannelProbe* nodes,
    core::ShardedChannel** sharded_out) const {
  std::unique_ptr<ssp::SspChannel> channel;
  if (cluster()) {
    const core::ShardedChannelOptions options;
    const net::TcpTimeouts timeouts = options.timeouts;
    SHAROES_ASSIGN_OR_RETURN(
        std::unique_ptr<core::ShardedChannel> sharded,
        core::ShardedChannel::Create(
            config_,
            [timeouts, nodes](const ssp::ClusterNode& node) {
              return TcpFactory(node.port, timeouts, nodes);
            },
            options));
    if (sharded_out != nullptr) *sharded_out = sharded.get();
    channel = std::move(sharded);
  } else {
    const core::ClientOptions defaults;
    channel = std::make_unique<core::RetryingConnection>(
        TcpFactory(config_.nodes[0].port, defaults.transport_timeouts, nodes),
        defaults.transport_retry);
  }
  if (logical != nullptr) {
    channel = std::make_unique<TimedChannel>(
        std::move(channel), TimedChannel::Role::kLogical, logical, nodes);
  }
  return channel;
}

uint64_t Deployment::StoredBytes() const {
  uint64_t total = 0;
  for (const Node& node : nodes_) {
    total += node.server->store().Stats().total_bytes();
  }
  return total;
}

std::vector<Bytes> Deployment::StoreImages() const {
  std::vector<Bytes> images;
  for (const Node& node : nodes_) {
    images.push_back(node.server->store().Serialize());
  }
  return images;
}

size_t SigningKeyBits() { return crypto::CryptoEngineOptions{}.signing_key_bits; }

Result<std::unique_ptr<Enterprise>> Provision(ssp::SspChannel* channel,
                                              const core::LocalNode& root,
                                              size_t identity_key_bits) {
  auto ent = std::make_unique<Enterprise>();
  // The provisioning engine's randomness is fixed so identity keys (and
  // their generation time) do not vary between runs.
  SimClock clock;
  crypto::CryptoEngineOptions eopts;
  eopts.rng_seed = 4242;
  crypto::CryptoEngine engine(&clock, eopts);
  core::Provisioner::Options popts;
  popts.user_key_bits = identity_key_bits;
  core::Provisioner prov(&ent->identity, /*server=*/nullptr, &engine, popts);
  prov.set_remote_channel(channel);
  SHAROES_ASSIGN_OR_RETURN(crypto::RsaKeyPair alice,
                           prov.CreateUser(kOwner, "alice"));
  SHAROES_ASSIGN_OR_RETURN(crypto::RsaKeyPair bob,
                           prov.CreateUser(kMember, "bob"));
  ent->keys[kOwner] = alice.priv;
  ent->keys[kMember] = bob.priv;
  SHAROES_RETURN_IF_ERROR(
      prov.CreateGroup(kGroup, "staff", {kOwner, kMember}).status());
  SHAROES_RETURN_IF_ERROR(prov.Migrate(root).status());
  return ent;
}

Result<std::unique_ptr<ClientSession>> ClientSession::Open(
    const Deployment& deployment, const Enterprise& enterprise,
    fs::UserId uid, const Options& options) {
  std::unique_ptr<ClientSession> s(new ClientSession());
  crypto::CryptoEngineOptions eopts;
  eopts.rng_seed = options.engine_seed;
  core::ClientOptions copts;
  if (options.cache_bytes.has_value()) copts.cache_bytes = *options.cache_bytes;
  if (options.traced) {
    eopts.charge_policy = crypto::ChargePolicy::kMeasured;
    copts.client_overhead_ms = 0;
  }
  s->engine_ = std::make_unique<crypto::CryptoEngine>(&s->clock_, eopts);
  SHAROES_ASSIGN_OR_RETURN(
      s->channel_,
      deployment.Connect(options.traced ? &s->logical_probe_ : nullptr,
                         options.traced ? &s->node_probe_ : nullptr,
                         &s->sharded_));
  auto key = enterprise.keys.find(uid);
  if (key == enterprise.keys.end()) {
    return Status::NotFound("no key for uid " + std::to_string(uid));
  }
  s->client_ = std::make_unique<core::SharoesClient>(
      uid, key->second, &enterprise.identity, s->channel_.get(),
      s->engine_.get(), copts);
  SHAROES_RETURN_IF_ERROR(s->client_->Mount());
  return s;
}

}  // namespace sharoes::perfbench
