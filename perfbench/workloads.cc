#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <map>

#include "probes.h"
#include "util/random.h"

namespace sharoes::perfbench {
namespace {

constexpr size_t kKiB = 1024;
constexpr size_t kBlock = 4 * kKiB;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

core::LocalNode Dir(std::string name, fs::UserId owner, unsigned mode) {
  return core::LocalNode::Dir(std::move(name), owner, kGroup,
                              fs::Mode::FromOctal(mode));
}

core::LocalNode File(std::string name, fs::UserId owner, unsigned mode,
                     Bytes content) {
  return core::LocalNode::File(std::move(name), owner, kGroup,
                               fs::Mode::FromOctal(mode), std::move(content));
}

/// Zipf(s) over ranks [0, n): precomputed CDF + binary search.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Deals a fixed multiset of step kinds in a freshly shuffled order each
/// cycle, so every run makes the same mix, only in a seeded order.
class Cycle {
 public:
  explicit Cycle(std::vector<int> slots) : slots_(std::move(slots)) {}
  int Next(Rng& rng) {
    if (pos_ == 0) {
      for (size_t i = slots_.size(); i > 1; --i) {
        std::swap(slots_[i - 1], slots_[rng.NextBelow(i)]);
      }
    }
    int kind = slots_[pos_];
    pos_ = (pos_ + 1) % slots_.size();
    return kind;
  }

 private:
  std::vector<int> slots_;
  size_t pos_ = 0;
};

std::vector<int> Slots(std::initializer_list<std::pair<int, int>> counts) {
  std::vector<int> out;
  for (auto [kind, n] : counts) out.insert(out.end(), n, kind);
  return out;
}

/// `prefix` followed by `n` in decimal.
std::string Name(char prefix, uint64_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

struct FileModel {
  std::string path;
  Bytes content;
};

/// Reads `f` and checks its bytes; returns false on any failure.
bool ReadAndCheck(core::FsClient& client, OpRecorder& rec,
                  const FileModel& f) {
  std::optional<Result<Bytes>> got;
  Status s = rec.Run(OpClass::kRead, [&] {
    got.emplace(client.Read(f.path));
    return got->status();
  });
  if (s.ok() && **got != f.content) {
    rec.FailLast();
    return false;
  }
  return s.ok();
}

/// Getattr must find a regular file. Its size is not checked: sizes
/// live in the signed data descriptor, and Getattr reports one only when
/// it can without a round trip (DESIGN.md, "File sizes live in the data
/// path").
bool GetattrAndCheck(core::FsClient& client, OpRecorder& rec,
                     const FileModel& f) {
  std::optional<Result<fs::InodeAttrs>> got;
  Status s = rec.Run(OpClass::kStat, [&] {
    got.emplace(client.Getattr(f.path));
    return got->status();
  });
  if (s.ok() && (*got)->is_dir()) {
    rec.FailLast();
    return false;
  }
  return s.ok();
}

/// Durability: one check per file, outside any timing.
uint64_t CountUnreadable(core::FsClient& client,
                         const std::vector<FileModel>& files) {
  uint64_t lost = 0;
  for (const FileModel& f : files) {
    auto got = client.Read(f.path);
    if (!got.ok() || *got != f.content) ++lost;
  }
  return lost;
}

/// The owner's shared tree under /shared: files ranked by popularity.
/// Sizes are a fixed function of the rank — one-block files spread over
/// 1..4 KiB, multi-block files at fixed ranks — so every seed has the
/// same read-size profile; the seed picks the contents and a
/// permutation of the names.
struct SharedTree {
  std::vector<FileModel> by_rank;
  std::vector<std::string> sorted_names;

  SharedTree(uint64_t seed, size_t files,
             const std::vector<std::pair<size_t, size_t>>& multi_block) {
    Rng rng(Mix(seed, 1));
    std::vector<size_t> ids(files);
    for (size_t i = 0; i < files; ++i) ids[i] = i;
    for (size_t i = files; i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextBelow(i)]);
    }
    by_rank.resize(files);
    for (size_t r = 0; r < files; ++r) {
      size_t size = kKiB + (r * 1571) % (kBlock - kKiB + 1);
      for (auto [rank, bytes] : multi_block) {
        if (rank == r) size = bytes;
      }
      char name[16];
      std::snprintf(name, sizeof(name), "f%03zu", ids[r]);
      by_rank[r].path = std::string("/shared/") + name;
      by_rank[r].content = rng.NextBytes(size);
      sorted_names.push_back(name);
    }
    std::sort(sorted_names.begin(), sorted_names.end());
  }

  core::LocalNode Node() const {
    core::LocalNode dir = Dir("shared", kOwner, 0750);
    for (const FileModel& f : by_rank) {
      dir.children.push_back(
          File(f.path.substr(8), kOwner, 0640, f.content));
    }
    return dir;
  }

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const FileModel& f : by_rank) total += f.content.size();
    return total;
  }
};

enum Kind : int { kRead, kGetattr, kReaddir, kOverwrite };

/// Shared reads (Read by Zipf rank, Getattr of any name, Readdir) plus,
/// when `own` is set, overwrites of the client's own files.
class ReaderActor : public Actor {
 public:
  ReaderActor(const SharedTree* tree, const Zipf* zipf,
              std::vector<FileModel>* own, std::vector<int> slots,
              uint64_t seed)
      : tree_(tree), zipf_(zipf), own_(own), cycle_(std::move(slots)),
        rng_(seed) {}

  void Step(core::FsClient& client, OpRecorder& rec) override {
    switch (cycle_.Next(rng_)) {
      case kRead:
        ReadAndCheck(client, rec, tree_->by_rank[zipf_->Sample(rng_)]);
        break;
      case kGetattr:  // Metadata scans visit names uniformly.
        GetattrAndCheck(client, rec,
                        tree_->by_rank[rng_.NextBelow(tree_->by_rank.size())]);
        break;
      case kReaddir: {
        std::optional<Result<std::vector<std::string>>> got;
        Status s = rec.Run(OpClass::kStat, [&] {
          got.emplace(client.Readdir("/shared"));
          return got->status();
        });
        if (s.ok()) {
          std::vector<std::string> names = **got;
          std::sort(names.begin(), names.end());
          if (names != tree_->sorted_names) rec.FailLast();
        }
        break;
      }
      case kOverwrite: {
        FileModel& f = (*own_)[rng_.NextBelow(own_->size())];
        Bytes next = rng_.NextBytes(kBlock);
        Status s = rec.Run(OpClass::kWrite,
                           [&] { return client.WriteFile(f.path, next); });
        if (s.ok()) f.content = std::move(next);
        break;
      }
    }
  }

 private:
  const SharedTree* tree_;
  const Zipf* zipf_;
  std::vector<FileModel>* own_;
  Cycle cycle_;
  Rng rng_;
};

// --- read_shared -------------------------------------------------------

/// A group member reads the owner's migrated tree. 46 files: mostly one
/// block, six from 32 KiB to 1 MiB. The client cache holds 1/16 of the
/// tree, so the hot head hits and most reads miss.
class ReadShared : public Workload {
 public:
  ReadShared(uint64_t seed, int clients)
      : tree_(seed, 46,
              {{2, 64 * kKiB}, {5, 1024 * kKiB}, {9, 256 * kKiB},
               {14, 32 * kKiB}, {20, 512 * kKiB}, {27, 128 * kKiB}}),
        zipf_(tree_.by_rank.size(), 1.0) {
    for (int t = 0; t < clients; ++t) {
      actors_.push_back(std::make_unique<ReaderActor>(
          &tree_, &zipf_, nullptr,
          Slots({{kRead, 16}, {kGetattr, 3}, {kReaddir, 1}}),
          Mix(seed, 100 + static_cast<uint64_t>(t))));
    }
  }

  int clients() const override { return static_cast<int>(actors_.size()); }
  fs::UserId user() const override { return kMember; }
  std::optional<size_t> cache_bytes() const override {
    return tree_.TotalBytes() / 16;
  }
  int warmup_steps() const override { return 200; }
  core::LocalNode Tree() const override {
    core::LocalNode root = Dir("", kOwner, 0755);
    root.children.push_back(tree_.Node());
    return root;
  }
  Actor& actor(int t) override { return *actors_[static_cast<size_t>(t)]; }
  uint64_t LiveUserBytes() const override { return tree_.TotalBytes(); }

 private:
  SharedTree tree_;
  Zipf zipf_;
  std::vector<std::unique_ptr<Actor>> actors_;
};

// --- create_churn ------------------------------------------------------

constexpr size_t kChurnDirs = 3;     // Directories per client.
constexpr size_t kChurnMaxFiles = 6;  // Population bound per directory.
constexpr size_t kChurnInitial = 3;  // Files per directory at set-up.
constexpr int kRetireEvery = 24;     // Steps between directory turnovers.

/// The owner churns files in private directories under /home/c<t>.
/// Populations stay bounded, so per-create table re-rendering does not
/// drift with run length. Every step then reads back and stats one live
/// file, which the client cache serves.
class ChurnActor : public Actor {
 public:
  ChurnActor(int client, uint64_t seed)
      : home_("/home/c" + std::to_string(client)), rng_(seed) {
    for (size_t d = 0; d < kChurnDirs; ++d) {
      DirModel dir;
      dir.name = Name('d', next_dir_++);
      for (size_t f = 0; f < kChurnInitial; ++f) {
        dir.files[Name('i', f)] = rng_.NextBytes(kBlock);
      }
      dirs_.push_back(std::move(dir));
    }
  }

  core::LocalNode Node() const {
    core::LocalNode home = Dir(home_.substr(6), kOwner, 0700);
    for (const DirModel& d : dirs_) {
      core::LocalNode dir = Dir(d.name, kOwner, 0700);
      for (const auto& [name, content] : d.files) {
        dir.children.push_back(File(name, kOwner, 0600, content));
      }
      home.children.push_back(std::move(dir));
    }
    return home;
  }

  void Step(core::FsClient& client, OpRecorder& rec) override {
    if (++steps_ % kRetireEvery == 0) {
      Retire(client, rec);
    } else {
      Churn(client, rec);
    }
    std::vector<FileModel> live = Live();
    if (live.empty()) return;
    ReadAndCheck(client, rec, live[rng_.NextBelow(live.size())]);
    GetattrAndCheck(client, rec, live[rng_.NextBelow(live.size())]);
  }

  std::vector<FileModel> Live() const {
    std::vector<FileModel> out;
    for (const DirModel& d : dirs_) {
      for (const auto& [name, content] : d.files) {
        out.push_back(FileModel{Path(d, name), content});
      }
    }
    return out;
  }
  const std::vector<std::string>& removed() const { return removed_; }

 private:
  struct DirModel {
    std::string name;
    std::map<std::string, Bytes> files;
  };

  std::string Path(const DirModel& d) const { return home_ + "/" + d.name; }
  std::string Path(const DirModel& d, const std::string& f) const {
    return Path(d) + "/" + f;
  }

  void Churn(core::FsClient& client, OpRecorder& rec) {
    DirModel& d = dirs_[rng_.NextBelow(dirs_.size())];
    if (d.files.size() < kChurnMaxFiles) {
      const std::string name = Name('n', next_file_++);
      const std::string path = Path(d, name);
      core::CreateOptions opts;
      opts.mode = fs::Mode::FromOctal(0600);
      if (!rec.Run(OpClass::kCreate, [&] { return client.Create(path, opts); })
               .ok()) {
        return;
      }
      d.files[name] = Bytes();
      Bytes content = rng_.NextBytes(kBlock);
      if (rec.Run(OpClass::kWrite,
                  [&] { return client.WriteFile(path, content); })
              .ok()) {
        d.files[name] = std::move(content);
      }
      return;
    }
    auto victim = std::next(d.files.begin(),
                            static_cast<long>(rng_.NextBelow(d.files.size())));
    if (rng_.NextBool() || !MoveOut(client, rec, d, victim)) {
      Unlink(client, rec, d, victim);
    }
  }

  /// Renames `f` into another directory with room; false if none has.
  bool MoveOut(core::FsClient& client, OpRecorder& rec, DirModel& from,
               std::map<std::string, Bytes>::iterator f) {
    std::vector<DirModel*> room;
    for (DirModel& d : dirs_) {
      if (&d != &from && d.files.size() < kChurnMaxFiles) room.push_back(&d);
    }
    if (room.empty()) return false;
    DirModel& to = *room[rng_.NextBelow(room.size())];
    const std::string src = Path(from, f->first);
    const std::string name = Name('n', next_file_++);
    const std::string dst = Path(to, name);
    if (rec.Run(OpClass::kOther, [&] { return client.Rename(src, dst); })
            .ok()) {
      to.files[name] = std::move(f->second);
      from.files.erase(f);
      removed_.push_back(src);
    }
    return true;
  }

  void Unlink(core::FsClient& client, OpRecorder& rec, DirModel& d,
              std::map<std::string, Bytes>::iterator f) {
    const std::string path = Path(d, f->first);
    if (rec.Run(OpClass::kOther, [&] { return client.Unlink(path); }).ok()) {
      d.files.erase(f);
      removed_.push_back(path);
    }
  }

  /// Empties the least-populated directory (renaming files into others
  /// with room, unlinking the rest), removes it, and makes a new one.
  void Retire(core::FsClient& client, OpRecorder& rec) {
    auto it = std::min_element(dirs_.begin(), dirs_.end(),
                               [](const DirModel& a, const DirModel& b) {
                                 return a.files.size() < b.files.size();
                               });
    DirModel retired = std::move(*it);
    dirs_.erase(it);
    while (!retired.files.empty()) {
      auto f = retired.files.begin();
      const size_t before = retired.files.size();
      // MoveOut scans dirs_, which no longer holds `retired`.
      if (!MoveOut(client, rec, retired, f)) Unlink(client, rec, retired, f);
      if (retired.files.size() == before) return;  // A failed call.
    }
    const std::string old_path = Path(retired);
    if (!rec.Run(OpClass::kOther, [&] { return client.Rmdir(old_path); })
             .ok()) {
      return;
    }
    removed_.push_back(old_path);
    DirModel fresh;
    fresh.name = Name('d', next_dir_++);
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(0700);
    if (rec.Run(OpClass::kCreate,
                [&] { return client.Mkdir(Path(fresh), opts); })
            .ok()) {
      dirs_.push_back(std::move(fresh));
    }
  }

  std::string home_;
  Rng rng_;
  std::vector<DirModel> dirs_;
  std::vector<std::string> removed_;
  uint64_t steps_ = 0;
  uint64_t next_file_ = 0;
  uint64_t next_dir_ = 0;
};

class CreateChurn : public Workload {
 public:
  CreateChurn(uint64_t seed, int clients) {
    for (int t = 0; t < clients; ++t) {
      actors_.push_back(std::make_unique<ChurnActor>(
          t, Mix(seed, 200 + static_cast<uint64_t>(t))));
    }
  }

  int clients() const override { return static_cast<int>(actors_.size()); }
  fs::UserId user() const override { return kOwner; }
  int warmup_steps() const override { return 8; }
  core::LocalNode Tree() const override {
    core::LocalNode home = Dir("home", kOwner, 0755);
    for (const auto& a : actors_) home.children.push_back(a->Node());
    core::LocalNode root = Dir("", kOwner, 0755);
    root.children.push_back(std::move(home));
    return root;
  }
  Actor& actor(int t) override { return *actors_[static_cast<size_t>(t)]; }
  uint64_t LiveUserBytes() const override {
    uint64_t total = 0;
    for (const auto& a : actors_) {
      for (const FileModel& f : a->Live()) total += f.content.size();
    }
    return total;
  }
  bool writes() const override { return true; }
  uint64_t CountLost(core::FsClient& fresh) const override {
    uint64_t lost = 0;
    for (const auto& a : actors_) {
      lost += CountUnreadable(fresh, a->Live());
      for (const std::string& path : a->removed()) {
        if (!fresh.Getattr(path).status().IsNotFound()) ++lost;
      }
    }
    return lost;
  }

 private:
  std::vector<std::unique_ptr<ChurnActor>> actors_;
};

// --- cluster_mixed -----------------------------------------------------

/// Three replicated daemons (K=3, W=R=2). A group member reads the
/// owner's one-block shared tree and overwrites its own files, with no
/// creates. The cache holds half the shared tree.
class ClusterMixed : public Workload {
 public:
  static constexpr size_t kOwnFiles = 6;

  ClusterMixed(uint64_t seed, int clients)
      : tree_(seed, 16, {}), zipf_(tree_.by_rank.size(), 1.0) {
    Rng rng(Mix(seed, 300));
    own_.resize(static_cast<size_t>(clients));
    for (int t = 0; t < clients; ++t) {
      for (size_t i = 0; i < kOwnFiles; ++i) {
        own_[static_cast<size_t>(t)].push_back(FileModel{
            "/home/bob/c" + std::to_string(t) + "p" + std::to_string(i),
            rng.NextBytes(kBlock)});
      }
      actors_.push_back(std::make_unique<ReaderActor>(
          &tree_, &zipf_, &own_[static_cast<size_t>(t)],
          Slots({{kRead, 5}, {kGetattr, 2}, {kOverwrite, 3}}),
          Mix(seed, 400 + static_cast<uint64_t>(t))));
    }
  }

  Topology topology() const override { return Topology{3, 3, 2, 2}; }
  int clients() const override { return static_cast<int>(actors_.size()); }
  fs::UserId user() const override { return kMember; }
  std::optional<size_t> cache_bytes() const override {
    return tree_.TotalBytes() / 2;
  }
  int warmup_steps() const override { return 10; }
  core::LocalNode Tree() const override {
    core::LocalNode bob = Dir("bob", kMember, 0700);
    for (const auto& files : own_) {
      for (const FileModel& f : files) {
        bob.children.push_back(File(f.path.substr(10), kMember, 0600,
                                    f.content));
      }
    }
    core::LocalNode home = Dir("home", kOwner, 0755);
    home.children.push_back(std::move(bob));
    core::LocalNode root = Dir("", kOwner, 0755);
    root.children.push_back(tree_.Node());
    root.children.push_back(std::move(home));
    return root;
  }
  Actor& actor(int t) override { return *actors_[static_cast<size_t>(t)]; }
  uint64_t LiveUserBytes() const override {
    uint64_t total = tree_.TotalBytes();
    for (const auto& files : own_) {
      for (const FileModel& f : files) total += f.content.size();
    }
    return total;
  }
  bool writes() const override { return true; }
  uint64_t CountLost(core::FsClient& fresh) const override {
    uint64_t lost = CountUnreadable(fresh, tree_.by_rank);
    for (const auto& files : own_) lost += CountUnreadable(fresh, files);
    return lost;
  }

 private:
  SharedTree tree_;
  Zipf zipf_;
  std::vector<std::vector<FileModel>> own_;
  std::vector<std::unique_ptr<Actor>> actors_;
};

/// Reports the first few failed calls on stderr.
void LogFailure(const std::string& what) {
  static std::atomic<int> logged{0};
  if (logged.fetch_add(1) < 8) {
    std::fprintf(stderr, "perfbench: call failed: %s\n", what.c_str());
  }
}

}  // namespace

void PhaseStats::Merge(const PhaseStats& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (int c = 0; c < kNumOpClasses; ++c) {
    latency_us[c].insert(latency_us[c].end(), o.latency_us[c].begin(),
                         o.latency_us[c].end());
  }
  op_wall_us += o.op_wall_us;
  op_cpu_us += o.op_cpu_us;
}

Status OpRecorder::Run(OpClass cls, const std::function<Status()>& call) {
  const uint64_t cpu0 = traced_ ? ThreadCpuNs() : 0;
  const uint64_t t0 = WallNs();
  Status s = call();
  const double us = static_cast<double>(WallNs() - t0) / 1e3;
  const uint64_t cpu1 = traced_ ? ThreadCpuNs() : 0;
  stats_->attempted += 1;
  if (!s.ok()) {
    stats_->failed += 1;
    LogFailure(s.ToString());
  }
  stats_->latency_us[static_cast<int>(cls)].push_back(us);
  stats_->op_wall_us += us;
  stats_->op_cpu_us += static_cast<double>(cpu1 - cpu0) / 1e3;
  return s;
}

void OpRecorder::FailLast() {
  stats_->failed += 1;
  std::fprintf(stderr, "perfbench: a call's output does not match the model\n");
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       int clients) {
  if (name == "read_shared") {
    return std::make_unique<ReadShared>(seed, clients > 0 ? clients : 1);
  }
  if (name == "create_churn") {
    return std::make_unique<CreateChurn>(seed, clients > 0 ? clients : 2);
  }
  if (name == "cluster_mixed") {
    return std::make_unique<ClusterMixed>(seed, clients > 0 ? clients : 1);
  }
  return nullptr;
}

}  // namespace sharoes::perfbench
