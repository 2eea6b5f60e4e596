// perfbench — DSM-DB's end-to-end benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// A closed loop from one process drives three workloads through the public
// API (core::DsmDb, ComputeNode::ExecuteOneShot, index::ShermanBTree,
// dsm::DsmClient), checks every result against values computed from the
// benchmark's own inputs (checks.h), and prints one JSON object as the last
// line of stdout: end-to-end metrics untraced, per-layer metrics traced.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/metrics.h"
#include "common/sim_clock.h"
#include "core/dsmdb.h"
#include "index/sherman_btree.h"
#include "obs/critical_path.h"
#include "obs/obs_config.h"
#include "obs/trace.h"
#include "rt/scheduler.h"

namespace perfbench {
namespace {

using namespace dsmdb;  // NOLINT

// ------------------------------------------------------------------ clocks

uint64_t WallNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Usage {
  double cpu_s = 0;  ///< User + system CPU of every thread, ended ones too.
  uint64_t ctx_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of exact samples (no histogram buckets).
uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

// ------------------------------------------------------------------ inputs

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    s_ += 0x9E3779B97F4A7C15ULL;
    return Mix64(s_);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Zipfian ranks in [0, n), rank 0 the most popular (Gray et al., the
/// generator YCSB uses).
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; i++) {
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    zetan_ = zetan;
    zeta2_ = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const auto r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double zetan_ = 0, zeta2_ = 0, alpha_ = 0, eta_ = 0;
};

// --------------------------------------------------------------- workloads

enum class Kind { kYcsb, kBank, kIndex };

struct Spec {
  const char* name;
  Kind kind;
  core::Architecture arch;
  txn::CcProtocolKind protocol;
  uint32_t mem_nodes;
  uint32_t compute_nodes;
  uint32_t workers_per_node;
  uint32_t lanes;        ///< In-flight transactions per worker.
  uint64_t num_keys;     ///< Table rows.
  uint64_t mem_bytes;    ///< Region of each memory node.
  uint64_t pool_bytes;   ///< Buffer pool of each compute node (0 = none).
  bool replicated_log;   ///< Memory-replicated commit log, k = 2.
  uint32_t round_txns;   ///< Transactions per worker per round.
  /// Rounds behind the simulated metrics. Short rounds keep the workers'
  /// simulated clocks close (they resynchronize at every round).
  uint32_t sim_rounds;
  /// Rounds one cluster can take before its memory fills (0 = no limit).
  uint32_t rounds_per_setup;

  uint32_t workers() const { return compute_nodes * workers_per_node; }
};

constexpr uint32_t kValueSize = 64;
constexpr uint64_t kYcsbSlice = 16384;  ///< Keys per worker (power of 2).
constexpr uint32_t kYcsbOps = 8;
constexpr uint32_t kBankShards = 4;
constexpr uint32_t kSearches = 4;
constexpr uint32_t kMaxAttempts = 100'000;  ///< Attempt budget per txn.
constexpr uint32_t kSetups = 5;     ///< setup_s is the median of these.

// Why each workload exists, and the measurements behind its sizes, are in
// README.md. bank-sharded-2pc retires its cluster after 8 rounds (256k
// transactions): its commit log is never truncated, and 128 MiB memory
// nodes filled after about 1.3M commits.
const Spec kSpecs[] = {
    {"ycsb-hot-lanes", Kind::kYcsb, core::Architecture::kNoCacheNoSharding,
     txn::CcProtocolKind::kTwoPlNoWait, 2, 2, 2, 4, 4 * kYcsbSlice, 16 << 20,
     0, false, 2000, 4, 0},
    {"bank-sharded-2pc", Kind::kBank, core::Architecture::kCacheSharding,
     txn::CcProtocolKind::kTwoPlNoWait, 3, 4, 1, 1, 100'000, 64 << 20,
     4 << 20, true, 8000, 4, 8},
    {"index-lookup-cached", Kind::kIndex, core::Architecture::kCacheNoSharding,
     txn::CcProtocolKind::kOcc, 2, 2, 2, 1, 200'000, 48 << 20, 4 << 20, false,
     1000, 20, 0},
};

int64_t LoadedBalance(const Spec& spec, uint64_t key) {
  switch (spec.kind) {
    case Kind::kYcsb: return 1'000'000 + static_cast<int64_t>(key % 1000);
    case Kind::kBank: return 10'000 + static_cast<int64_t>(key % 100);
    case Kind::kIndex: return static_cast<int64_t>(key);
  }
  return 0;
}

/// One generated transaction. The program receives only `ops` (and, for the
/// index workload, the search keys); the rest is the benchmark's answer key.
struct TxnInput {
  std::vector<core::TxnOp> ops;
  std::vector<uint64_t> search_keys;
  std::vector<uint64_t> slots;  ///< Slot the generator assigned per key.
  int64_t deposit = 0;          ///< Money the transaction adds to the bank.
};

/// Makes every input from the seed: same seed, same inputs.
class Generator {
 public:
  Generator(const Spec& spec, uint64_t seed)
      : spec_(spec),
        seed_(seed),
        zipf_(spec.kind == Kind::kYcsb ? kYcsbSlice
              : spec.kind == Kind::kBank
                  ? spec.num_keys / kBankShards / kBankShards
                  : spec.num_keys,
              spec.kind == Kind::kBank ? 0.5 : 0.99) {}

  /// The index workload's i-th sparse key; Mix64 is a bijection, so keys
  /// are distinct.
  uint64_t SparseKey(uint64_t i) const {
    return Mix64(i + 1 + seed_ * spec_.num_keys);
  }
  /// The record slot the generator assigns to the i-th sparse key (a
  /// permutation: 7919 is prime and does not divide num_keys).
  uint64_t SlotOf(uint64_t i) const { return (i * 7919) % spec_.num_keys; }

  Rng RoundRng(uint32_t round, uint32_t worker) const {
    return Rng(Mix64(seed_) ^ Mix64((uint64_t{round} << 20) + worker));
  }

  TxnInput Next(Rng& rng, uint32_t worker) const {
    switch (spec_.kind) {
      case Kind::kYcsb: return NextYcsb(rng, worker);
      case Kind::kBank: return NextBank(rng, worker);
      case Kind::kIndex: return NextIndex(rng);
    }
    return {};
  }

 private:
  static int64_t Amount(Rng& rng) {
    return static_cast<int64_t>(rng.Uniform(100)) + 1;
  }

  // 8 distinct keys of the worker's own zipf slice, in key order; a random
  // half are read-modify-write Adds.
  TxnInput NextYcsb(Rng& rng, uint32_t worker) const {
    std::vector<uint64_t> keys;
    while (keys.size() < kYcsbOps) {
      const uint64_t k = worker * kYcsbSlice +
                         ((zipf_.Next(rng) * 0x9E3779B1ULL) & (kYcsbSlice - 1));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    std::sort(keys.begin(), keys.end());
    std::vector<bool> add(kYcsbOps, false);
    for (uint32_t placed = 0; placed < kYcsbOps / 2;) {
      const uint64_t i = rng.Uniform(kYcsbOps);
      if (!add[i]) {
        add[i] = true;
        placed++;
      }
    }
    TxnInput in;
    for (uint32_t i = 0; i < kYcsbOps; i++) {
      const int64_t d = rng.Uniform(2) == 0 ? Amount(rng) : -Amount(rng);
      in.ops.push_back(add[i] ? core::TxnOp::Add(keys[i], d)
                              : core::TxnOp::Read(keys[i]));
    }
    return in;
  }

  // Worker w uses only the w-th quarter of each shard, so no two workers
  // ever touch one record. A conflict across worker threads lets host
  // scheduling into simulated time: a rival of a lock holder that the host
  // has descheduled retries in simulated time until the holder runs again.
  // With shared accounts, 3 of 10 runs under CPU steal read ~310k instead
  // of ~400k simulated txn/s.
  uint64_t Account(uint32_t shard, uint32_t worker, Rng& rng) const {
    const uint64_t per = spec_.num_keys / kBankShards;
    const uint64_t part = per / kBankShards;
    return shard * per + worker * part + (zipf_.Next(rng) * 7919) % part;
  }

  // SmallBank-style mix (worker i runs on compute node i, which owns shard
  // i): 20% balance reads, 60% payments (30% of them to another shard,
  // i.e. 2PC), 20% deposits to an account of any shard (3 in 4 land on a
  // foreign owner and are delegated).
  TxnInput NextBank(Rng& rng, uint32_t worker) const {
    TxnInput in;
    const uint64_t mix = rng.Uniform(100);
    if (mix < 20) {
      in.ops.push_back(core::TxnOp::Read(Account(worker, worker, rng)));
    } else if (mix < 80) {
      const uint64_t from = Account(worker, worker, rng);
      uint64_t to = from;
      if (rng.Uniform(100) < 30) {
        const uint32_t other = static_cast<uint32_t>(
            (worker + 1 + rng.Uniform(kBankShards - 1)) % kBankShards);
        to = Account(other, worker, rng);
      } else {
        while (to == from) to = Account(worker, worker, rng);
      }
      const int64_t amt = Amount(rng);
      const uint64_t lo = std::min(from, to);
      const uint64_t hi = std::max(from, to);
      in.ops.push_back(core::TxnOp::Add(lo, lo == from ? -amt : amt));
      in.ops.push_back(core::TxnOp::Add(hi, hi == from ? -amt : amt));
    } else {
      const uint32_t shard =
          static_cast<uint32_t>(rng.Uniform(kBankShards));
      in.deposit = Amount(rng);
      in.ops.push_back(
          core::TxnOp::Add(Account(shard, worker, rng), in.deposit));
    }
    return in;
  }

  // 4 distinct zipf-0.99 keys, searched in the tree, then read together.
  TxnInput NextIndex(Rng& rng) const {
    TxnInput in;
    std::vector<uint64_t> picked;
    while (picked.size() < kSearches) {
      const uint64_t i = zipf_.Next(rng);
      if (std::find(picked.begin(), picked.end(), i) == picked.end()) {
        picked.push_back(i);
      }
    }
    for (uint64_t i : picked) {
      in.search_keys.push_back(SparseKey(i));
      in.slots.push_back(SlotOf(i));
    }
    return in;
  }

  const Spec& spec_;
  uint64_t seed_;
  Zipf zipf_;
};

// ------------------------------------------------------------------- spans

/// One span the benchmark recorded around its own call into a layer: host
/// wall time, the calling thread's CPU time (a lane's own work, excluding
/// its siblings) and simulated time.
struct Span {
  const char* name = nullptr;
  const char* layer = nullptr;
  uint64_t wall_start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t sim_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t worker = 0;
};

std::atomic<uint64_t> g_span_ids{1};
uint64_t g_wall_origin_ns = 0;

class SpanTimer {
 public:
  SpanTimer()
      : wall_(WallNs()), cpu_(ThreadCpuNs()), sim_(SimClock::Now()) {}
  Span Finish(const char* name, const char* layer, uint64_t id,
              uint64_t parent, uint32_t worker) const {
    Span s;
    s.name = name;
    s.layer = layer;
    s.wall_start_ns = wall_ - g_wall_origin_ns;
    s.wall_ns = WallNs() - wall_;
    s.cpu_ns = ThreadCpuNs() - cpu_;
    s.sim_ns = SimClock::Now() - sim_;
    s.id = id;
    s.parent = parent;
    s.worker = worker;
    return s;
  }

 private:
  uint64_t wall_, cpu_, sim_;
};

/// Spans of a run: totals per name are exact; the spans kept for the trace
/// file are capped per name, so every layer's spans appear in it.
class SpanLog {
 public:
  static constexpr size_t kKeepPerName = 5'000;
  struct Total {
    uint64_t count = 0, wall_ns = 0, cpu_ns = 0, sim_ns = 0;
    void Add(const Total& o) {
      count += o.count;
      wall_ns += o.wall_ns;
      cpu_ns += o.cpu_ns;
      sim_ns += o.sim_ns;
    }
  };
  void Add(const Span& s) {
    totals_[s.name].Add({1, s.wall_ns, s.cpu_ns, s.sim_ns});
    Keep(s);
  }
  void Merge(const SpanLog& o) {
    for (const auto& [name, t] : o.totals_) totals_[name].Add(t);
    for (const Span& s : o.kept_) Keep(s);
  }
  Total Get(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? Total{} : it->second;
  }
  /// Chrome trace_event JSON (host wall time; cpu/sim ns in args).
  void WriteChrome(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"traceEvents\":[";
    for (size_t i = 0; i < kept_.size(); i++) {
      const Span& s = kept_[i];
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
          "\"parent\":%llu,\"cpu_ns\":%llu,\"sim_ns\":%llu}}",
          i == 0 ? "" : ",\n", s.name, s.layer, s.worker,
          static_cast<double>(s.wall_start_ns) / 1e3,
          static_cast<double>(s.wall_ns) / 1e3,
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.cpu_ns),
          static_cast<unsigned long long>(s.sim_ns));
      f << buf;
    }
    f << "]}\n";
  }

 private:
  void Keep(const Span& s) {
    if (kept_per_name_[s.name]++ < kKeepPerName) kept_.push_back(s);
  }

  std::map<std::string, Total> totals_;
  std::map<std::string, size_t> kept_per_name_;
  std::vector<Span> kept_;
};

/// Calls `fn` and, in a traced round, records a span around the call.
template <typename Fn>
auto Timed(bool traced, SpanLog* log, const char* name, const char* layer,
           uint64_t parent, uint32_t worker, Fn&& fn) {
  if (!traced) return fn();
  const SpanTimer t;
  auto result = fn();
  log->Add(t.Finish(name, layer, g_span_ids.fetch_add(1), parent, worker));
  return result;
}

// ------------------------------------------------------------------- setup

/// One fully built cluster: the program under test plus its loaded data.
struct Setup {
  std::unique_ptr<core::DsmDb> db;
  std::vector<core::ComputeNode*> nodes;
  const core::Table* table = nullptr;
  std::vector<std::unique_ptr<index::ShermanBTree>> trees;  ///< Per node.
  double cpu_s = 0;  ///< Host CPU time of the whole build.
};

/// Set-up and the final reads must not fail: a failure ends the run with
/// exit code 2 and no result.
void MustSucceed(const Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
  std::exit(2);
}

/// Writes every record (zero header, then LoadValue) stripe by stripe in
/// large one-sided writes.
Status LoadTable(const Spec& spec, dsm::DsmClient& dsm,
                 const core::Table& t) {
  const uint64_t stripes = t.stripes().size();
  const uint64_t stride = t.record_stride();
  for (uint32_t n = 0; n < stripes; n++) {
    const uint64_t rows = t.KeysPerStripe(n);
    std::string buf(rows * stride, '\0');
    for (uint64_t slot = 0; slot < rows; slot++) {
      const uint64_t key = slot * stripes + n;
      const std::string v =
          LoadValue(key, LoadedBalance(spec, key), kValueSize);
      std::memcpy(buf.data() + slot * stride + txn::kRecordHeaderBytes,
                  v.data(), v.size());
    }
    constexpr uint64_t kChunk = 1 << 20;
    for (uint64_t off = 0; off < buf.size(); off += kChunk) {
      const uint64_t len = std::min<uint64_t>(kChunk, buf.size() - off);
      Status s = dsm.Write(t.stripes()[n].Plus(off), buf.data() + off, len);
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

std::unique_ptr<Setup> BuildSetup(const Spec& spec, const Generator& gen,
                                  uint64_t seed, SpanLog* spans) {
  auto s = std::make_unique<Setup>();
  const SpanTimer total;

  dsm::ClusterOptions cluster;
  cluster.num_memory_nodes = spec.mem_nodes;
  cluster.memory_node.capacity_bytes = spec.mem_bytes;
  core::DbOptions options;
  options.architecture = spec.arch;
  options.cc.protocol = spec.protocol;
  if (spec.pool_bytes > 0) options.buffer.capacity_bytes = spec.pool_bytes;
  // By default the pool charges its measured host CPU time to simulated
  // time, which makes simulated results depend on host load (index
  // sim_tput read 84k txn/s on an idle machine, 52-72k under CPU steal).
  // The pool's host cost is measured on the host clock instead.
  options.buffer.charge_policy_overhead = false;
  if (spec.replicated_log) {
    options.durability = core::DurabilityMode::kMemReplication;
    options.replicated_log.replication_factor = 2;
  }
  const uint64_t root = g_span_ids.fetch_add(1);
  {
    const SpanTimer t;
    s->db = std::make_unique<core::DsmDb>(cluster, options);
    for (uint32_t i = 0; i < spec.compute_nodes; i++) {
      s->nodes.push_back(s->db->AddComputeNode());
    }
    spans->Add(t.Finish("dsm.cluster_build", "dsm", g_span_ids.fetch_add(1),
                        root, 0));
  }
  {
    const SpanTimer t;
    Result<const core::Table*> table = s->db->CreateTable(
        "bench", {.value_size = kValueSize, .num_keys = spec.num_keys});
    MustSucceed(table.status(), "create table");
    s->table = *table;
    MustSucceed(s->db->FinishSetup(), "finish setup");
    MustSucceed(LoadTable(spec, s->db->admin(), *s->table), "load");
    spans->Add(t.Finish("core.load", "core", g_span_ids.fetch_add(1), root,
                        0));
  }
  if (spec.kind == Kind::kBank) {
    // The generator's shard arithmetic must match the program's ranges.
    core::ShardManager* shards = s->db->shards("bench");
    const uint64_t per = spec.num_keys / kBankShards;
    for (uint32_t sh = 0; sh < kBankShards; sh++) {
      if (shards == nullptr || shards->OwnerOf(sh * per) != sh ||
          shards->OwnerOf((sh + 1) * per - 1) != sh) {
        std::fprintf(stderr, "shard ranges differ from the generator's\n");
        std::exit(2);
      }
    }
  }
  if (spec.kind == Kind::kIndex) {
    // Built from one thread, in a seeded random key order.
    const SpanTimer t;
    Result<dsm::GlobalAddress> meta =
        index::ShermanBTree::Create(&s->db->admin());
    MustSucceed(meta.status(), "create btree");
    index::ShermanBTree builder(&s->db->admin(), *meta);
    std::vector<uint64_t> order(spec.num_keys);
    for (uint64_t i = 0; i < order.size(); i++) order[i] = i;
    Rng rng(Mix64(seed ^ 0xB7EEULL));
    for (uint64_t i = order.size() - 1; i > 0; i--) {
      std::swap(order[i], order[rng.Uniform(i + 1)]);
    }
    for (uint64_t i : order) {
      MustSucceed(builder.Insert(gen.SparseKey(i), gen.SlotOf(i)),
                  "btree insert");
    }
    for (core::ComputeNode* cn : s->nodes) {
      s->trees.push_back(std::make_unique<index::ShermanBTree>(
          &cn->dsm(), *meta,
          index::BTreeOptions{.cache_internal_nodes = true}));
    }
    spans->Add(t.Finish("index.build", "index", g_span_ids.fetch_add(1),
                        root, 0));
  }
  const Span all = total.Finish("bench.setup", "bench", root, 0, 0);
  spans->Add(all);
  s->cpu_s = static_cast<double>(all.cpu_ns) / 1e9;
  return s;
}

/// Reads every record's value straight from DSM (the source of truth for
/// all three architectures: buffer pools write through).
std::vector<std::string> ReadAllValues(Setup& s) {
  const core::Table& t = *s.table;
  const uint64_t stripes = t.stripes().size();
  const uint64_t stride = t.record_stride();
  std::vector<std::string> values(t.num_keys());
  for (uint32_t n = 0; n < stripes; n++) {
    const uint64_t rows = t.KeysPerStripe(n);
    std::string buf(rows * stride, '\0');
    constexpr uint64_t kChunk = 1 << 20;
    for (uint64_t off = 0; off < buf.size(); off += kChunk) {
      const uint64_t len = std::min<uint64_t>(kChunk, buf.size() - off);
      MustSucceed(
          s.db->admin().Read(t.stripes()[n].Plus(off), buf.data() + off, len),
          "final read");
    }
    for (uint64_t slot = 0; slot < rows; slot++) {
      values[slot * stripes + n] =
          buf.substr(slot * stride + txn::kRecordHeaderBytes, kValueSize);
    }
  }
  return values;
}

// ------------------------------------------------------------------ rounds

/// Pins the calling thread, and the lane threads it creates (they inherit
/// the mask), to the w-th CPU this process may use. A worker models one
/// simulated core; on one host CPU its lanes hand the baton over without
/// cross-CPU wakeups. Unpinned, host throughput of the same run varied
/// 2-4x between runs on a shared 4-CPU machine.
void PinToCpu(uint32_t w) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[w % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort: unpinned still runs
}

/// What one worker did in one round.
struct WorkerOut {
  uint64_t txns = 0, committed = 0, failed = 0, attempts = 0;
  uint64_t retried = 0;      ///< Committed txns that needed > 1 attempt.
  uint64_t payload_bad = 0;  ///< Reads without the key's load pattern.
  uint64_t index_bad = 0;    ///< Searches that returned a wrong slot.
  int64_t deposits = 0;      ///< Committed deposits.
  uint64_t end_ns = 0;       ///< Worker's simulated clock at round end.
  std::vector<uint64_t> latency_ns;  ///< Per committed txn, retries in.
  SpanLog spans;
  // One sample of each checked output, for --selftest.
  uint64_t add_key = 0;
  int64_t add_delta = 0;
  uint64_t read_key = 0;
  std::string read_value;
  std::vector<uint64_t> assigned, found;
};

/// State that lives across rounds.
struct Run {
  const Spec& spec;
  const Generator& gen;
  Setup* setup;
  /// Per worker: sum of committed deltas per key (the ledger's input).
  std::vector<std::vector<int64_t>> deltas;
  uint64_t sim_now = 0;  ///< Simulated start of the next round.
};

struct RoundResult {
  std::vector<WorkerOut> outs;
  uint64_t sim_ns = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  uint64_t txns = 0, committed = 0, failed = 0, attempts = 0;
  bool traced = false;
};

void RunTxn(Run& run, uint32_t worker, const TxnInput& in, bool traced,
            WorkerOut& out) {
  const Spec& spec = run.spec;
  core::ComputeNode* node = run.setup->nodes[worker / spec.workers_per_node];
  index::ShermanBTree* tree =
      spec.kind == Kind::kIndex
          ? run.setup->trees[worker / spec.workers_per_node].get()
          : nullptr;
  const uint64_t t0 = SimClock::Now();
  std::optional<SpanTimer> txn_timer;
  if (traced) txn_timer.emplace();
  const uint64_t txn_id = traced ? g_span_ids.fetch_add(1) : 0;
  std::vector<core::TxnOp> index_ops;
  const std::vector<core::TxnOp>* ops = &in.ops;
  core::TxnResult result;
  uint32_t attempts = 0;
  bool committed = false;
  bool failed = false;
  while (!committed && !failed) {
    if (attempts == kMaxAttempts) {
      failed = true;
      break;
    }
    attempts++;
    // Roots the program's own spans of this attempt (critical path).
    obs::TraceTxnScope attempt_scope("bench.attempt", "bench");
    if (tree != nullptr) {
      std::vector<uint64_t> found;
      for (uint64_t key : in.search_keys) {
        Result<uint64_t> slot =
            Timed(traced, &out.spans, "index.Search", "index", txn_id, worker,
                  [&] { return tree->Search(key); });
        if (!slot.ok()) {
          failed = true;
          break;
        }
        found.push_back(*slot);
      }
      if (failed) break;
      out.index_bad += IndexMismatches(in.slots, found);
      if (out.assigned.empty()) {
        out.assigned = in.slots;
        out.found = found;
      }
      std::sort(found.begin(), found.end());
      found.erase(std::unique(found.begin(), found.end()), found.end());
      index_ops.clear();
      for (uint64_t slot : found) index_ops.push_back(core::TxnOp::Read(slot));
      ops = &index_ops;
    }
    Result<core::TxnResult> r =
        Timed(traced, &out.spans, "core.ExecuteOneShot", "core", txn_id,
              worker, [&] {
                return node->ExecuteOneShot(*run.setup->table, *ops);
              });
    if (!r.ok()) {
      failed = true;
      break;
    }
    if (r->committed) {
      committed = true;
      result = std::move(*r);
    }
  }
  out.txns++;
  out.attempts += attempts;
  if (traced) {
    out.spans.Add(txn_timer->Finish("bench.txn", "bench", txn_id, 0, worker));
  }
  if (failed) {
    out.failed++;
    return;
  }
  out.committed++;
  if (attempts > 1) out.retried++;
  out.latency_ns.push_back(SimClock::Now() - t0);
  std::vector<int64_t>& delta = run.deltas[worker];
  for (size_t i = 0; i < ops->size(); i++) {
    const core::TxnOp& op = (*ops)[i];
    if (op.type == core::TxnOpType::kAdd) {
      delta[op.key] += op.delta;
      if (out.add_delta == 0) {
        out.add_key = op.key;
        out.add_delta = op.delta;
      }
    } else if (op.type == core::TxnOpType::kRead) {
      // TxnResult::reads has one slot per op (empty for writes and adds).
      const std::string& v =
          i < result.reads.size() ? result.reads[i] : std::string();
      if (!PayloadOk(op.key, v, kValueSize)) out.payload_bad++;
      if (out.read_value.empty()) {
        out.read_key = op.key;
        out.read_value = v;
      }
    }
  }
  out.deposits += in.deposit;
}

/// Runs one round: every worker executes `round_txns` generated
/// transactions in a closed loop, starting together at `run.sim_now`.
RoundResult RunRound(Run& run, uint32_t round, bool traced) {
  const Spec& spec = run.spec;
  const uint32_t workers = spec.workers();
  std::vector<std::vector<TxnInput>> inputs(workers);
  for (uint32_t w = 0; w < workers; w++) {
    Rng rng = run.gen.RoundRng(round, w);
    inputs[w].reserve(spec.round_txns);
    for (uint32_t i = 0; i < spec.round_txns; i++) {
      inputs[w].push_back(run.gen.Next(rng, w));
    }
  }
  RoundResult rr;
  rr.traced = traced;
  rr.outs.resize(workers);
  const Usage u0 = ProcessUsage();
  const uint64_t wall0 = WallNs();
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < workers; w++) {
    threads.emplace_back([&, w] {
      PinToCpu(w);
      SimClock::AdvanceTo(run.sim_now);
      WorkerOut& out = rr.outs[w];
      out.latency_ns.reserve(spec.round_txns);
      const std::vector<TxnInput>& mine = inputs[w];
      if (spec.lanes == 1) {
        for (const TxnInput& in : mine) RunTxn(run, w, in, traced, out);
      } else {
        // Lanes pull the worker's next input; exactly one lane of a
        // scheduler runs at a time, so `next` and `out` need no lock.
        rt::Scheduler sched;
        size_t next = 0;
        sched.Run([&] {
          for (uint32_t k = 0; k < spec.lanes; k++) {
            sched.Spawn([&] {
              while (next < mine.size()) {
                RunTxn(run, w, mine[next++], traced, out);
              }
            });
          }
        });
        SimClock::AdvanceTo(sched.FinalSimNs());
      }
      out.end_ns = SimClock::Now();
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t wall1 = WallNs();
  const Usage u1 = ProcessUsage();
  uint64_t end = run.sim_now;
  for (const WorkerOut& o : rr.outs) {
    end = std::max(end, o.end_ns);
    rr.txns += o.txns;
    rr.committed += o.committed;
    rr.failed += o.failed;
    rr.attempts += o.attempts;
  }
  rr.sim_ns = end - run.sim_now;
  run.sim_now = end;
  rr.wall_s = static_cast<double>(wall1 - wall0) / 1e9;
  rr.cpu_s = u1.cpu_s - u0.cpu_s;
  rr.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  return rr;
}

// ---------------------------------------------------------------- counters

/// Layer counters the program keeps, summed over the cluster: the global
/// metrics registry plus each node's protocol, routing and index stats.
using Counters = std::map<std::string, uint64_t>;

Counters Snapshot(Setup& s) {
  Counters c = GlobalMetrics().Snapshot();
  for (core::ComputeNode* cn : s.nodes) {
    c["txn.lock_aborts"] += cn->cc().stats().lock_aborts.load();
    c["txn.validation_aborts"] += cn->cc().stats().validation_aborts.load();
    c["core.delegated"] += cn->node_stats().delegated_txns.load();
    c["core.two_pc"] += cn->node_stats().two_pc_txns.load();
  }
  for (const auto& t : s.trees) {
    c["index.searches"] += t->stats().searches.load();
    c["index.read_retries"] += t->stats().read_retries.load();
    c["index.cache_hits"] += t->stats().cache_hits.load();
    c["index.cache_misses"] += t->stats().cache_misses.load();
  }
  return c;
}

/// How much counter `name` grew from `before` to `after`.
double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto get = [&](const Counters& c) {
    auto it = c.find(name);
    return it == c.end() ? uint64_t{0} : it->second;
  };
  return static_cast<double>(get(after) - get(before));
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------------ output

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); i++) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }
  void Print(FILE* f) const {
    for (const Entry& e : entries_) {
      std::fprintf(f, "  %-34s %14.6g %s\n", e.name.c_str(), e.value, e.unit);
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// What the rounds run on one cluster did, for its final checks.
struct Tally {
  uint64_t payload_bad = 0, index_bad = 0, retried = 0;
  int64_t deposits = 0;

  void Add(const RoundResult& rr) {
    for (const WorkerOut& o : rr.outs) {
      payload_bad += o.payload_bad;
      index_bad += o.index_bad;
      retried += o.retried;
      deposits += o.deposits;
    }
  }
};

/// A cluster's final state beside what the benchmark expects of it.
struct FinalState {
  std::vector<std::string> values;  ///< Read straight from DSM.
  std::vector<int64_t> loaded, committed, final_balance;
};

FinalState ReadFinalState(const Run& run) {
  const Spec& spec = run.spec;
  FinalState f;
  f.values = ReadAllValues(*run.setup);
  f.loaded.resize(spec.num_keys);
  f.committed.assign(spec.num_keys, 0);
  f.final_balance.resize(spec.num_keys);
  for (uint64_t k = 0; k < spec.num_keys; k++) {
    f.loaded[k] = LoadedBalance(spec, k);
    for (const auto& d : run.deltas) f.committed[k] += d[k];
    f.final_balance[k] = BalanceOf(f.values[k]);
  }
  return f;
}

/// Checks one cluster's final state and its rounds' outputs. Returns true
/// if every check passed; prints what failed to stderr.
bool CheckRun(const Run& run, const Tally& tally, uint64_t read_retries) {
  const Spec& spec = run.spec;
  bool ok = true;
  const FinalState f = ReadFinalState(run);
  uint64_t payload_bad = tally.payload_bad;
  for (uint64_t k = 0; k < spec.num_keys; k++) {
    if (!PayloadOk(k, f.values[k], kValueSize)) payload_bad++;
  }
  const std::vector<uint64_t> ledger_bad =
      LedgerMismatches(f.loaded, f.committed, f.final_balance);
  if (!ledger_bad.empty()) {
    std::fprintf(stderr, "CHECK ledger: %zu records differ (first key %llu)\n",
                 ledger_bad.size(),
                 static_cast<unsigned long long>(ledger_bad[0]));
    ok = false;
  }
  if (spec.kind == Kind::kBank &&
      !BankTotalOk(f.loaded, f.final_balance, tally.deposits)) {
    std::fprintf(stderr, "CHECK bank total: money created or lost\n");
    ok = false;
  }
  if (payload_bad > 0) {
    std::fprintf(stderr, "CHECK payload: %llu reads lack the load pattern\n",
                 static_cast<unsigned long long>(payload_bad));
    ok = false;
  }
  if (tally.index_bad > 0) {
    std::fprintf(stderr, "CHECK index: %llu searches returned a wrong slot\n",
                 static_cast<unsigned long long>(tally.index_bad));
    ok = false;
  }
  if (spec.kind == Kind::kIndex) {
    // Read-only: nothing can conflict, so nothing may retry.
    if (tally.retried > 0 || read_retries > 0) {
      std::fprintf(stderr,
                   "CHECK read-only: %llu txns retried, %llu search read "
                   "retries\n",
                   static_cast<unsigned long long>(tally.retried),
                   static_cast<unsigned long long>(read_retries));
      ok = false;
    }
  }
  return ok;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
};

/// The simulated results of the sim rounds, printed exactly so that two
/// runs can be compared bit for bit.
struct SimResult {
  uint64_t committed = 0;
  uint64_t sim_ns = 0;
  std::vector<uint64_t> latency_ns;  ///< Sorted.
  double TputKtps() const {
    return Ratio(static_cast<double>(committed),
                 static_cast<double>(sim_ns) / 1e9) / 1e3;
  }
  /// Simulated latency takes few distinct values (a sum of model costs), so
  /// on two workloads p50 and p99 are the same on every seed and show no
  /// change short of a step. Means move with every sample.
  double MeanNs() const { return Mean(0, latency_ns.size()); }
  /// Mean of the band from p99 to p99.9. The slowest 0.1% is left out: a
  /// few extreme transactions, host-dependent where workers conflict across
  /// threads, moved the mean of the slowest 1% from 15 to 40 us in one run
  /// of ten.
  double TailMeanNs() const {
    const size_t n = latency_ns.size();
    return Mean(n * 99 / 100, n * 999 / 1000);
  }

 private:
  double Mean(size_t begin, size_t end) const {
    double sum = 0;
    for (size_t i = begin; i < end; i++) {
      sum += static_cast<double>(latency_ns[i]);
    }
    return Ratio(sum, static_cast<double>(end - begin));
  }
};

int RunBenchmark(const Spec& spec, const Options& opt) {
  g_wall_origin_ns = WallNs();
  const Generator gen(spec, opt.seed);
  SpanLog setup_spans;

  // Set up several times and keep the last cluster: setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (uint32_t i = 0; i < kSetups; i++) {
    setup.reset();
    setup = BuildSetup(spec, gen, opt.seed, &setup_spans);
    setup_s.push_back(setup->cpu_s);
  }

  Run run{spec, gen, setup.get(), {}, 0};
  run.deltas.assign(spec.workers(), std::vector<int64_t>(spec.num_keys, 0));
  if (opt.trace) {
    obs::ObsConfig::SetEnabled(true);
    // Room for one traced round per thread without wrapping.
    obs::TraceCollector::Instance().SetBufferCapacity(
        static_cast<size_t>(spec.round_txns) / spec.lanes * 256 + 4096);
  }

  // Every round is checked: its outputs as it runs, its cluster's final
  // state when the cluster is retired.
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  Tally tally;
  Counters tally_start = Snapshot(*setup);
  uint32_t setup_rounds = 0;
  std::vector<double> host_tput, host_cpu, traced_cpu, ctx;
  auto round = [&](uint32_t r, bool traced, bool measured) {
    RoundResult rr = RunRound(run, r, traced);
    tally.Add(rr);
    setup_rounds++;
    attempted += rr.txns;
    failed += rr.failed;
    if (measured) {
      const double cpu_us =
          Ratio(rr.cpu_s * 1e6, static_cast<double>(rr.committed));
      if (traced) {
        traced_cpu.push_back(cpu_us);
      } else {
        host_tput.push_back(
            Ratio(static_cast<double>(rr.committed), rr.wall_s) / 1e3);
        host_cpu.push_back(cpu_us);
        ctx.push_back(Ratio(static_cast<double>(rr.ctx_switches),
                            static_cast<double>(rr.committed)));
      }
    }
    return rr;
  };
  auto retire = [&] {
    const double read_retries =
        Delta(tally_start, Snapshot(*setup), "index.read_retries");
    correct = CheckRun(run, tally, static_cast<uint64_t>(read_retries)) &&
              correct;
  };

  const uint64_t wall_start = WallNs();
  // Round 0 warms caches (buffer pools, index node cache) and is not
  // measured; rounds 1..spec.sim_rounds give the simulated metrics.
  round(0, false, false);
  const Counters c0 = Snapshot(*setup);
  const uint64_t measure_start = WallNs();
  SimResult sim;
  obs::LatencyBreakdown breakdown;
  uint64_t attributed_committed = 0;
  uint64_t attempts_sim = 0;
  uint64_t dropped_spans = 0;
  SpanLog spans;
  for (uint32_t r = 1; r <= spec.sim_rounds; r++) {
    // In a traced run the last sim round is traced and attributed.
    const bool traced = opt.trace && r == spec.sim_rounds;
    std::unique_ptr<obs::ScopedAttribution> attr;
    if (traced) attr = std::make_unique<obs::ScopedAttribution>();
    const RoundResult rr = round(r, traced, true);
    if (traced) {
      breakdown = attr->Finish();
      dropped_spans = obs::TraceCollector::Instance().dropped();
      attributed_committed = rr.committed;
    }
    sim.committed += rr.committed;
    sim.sim_ns += rr.sim_ns;
    attempts_sim += rr.attempts;
    for (const WorkerOut& o : rr.outs) {
      sim.latency_ns.insert(sim.latency_ns.end(), o.latency_ns.begin(),
                            o.latency_ns.end());
      spans.Merge(o.spans);
    }
  }
  const Counters c1 = Snapshot(*setup);
  std::sort(sim.latency_ns.begin(), sim.latency_ns.end());

  // Further rounds measure host cost until the run length is reached. A
  // traced run alternates untraced and traced rounds (at most 2 traced) to
  // measure the tracing overhead. A workload whose cluster fills up (the
  // commit log is never truncated) moves to a fresh cluster between rounds.
  uint32_t traced_extra = 0;
  for (uint32_t r = spec.sim_rounds + 1;
       static_cast<double>(WallNs() - measure_start) / 1e9 < opt.seconds ||
       (opt.trace && traced_extra == 0);
       r++) {
    if (spec.rounds_per_setup > 0 && setup_rounds >= spec.rounds_per_setup) {
      retire();
      setup.reset();
      setup = BuildSetup(spec, gen, opt.seed, &setup_spans);
      run.setup = setup.get();
      for (auto& d : run.deltas) std::fill(d.begin(), d.end(), 0);
      run.sim_now = 0;
      tally = Tally{};
      tally_start = Snapshot(*setup);
      setup_rounds = 0;
    }
    const bool traced = opt.trace && r % 2 == 0 && traced_extra < 2;
    if (traced) {
      traced_extra++;
      obs::ObsConfig::SetTracing(true);
    }
    round(r, traced, true);
    if (traced) {
      obs::ObsConfig::SetTracing(false);
      obs::TraceCollector::Instance().Clear();
    }
  }
  const double measured_s = static_cast<double>(WallNs() - wall_start) / 1e9;
  retire();

  // Exact simulated results, for determinism checks.
  std::printf(
      "sim {\"workload\": \"%s\", \"seed\": %llu, \"committed\": %llu, "
      "\"sim_ns\": %llu, \"p50_ns\": %llu, \"p99_ns\": %llu, "
      "\"latency_sum_ns\": %llu, \"round_trips\": %llu, \"cas\": %llu}\n",
      spec.name, static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(sim.committed),
      static_cast<unsigned long long>(sim.sim_ns),
      static_cast<unsigned long long>(Percentile(sim.latency_ns, 50)),
      static_cast<unsigned long long>(Percentile(sim.latency_ns, 99)),
      static_cast<unsigned long long>([&] {
        uint64_t s = 0;
        for (uint64_t v : sim.latency_ns) s += v;
        return s;
      }()),
      static_cast<unsigned long long>(
          Delta(c0, c1, "fabric.verbs.round_trips")),
      static_cast<unsigned long long>(Delta(c0, c1, "fabric.verbs.cas")));
  std::fprintf(stderr,
               "%s seed=%llu rounds=%zu measured=%.2fs attempted=%llu "
               "failed=%llu correct=%d\n",
               spec.name, static_cast<unsigned long long>(opt.seed),
               host_tput.size() + traced_cpu.size() + 1, measured_s,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed), correct ? 1 : 0);

  Metrics m;
  if (!opt.trace) {
    m.Add("sim_tput", sim.TputKtps(), "ktxn/s");
    m.Add("sim_mean_us", sim.MeanNs() / 1e3, "us");
    m.Add("sim_tail_us", sim.TailMeanNs() / 1e3, "us");
    m.Add("host_cpu_us_per_txn", Median(host_cpu), "us");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Simulated per-layer counts over the sim rounds, per committed txn.
    const double txns = static_cast<double>(sim.committed);
    auto delta = [&](const char* name) { return Delta(c0, c1, name); };
    auto per_txn = [&](const char* name) { return Ratio(delta(name), txns); };
    const double hits = delta("buffer.pool.hits");
    const double misses = delta("buffer.pool.misses");
    const double cache_hits = delta("index.cache_hits");
    const double cache_misses = delta("index.cache_misses");
    // Critical-path buckets of the attributed round, per committed txn.
    auto bucket = [&](obs::LatencyBucket b) {
      return Ratio(breakdown.Mean(b) * static_cast<double>(breakdown.txns),
                   static_cast<double>(attributed_committed));
    };
    const SpanLog::Total call = spans.Get("core.ExecuteOneShot");
    const SpanLog::Total search = spans.Get("index.Search");

    // dsm.read_host_ns: a fixed probe of 8-byte one-sided reads.
    std::vector<double> probe;
    {
      dsm::DsmClient& dsm = setup->db->admin();
      const core::Table& t = *setup->table;
      uint64_t word = 0;
      for (int batch = 0; batch < 5; batch++) {
        const SpanTimer timer;
        constexpr uint64_t kReads = 20'000;
        for (uint64_t i = 0; i < kReads; i++) {
          const uint64_t key = (i * 7919) % t.num_keys();
          (void)dsm.Read(t.RefFor(key).Value(), &word, sizeof(word));
        }
        const Span s = timer.Finish("dsm.Read x20000", "dsm",
                                    g_span_ids.fetch_add(1), 0, 0);
        spans.Add(s);
        probe.push_back(static_cast<double>(s.wall_ns) / kReads);
      }
    }
    auto setup_layer = [&](const char* name) {
      const SpanLog::Total t = setup_spans.Get(name);
      return Ratio(static_cast<double>(t.cpu_ns) / 1e9,
                   static_cast<double>(t.count));
    };

    m.Add("rdma.rtts_per_txn", per_txn("fabric.verbs.round_trips"), "count");
    m.Add("rdma.cas_per_txn", per_txn("fabric.verbs.cas"), "count");
    m.Add("rdma.rpc_per_txn", per_txn("fabric.verbs.rpc"), "count");
    m.Add("rdma.kb_per_txn",
          (per_txn("fabric.verbs.bytes_read") +
           per_txn("fabric.verbs.bytes_written")) / 1024.0,
          "KiB");
    m.Add("sim.verb_wire_ns", bucket(obs::LatencyBucket::kVerbWire), "ns");
    m.Add("sim.verb_post_ns", bucket(obs::LatencyBucket::kVerbPost), "ns");
    m.Add("dsm.cluster_build_s", setup_layer("dsm.cluster_build"), "s");
    m.Add("dsm.read_host_ns", Median(probe), "ns");
    m.Add("sim.handler_cpu_ns", bucket(obs::LatencyBucket::kHandlerCpu), "ns");
    m.Add("sim.queue_wait_ns", bucket(obs::LatencyBucket::kQueue), "ns");
    m.Add("buffer.hit_rate", Ratio(hits, hits + misses), "ratio");
    m.Add("buffer.misses_per_txn", per_txn("buffer.pool.misses"), "count");
    m.Add("buffer.evictions_per_txn", per_txn("buffer.pool.evictions"),
          "count");
    m.Add("buffer.writebacks_per_txn", per_txn("buffer.pool.writebacks"),
          "count");
    m.Add("txn.attempts_per_commit",
          Ratio(static_cast<double>(attempts_sim), txns), "count");
    m.Add("txn.lock_aborts_per_commit", per_txn("txn.lock_aborts"), "count");
    m.Add("txn.validation_aborts_per_commit", per_txn("txn.validation_aborts"),
          "count");
    m.Add("sim.lock_wait_ns", bucket(obs::LatencyBucket::kLockWait), "ns");
    m.Add("core.call_host_us",
          Ratio(static_cast<double>(call.cpu_ns) / 1e3,
                static_cast<double>(call.count)),
          "us");
    m.Add("core.delegated_per_txn", per_txn("core.delegated"), "count");
    m.Add("core.two_pc_per_txn", per_txn("core.two_pc"), "count");
    m.Add("core.load_s", setup_layer("core.load"), "s");
    m.Add("sim.log_device_ns", bucket(obs::LatencyBucket::kLog), "ns");
    m.Add("index.search_host_ns",
          Ratio(static_cast<double>(search.cpu_ns),
                static_cast<double>(search.count)),
          "ns");
    m.Add("index.search_sim_ns",
          Ratio(static_cast<double>(search.sim_ns),
                static_cast<double>(search.count)),
          "ns");
    m.Add("index.cache_hit_rate",
          Ratio(cache_hits, cache_hits + cache_misses), "ratio");
    m.Add("index.read_retries_per_search",
          Ratio(delta("index.read_retries"), delta("index.searches")),
          "count");
    m.Add("index.build_s", setup_layer("index.build"), "s");
    m.Add("rt.ctx_switches_per_txn", Median(ctx), "count");
    m.Add("host_tput", Median(host_tput), "ktxn/s");
    m.Add("sim.cpu_ns", bucket(obs::LatencyBucket::kCpu), "ns");
    m.Add("obs.traced_cpu_ratio", Ratio(Median(traced_cpu), Median(host_cpu)),
          "ratio");
    if (dropped_spans > 0) {
      std::fprintf(stderr, "warning: %llu trace spans dropped\n",
                   static_cast<unsigned long long>(dropped_spans));
    }
    std::filesystem::create_directories(".bench_out");
    spans.Merge(setup_spans);
    const std::string path = ".bench_out/spans-" + std::string(spec.name) +
                             "-seed" + std::to_string(opt.seed) + ".json";
    spans.WriteChrome(path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
  m.Print(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.Json().c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------- selftest

/// Shows that every check rejects a corrupted input: each check first
/// passes on a real run's output, then fails once one fact is broken.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond) failures++;
  };
  for (const Spec& base : kSpecs) {
    Spec spec = base;
    spec.round_txns = 50;
    const Generator gen(spec, 7);
    SpanLog spans;
    std::unique_ptr<Setup> setup = BuildSetup(spec, gen, 7, &spans);
    Run run{spec, gen, setup.get(), {}, 0};
    run.deltas.assign(spec.workers(), std::vector<int64_t>(spec.num_keys, 0));
    RoundResult rr = RunRound(run, 0, false);
    const WorkerOut& o = rr.outs[0];
    std::printf("[%s] %llu txns, %llu failed\n", spec.name,
                static_cast<unsigned long long>(rr.txns),
                static_cast<unsigned long long>(rr.failed));

    const FinalState f = ReadFinalState(run);
    int64_t deposits = 0;
    for (const WorkerOut& w : rr.outs) deposits += w.deposits;
    if (spec.kind != Kind::kIndex) {
      expect(LedgerMismatches(f.loaded, f.committed, f.final_balance).empty(),
             "ledger accepts the real run");
      std::vector<int64_t> dropped = f.committed;
      dropped[o.add_key] -= o.add_delta;
      const std::vector<uint64_t> bad =
          LedgerMismatches(f.loaded, dropped, f.final_balance);
      expect(o.add_delta != 0 && bad.size() == 1 && bad[0] == o.add_key,
             "ledger flags one dropped committed delta");
    }
    if (spec.kind == Kind::kBank) {
      expect(BankTotalOk(f.loaded, f.final_balance, deposits),
             "bank total accepts the real run");
      expect(!BankTotalOk(f.loaded, f.final_balance, deposits + 1),
             "bank total flags one unit of money created");
    }
    expect(PayloadOk(o.read_key, o.read_value, kValueSize),
           "payload accepts a real read");
    std::string corrupt = o.read_value;
    if (corrupt.size() > kBalanceBytes + 5) corrupt[kBalanceBytes + 5] ^= 0x40;
    expect(!PayloadOk(o.read_key, corrupt, kValueSize),
           "payload flags one corrupted byte");
    if (spec.kind == Kind::kIndex) {
      expect(!o.assigned.empty() && IndexMismatches(o.assigned, o.found) == 0,
             "index accepts real search results");
      std::vector<uint64_t> wrong = o.found;
      if (!wrong.empty()) wrong[0] = (wrong[0] + 1) % spec.num_keys;
      expect(IndexMismatches(o.assigned, wrong) == 1,
             "index flags one wrong slot");
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--selftest") {
      opt->selftest = true;
    } else if (a == "--workload" && (v = value())) {
      opt->workload = v;
    } else if (a == "--seed" && (v = value())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      opt->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      opt->trace = std::string(v) == "1";
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       perfbench --selftest\n");
    return 2;
  }
  if (opt.selftest) return SelfTest();
  const Spec* spec = FindSpec(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  return RunBenchmark(*spec, opt);
}
