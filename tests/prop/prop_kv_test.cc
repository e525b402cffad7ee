// KV differential properties (ISSUE 10): for random op sequences —
// skewed and uniform key mixes, every op kind, batch splits, queue
// depths {1,8} — the partitioned KV service must agree byte-for-byte
// with the independent in-memory kv_oracle after every batch, leave an
// equivalent MRAM image behind, and be bit-identical at any
// VPIM_THREADS. The teeth property plants the classic range-scan
// upper-bound off-by-one in the DPU kernel and demands the suite catch
// it and shrink it to a <=3-op reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/proptest/kv_oracle.h"
#include "common/proptest/proptest.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kv/kv_service.h"
#include "kv/loadgen.h"
#include "tests/testutil.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::prop {
namespace {

using core::VpimVm;

core::ManagerConfig fast_manager() {
  core::ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

core::VpimConfig depth_config(std::uint32_t depth) {
  core::VpimConfig cfg = core::VpimConfig::full();
  cfg.queue_depth = depth;
  return cfg;
}

// Small service: every mitigation path (cache eviction at 8 entries,
// rebalance every 2 batches, multi-cycle batches at 8 inbox slots) and
// the kNoSpace edge (6 records per partition) are reachable within a
// short random sequence.
kv::KvConfig test_kv_config() {
  kv::KvConfig cfg;
  cfg.partitions = 8;
  cfg.nr_dpus = 4;
  cfg.slots_per_dpu = 4;
  cfg.slot_capacity = 6;
  cfg.max_batch_ops = 8;
  cfg.hot_cache_entries = 8;
  cfg.rebalance_period = 2;
  cfg.rebalance_ratio_permille = 1200;
  return cfg;
}

// Keys live in a 32-value universe so gets hit earlier puts; a skewed
// case draws most keys from the first 4 values (hot keys), a uniform one
// from the whole universe.
constexpr std::uint64_t kKeyUniverse = 32;

struct KvOpCase {
  std::vector<kv::KvOp> ops;
  std::uint32_t batch_size = 4;  // ops per execute() call
  bool skewed = false;
};

std::string show_case(const KvOpCase& c) {
  std::string s = "batch=" + std::to_string(c.batch_size) +
                  (c.skewed ? " skew" : " uni") + " ops=[";
  for (const kv::KvOp& op : c.ops) {
    switch (op.kind) {
      case kv::KvOpKind::kGet: s += "G" + std::to_string(op.key); break;
      case kv::KvOpKind::kPut:
        s += "P" + std::to_string(op.key) + "=" + std::to_string(op.value);
        break;
      case kv::KvOpKind::kDelete: s += "D" + std::to_string(op.key); break;
      case kv::KvOpKind::kScan:
        s += "S[" + std::to_string(op.key) + "," + std::to_string(op.hi) +
             ")";
        break;
    }
    s += " ";
  }
  return s + "]";
}

kv::KvOp sample_op(Rng& rng, bool skewed) {
  kv::KvOp op;
  const std::uint64_t key =
      skewed && rng.uniform(0, 3) != 0
          ? static_cast<std::uint64_t>(rng.uniform(0, 3))
          : static_cast<std::uint64_t>(
                rng.uniform(0, kKeyUniverse - 1));
  const std::int64_t dice = rng.uniform(0, 9);
  if (dice < 4) {
    op.kind = kv::KvOpKind::kGet;
    op.key = key;
  } else if (dice < 7) {
    op.kind = kv::KvOpKind::kPut;
    op.key = key;
    op.value = rng.next_u64();
  } else if (dice < 8) {
    op.kind = kv::KvOpKind::kDelete;
    op.key = key;
  } else {
    op.kind = kv::KvOpKind::kScan;
    op.key = key;
    // Spans up to 8 keep the exclusive bound landing on live keys often,
    // which is exactly where the teeth bug bites.
    op.hi = key + static_cast<std::uint64_t>(rng.uniform(1, 8));
  }
  return op;
}

Gen<KvOpCase> kv_case_gen() {
  Gen<KvOpCase> gen;
  gen.sample = [](Rng& rng) {
    KvOpCase c;
    c.skewed = rng.uniform(0, 1) == 0;
    c.batch_size = static_cast<std::uint32_t>(rng.uniform(1, 6));
    const auto n = rng.uniform(4, 40);
    for (std::int64_t i = 0; i < n; ++i) {
      c.ops.push_back(sample_op(rng, c.skewed));
    }
    return c;
  };
  gen.shrink = [](const KvOpCase& c) {
    std::vector<KvOpCase> out;
    if (c.ops.size() > 1) {
      KvOpCase head = c;
      head.ops.resize(c.ops.size() / 2);
      out.push_back(std::move(head));
    }
    for (std::size_t i = 0; c.ops.size() > 1 && i < c.ops.size(); ++i) {
      KvOpCase fewer = c;
      fewer.ops.erase(fewer.ops.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(std::move(fewer));
    }
    if (c.batch_size > 1) {
      KvOpCase smaller = c;
      smaller.batch_size = 1;
      out.push_back(std::move(smaller));
    }
    return out;
  };
  return gen;
}

std::string describe(const kv::KvResult& r) {
  std::string s = "{status=" + std::string(kv::to_string(r.status)) +
                  " value=" + std::to_string(r.value) +
                  " n=" + std::to_string(r.nresults) + " pairs=[";
  for (const auto& [k, v] : r.pairs) {
    s += std::to_string(k) + ":" + std::to_string(v) + " ";
  }
  return s + "]}";
}

// Everything observable about one service run of a case.
struct KvRunResult {
  std::vector<kv::KvResult> results;  // op order
  std::vector<std::vector<std::uint8_t>> images;  // per partition
  SimNs clock_end = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t cache_hits = 0;
};

// Runs the case through a fresh service, checking every batch against a
// fresh oracle when `check_oracle` (the thread-invariance property skips
// the oracle and compares two runs against each other instead).
KvRunResult run_kv(const KvOpCase& c, std::uint32_t depth,
                   bool check_oracle, bool plant_bug = false) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "prop-kv"}, 1, depth_config(depth));
  kv::KvConfig cfg = test_kv_config();
  cfg.plant_scan_bug = plant_bug;
  kv::KvService svc(vm.device(0).frontend, vm.vmm().memory(), host.clock,
                    host.cost, host.obs, cfg);
  require(svc.open(), "kv rig: no rank available");
  KvOracle oracle(cfg.partitions, cfg.slot_capacity, cfg.scan_limit);

  KvRunResult out;
  std::size_t done = 0;
  while (done < c.ops.size()) {
    const std::size_t take =
        std::min<std::size_t>(c.batch_size, c.ops.size() - done);
    const std::span<const kv::KvOp> batch(c.ops.data() + done, take);
    const std::vector<kv::KvResult> results = svc.execute(batch);
    require(results.size() == batch.size(), "result count mismatch");

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const kv::KvOp& op = batch[i];
      const kv::KvResult& got = results[i];
      KvOracle::Reply want;
      switch (op.kind) {
        case kv::KvOpKind::kGet: want = oracle.get(op.key); break;
        case kv::KvOpKind::kPut:
          want = oracle.put(op.key, op.value);
          break;
        case kv::KvOpKind::kDelete: want = oracle.del(op.key); break;
        case kv::KvOpKind::kScan:
          want = oracle.scan(op.key, op.hi);
          break;
      }
      if (!check_oracle) continue;
      const std::string tag = " (op " + std::to_string(done + i) +
                              " of " + show_case(c) + " got " +
                              describe(got) + ")";
      require(static_cast<std::uint32_t>(got.status) == want.status,
              "status diverged from oracle" + tag);
      require(got.value == want.value,
              "value diverged from oracle" + tag);
      require(got.nresults == want.nresults,
              "nresults diverged from oracle" + tag);
      require(got.pairs == want.pairs,
              "scan rows diverged from oracle" + tag);
    }
    out.results.insert(out.results.end(), results.begin(), results.end());
    done += take;
  }

  // Final state: the device image of every partition must match the
  // image the oracle built independently.
  for (std::uint32_t p = 0; p < cfg.partitions; ++p) {
    std::vector<std::uint8_t> image = svc.partition_image(p);
    if (check_oracle) {
      require(image == oracle.partition_image(p),
              "final MRAM image of partition " + std::to_string(p) +
                  " diverged from oracle");
    }
    out.images.push_back(std::move(image));
  }
  out.rebalances = svc.stats().rebalances;
  out.cache_hits = svc.stats().cache_hits;
  svc.close();
  out.clock_end = host.clock.now();
  return out;
}

// ---- property 1: service == oracle at depths 1 and 8 --------------------

TEST(PropKv, MatchesOracleAtEveryDepth) {
  const Params params = Params::from_env(0x4B5601, 30);
  const auto out = run_property<KvOpCase>(
      "kv.oracle_differential", params, kv_case_gen(),
      [&](const KvOpCase& c) {
        for (std::uint32_t depth : {1u, 8u}) {
          run_kv(c, depth, /*check_oracle=*/true);
        }
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- property 2: results are thread-count invariant ---------------------

class PropKvThreads : public ::testing::Test {
 protected:
  void SetUp() override { original_ = ThreadPool::instance().size(); }
  void TearDown() override { ThreadPool::instance().resize(original_); }
  unsigned original_ = 1;
};

bool same_run(const KvRunResult& a, const KvRunResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const kv::KvResult& x = a.results[i];
    const kv::KvResult& y = b.results[i];
    if (x.status != y.status || x.value != y.value ||
        x.nresults != y.nresults || x.cache_hit != y.cache_hit ||
        x.pairs != y.pairs) {
      return false;
    }
  }
  return a.images == b.images && a.clock_end == b.clock_end &&
         a.rebalances == b.rebalances && a.cache_hits == b.cache_hits;
}

TEST_F(PropKvThreads, BitIdenticalAcrossThreadCounts) {
  const Params params = Params::from_env(0x4B5602, 12);
  const auto out = run_property<KvOpCase>(
      "kv.thread_invariance", params, kv_case_gen(),
      [&](const KvOpCase& c) {
        ThreadPool::instance().resize(1);
        const KvRunResult base = run_kv(c, 8, /*check_oracle=*/false);
        ThreadPool::instance().resize(4);
        const KvRunResult wide = run_kv(c, 8, /*check_oracle=*/false);
        ThreadPool::instance().resize(1);
        require(same_run(base, wide),
                "KV run depends on VPIM_THREADS (results, images, "
                "virtual time or mitigation stats diverged)");
      },
      show_case);
  EXPECT_TRUE(out.ok) << out.reproducer;
}

// ---- the hot-key cache is exactly the tick-ordered LRU -------------------
//
// Replays a seeded Zipf trace one op per batch (so no GET ever races a
// same-batch mutation) and checks every op's cache_hit against an
// in-test reference: a plain map from key to last-use tick that evicts the
// smallest tick when full, refreshes on GET and PUT hits, drops on DELETE
// and fills on a GET miss that found the key.

class TickLru {
 public:
  explicit TickLru(std::size_t capacity) : capacity_(capacity) {}

  bool get(std::uint64_t key, bool found) {
    auto it = tick_of_.find(key);
    if (it != tick_of_.end()) {
      it->second = ++tick_;
      return true;
    }
    if (found) {
      if (tick_of_.size() == capacity_) {
        tick_of_.erase(std::min_element(
            tick_of_.begin(), tick_of_.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; }));
        ++evictions_;
      }
      tick_of_[key] = ++tick_;
    }
    return false;
  }
  void put(std::uint64_t key) {
    auto it = tick_of_.find(key);
    if (it != tick_of_.end()) it->second = ++tick_;
  }
  void del(std::uint64_t key) { tick_of_.erase(key); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::map<std::uint64_t, std::uint64_t> tick_of_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
};

TEST(PropKvCache, HitsMatchTickOrderedLru) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "prop-kv-lru"}, 1, depth_config(1));
  const kv::KvConfig cfg = test_kv_config();
  kv::KvService svc(vm.device(0).frontend, vm.vmm().memory(), host.clock,
                    host.cost, host.obs, cfg);
  ASSERT_TRUE(svc.open());
  KvOracle oracle(cfg.partitions, cfg.slot_capacity, cfg.scan_limit);
  TickLru ref(cfg.hot_cache_entries);

  kv::LoadgenConfig lg;
  lg.seed = 0x4B5604;
  lg.nr_ops = 1500;
  lg.key_space = 40;  // > 8 cache entries, < 48 store records
  lg.zipf_theta_permille = 990;
  lg.put_permille = 300;
  lg.delete_permille = 50;
  lg.scan_permille = 0;
  const std::vector<kv::KvTraceOp> trace = kv::generate_trace(lg);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const kv::KvOp& op = trace[i].op;
    bool want_hit = false;
    switch (op.kind) {
      case kv::KvOpKind::kGet:
        want_hit = ref.get(op.key, oracle.get(op.key).status ==
                                       static_cast<std::uint32_t>(
                                           kv::KvStatus::kOk));
        break;
      case kv::KvOpKind::kPut:
        oracle.put(op.key, op.value);
        ref.put(op.key);
        break;
      case kv::KvOpKind::kDelete:
        oracle.del(op.key);
        ref.del(op.key);
        break;
      case kv::KvOpKind::kScan: break;
    }
    const std::vector<kv::KvResult> got = svc.execute({&op, 1});
    ASSERT_EQ(got.size(), 1u);
    ASSERT_EQ(got[0].cache_hit, want_hit)
        << "op " << i << " (key " << op.key << ") diverged from the LRU";
    hits += want_hit ? 1 : 0;
  }
  // The trace must exercise both hits and a steady stream of evictions.
  EXPECT_GT(hits, 100u);
  EXPECT_GT(ref.evictions(), 100u);
  EXPECT_EQ(svc.stats().cache_hits, hits);
  svc.close();
}

TEST(PropKvCache, ZeroEntryCacheIsRejected) {
  core::Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "prop-kv-zero"}, 1, depth_config(1));
  kv::KvConfig cfg = test_kv_config();
  cfg.hot_cache_entries = 0;
  EXPECT_THROW(kv::KvService(vm.device(0).frontend, vm.vmm().memory(),
                             host.clock, host.cost, host.obs, cfg),
               VpimError);
  // Without the cache the entry count is irrelevant.
  cfg.hot_key_cache = false;
  EXPECT_NO_THROW(kv::KvService(vm.device(0).frontend, vm.vmm().memory(),
                                host.clock, host.cost, host.obs, cfg));
}

// ---- teeth: the planted scan off-by-one must be caught and shrink -------
//
// kv_partition_teeth treats the SCAN upper bound as inclusive (key <= hi
// instead of key < hi). The differential property must catch it and
// shrink to the canonical <=3-op reproducer: PUT a key, then SCAN with
// hi landing exactly on it.

TEST(PropKvTeeth, ScanUpperBoundBugIsCaughtAndShrinks) {
  Params params = Params::from_env(0x4B5603, 60);
  params.quiet = true;  // failure is the expected outcome
  const auto out = run_property<KvOpCase>(
      "kv.teeth_scan_bound", params, kv_case_gen(),
      [&](const KvOpCase& c) {
        run_kv(c, 8, /*check_oracle=*/true, /*plant_bug=*/true);
      },
      show_case);
  ASSERT_FALSE(out.ok)
      << "teeth test: the planted scan upper-bound bug went undetected";
  EXPECT_LE(out.minimal.ops.size(), 3u)
      << "teeth reproducer did not shrink: " << out.minimal_repr;
  // The shrunk case must still contain a scan — that is the buggy op.
  bool has_scan = false;
  for (const kv::KvOp& op : out.minimal.ops) {
    has_scan |= op.kind == kv::KvOpKind::kScan;
  }
  EXPECT_TRUE(has_scan) << out.minimal_repr;
}

}  // namespace
}  // namespace vpim::prop
