// Tests for the §7 consolidation features: suspend/resume (pause a
// device, free its rank, restore later) and oversubscription (emulated
// ranks at reduced performance when physical capacity is exhausted).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <tuple>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "tests/test_kernels.h"
#include "tests/testutil.h"
#include "vpim/guest_platform.h"
#include "vpim/host.h"
#include "vpim/vpim_vm.h"

namespace vpim::core {
namespace {

ManagerConfig fast_manager() {
  ManagerConfig cfg;
  cfg.retry_wait_ns = 1 * kMs;
  cfg.max_attempts = 2;
  return cfg;
}

VpimConfig oversub_config() {
  VpimConfig cfg = VpimConfig::full();
  cfg.oversubscribe = true;
  return cfg;
}

// ---------------------------------------------------------- copy paths

// One host<->MRAM copy path under test. `sync` lands anything the path
// parks (only the CopyBacklog path parks anything).
struct CopyTarget {
  std::function<void(const driver::TransferMatrix&)> transfer;
  std::function<void(std::uint64_t, std::span<const std::uint8_t>)> broadcast;
  std::function<void()> sync = [] {};
};

constexpr std::uint64_t kImageBytes = 16 * upmem::kMramPageSize;

// Writes, broadcasts and reads one fixed script through `t`; returns the
// read-back bytes followed by every bank's image over [0, kImageBytes).
std::vector<std::uint8_t> run_copy_script(guest::GuestMemory& mem,
                                          std::uint32_t nr_dpus,
                                          const CopyTarget& t) {
  Rng rng(42);
  auto a = mem.alloc(8 * kKiB);
  auto b = mem.alloc(4 * kKiB);
  auto c = mem.alloc(2 * upmem::kMramPageSize + 777);
  rng.fill_bytes(a.data(), a.size());
  rng.fill_bytes(b.data(), b.size());
  rng.fill_bytes(c.data(), c.size());

  driver::TransferMatrix w;
  w.direction = driver::XferDirection::kToRank;
  w.entries = {
      {3, 0, a.data(), a.size()},       // two entries for DPU 3, in order:
      {3, 2 * kKiB, b.data(), b.size()},  // the second overwrites the first
      {5, 64, b.data(), 0},             // zero-size: moves nothing
      {1, 100, b.data(), 300},
  };
  t.transfer(w);
  t.sync();
  // Page-aligned whole pages, page-aligned with a partial-page tail, and
  // an unaligned offset (no page sharing at all).
  t.broadcast(4 * upmem::kMramPageSize, c.first(2 * upmem::kMramPageSize));
  t.broadcast(8 * upmem::kMramPageSize, c);
  t.broadcast(12 * upmem::kMramPageSize + 100, c);

  auto out = mem.alloc(6 * kKiB + nr_dpus * kImageBytes);
  std::memset(out.data(), 0xCC, out.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries = {
      {3, 1000, out.data(), 5000},
      {3, 12 * upmem::kMramPageSize + 50, out.data() + 5000, 1000},
      {6, 0, out.data() + 6000, 0},
  };
  t.transfer(r);
  driver::TransferMatrix image;
  image.direction = driver::XferDirection::kFromRank;
  for (std::uint32_t d = 0; d < nr_dpus; ++d) {
    image.entries.push_back(
        {d, 0, out.data() + 6 * kKiB + d * kImageBytes, kImageBytes});
  }
  t.transfer(image);
  t.sync();
  return {out.begin(), out.end()};
}

CopyTarget frontend_target(Frontend& fe) {
  CopyTarget t;
  t.transfer = [&fe](const driver::TransferMatrix& m) {
    if (m.direction == driver::XferDirection::kToRank) {
      fe.write_to_rank(m);
    } else {
      fe.read_from_rank(m);
    }
  };
  // The backend recognizes one identical entry per DPU as a broadcast.
  t.broadcast = [&fe](std::uint64_t offset,
                      std::span<const std::uint8_t> data) {
    driver::TransferMatrix m;
    m.direction = driver::XferDirection::kToRank;
    for (std::uint32_t d = 0; d < fe.nr_dpus(); ++d) {
      m.entries.push_back({d, offset, const_cast<std::uint8_t*>(data.data()),
                           data.size()});
    }
    fe.write_to_rank(m);
  };
  return t;
}

TEST(CopyPaths, ImmediateDeferredAndEmulatedLandIdenticalBytes) {
  // Two physical devices fill the machine; the third runs emulated. With
  // no fault plan the physical device's drain defers its copies.
  VpimConfig cfg = VpimConfig::c_only();  // no batching, no prefetch cache
  cfg.oversubscribe = true;
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "copy-paths"}, 3, cfg);
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(vm.device(i).frontend.open());
  }
  ASSERT_FALSE(vm.device(0).backend.emulated());
  ASSERT_TRUE(vm.device(2).backend.emulated());
  guest::GuestMemory& mem = vm.vmm().memory();
  const std::uint32_t dpus = vm.device(0).frontend.nr_dpus();
  const auto deferred =
      run_copy_script(mem, dpus, frontend_target(vm.device(0).frontend));
  const auto emulated =
      run_copy_script(mem, dpus, frontend_target(vm.device(2).frontend));

  // The driver's own paths, on a second machine.
  Host direct(test::small_machine(), CostModel{}, fast_manager());
  auto now = direct.drv.map_rank(0, "immediate");
  auto later = direct.drv.map_rank(1, "backlog");
  driver::CopyBacklog backlog;
  CopyTarget immediate_target{
      [&](const driver::TransferMatrix& m) { now.transfer(m); },
      [&](std::uint64_t off, std::span<const std::uint8_t> data) {
        now.broadcast(off, data);
      }};
  CopyTarget backlog_target{
      [&](const driver::TransferMatrix& m) { later.transfer(m, &backlog); },
      [&](std::uint64_t off, std::span<const std::uint8_t> data) {
        later.broadcast(off, data);
      },
      [&] { backlog.flush(); }};
  const auto immediate = run_copy_script(mem, dpus, immediate_target);
  const auto parked = run_copy_script(mem, dpus, backlog_target);

  // Reference: plain in-order memcpy into zero-filled banks. The paths
  // share one copy loop, so agreeing with each other is not enough.
  std::vector<std::vector<std::uint8_t>> banks(
      dpus, std::vector<std::uint8_t>(kImageBytes));
  CopyTarget model{
      [&](const driver::TransferMatrix& m) {
        for (const driver::XferEntry& e : m.entries) {
          std::uint8_t* bank = banks[e.dpu].data() + e.mram_offset;
          if (m.direction == driver::XferDirection::kToRank) {
            std::memcpy(bank, e.host, e.size);
          } else {
            std::memcpy(e.host, bank, e.size);
          }
        }
      },
      [&](std::uint64_t off, std::span<const std::uint8_t> data) {
        for (auto& bank : banks) {
          std::memcpy(bank.data() + off, data.data(), data.size());
        }
      }};
  const auto expect = run_copy_script(mem, dpus, model);

  EXPECT_EQ(immediate, expect);
  EXPECT_EQ(parked, expect);
  EXPECT_EQ(deferred, expect);
  EXPECT_EQ(emulated, expect);
  // The read-back really is each bank's content.
  for (std::uint32_t d = 0; d < dpus; ++d) {
    std::vector<std::uint8_t> bank(kImageBytes);
    direct.machine.rank(0).mram(d).read(0, bank);
    EXPECT_EQ(bank, banks[d]) << "dpu " << d;
  }
}

// ---------------------------------------------------------- suspend/resume

TEST(SuspendResume, StateSurvivesAndRankFreesInBetween) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "sleeper"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  const std::uint32_t rank = vm.device(0).backend.rank_index();

  fe.ci_load("test_count_zeros");
  auto buf = vm.vmm().memory().alloc(32 * kKiB);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i % 251);
  }
  driver::TransferMatrix w;
  w.entries.push_back({1, 8192, buf.data(), buf.size()});
  fe.write_to_rank(w);
  std::uint32_t ps = 12345;
  fe.ci_copy_to_symbol(1, "partition_size", 0, test::bytes_u32(ps));

  fe.suspend();
  EXPECT_FALSE(fe.is_open());
  EXPECT_FALSE(host.drv.is_mapped(rank));  // the rank really freed

  // While suspended, another tenant can take (and dirty) the rank.
  host.manager.observe();
  host.manager.observe();
  {
    VpimVm other(host, {.name = "tenant-x"}, 2);
    GuestPlatform p(other);
    auto [zeros, expected] = test::run_count_zeros(p, 16, 1024, 77);
    EXPECT_EQ(zeros, expected);
  }
  host.manager.observe();
  host.manager.observe();

  ASSERT_TRUE(fe.resume());
  EXPECT_TRUE(fe.is_open());
  // MRAM content and WRAM symbol values are back, wherever we landed.
  auto out = vm.vmm().memory().alloc(buf.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({1, 8192, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), buf.size()) == 0);
  std::uint32_t ps_back = 0;
  fe.ci_copy_from_symbol(1, "partition_size", 0, test::bytes_u32(ps_back));
  EXPECT_EQ(ps_back, 12345u);
}

TEST(SuspendResume, SnapshotCostScalesWithResidentBytes) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "sizer"}, 1);
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  auto buf = vm.vmm().memory().alloc(8 * kMiB);
  driver::TransferMatrix w;
  w.entries.push_back({0, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);

  const SimNs t0 = host.clock.now();
  fe.suspend();
  const SimNs suspend_cost = host.clock.now() - t0;
  // 8 MiB of resident content at the wide bandwidth ~ 1.4 ms; far less
  // than snapshotting the nominal 512 MiB rank.
  EXPECT_GT(suspend_cost, 1 * kMs);
  EXPECT_LT(suspend_cost, 10 * kMs);
  ASSERT_TRUE(fe.resume());
}

// ---------------------------------------------------------- oversubscription

TEST(Oversubscription, EmulatedBindWhenMachineFull) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm(host, {.name = "oversub"}, 3, oversub_config());
  ASSERT_TRUE(vm.device(0).frontend.open());
  ASSERT_TRUE(vm.device(1).frontend.open());
  EXPECT_FALSE(vm.device(0).backend.emulated());
  EXPECT_FALSE(vm.device(1).backend.emulated());

  // Third device: no physical rank left -> emulated binding.
  ASSERT_TRUE(vm.device(2).frontend.open());
  EXPECT_TRUE(vm.device(2).backend.emulated());
  EXPECT_EQ(vm.device(2).stats.emulated_binds, 1u);
  EXPECT_EQ(vm.device(2).frontend.nr_dpus(), 8u);  // same geometry
  // The emulated DPUs advertise the reduced clock.
  EXPECT_LT(vm.device(2).frontend.config_space().dpu_freq_mhz, 350u);
}

TEST(Oversubscription, ApplicationsRunCorrectlyButSlower) {
  test::register_count_zeros();
  // Physical run on a fresh machine.
  Host host_p(test::small_machine(), CostModel{}, fast_manager());
  VpimVm vm_p(host_p, {.name = "phys"}, 1, oversub_config());
  GuestPlatform p_phys(vm_p);
  const SimNs p0 = host_p.clock.now();
  auto [pz, pe] = test::run_count_zeros(p_phys, 8, 1 << 20, 21);
  const SimNs phys_time = host_p.clock.now() - p0;
  EXPECT_EQ(pz, pe);

  // Emulated run: exhaust the machine first.
  Host host_e(test::small_machine(), CostModel{}, fast_manager());
  VpimVm hog(host_e, {.name = "hog"}, 2);
  ASSERT_TRUE(hog.device(0).frontend.open());
  ASSERT_TRUE(hog.device(1).frontend.open());
  VpimVm vm_e(host_e, {.name = "emu"}, 1, oversub_config());
  GuestPlatform p_emu(vm_e);
  const SimNs e0 = host_e.clock.now();
  auto [ez, ee] = test::run_count_zeros(p_emu, 8, 1 << 20, 21);
  const SimNs emu_time = host_e.clock.now() - e0;
  EXPECT_EQ(ez, ee);
  EXPECT_EQ(ez, pz);  // same seed, same answer on emulated DPUs
  // The device was released by dpu_free; the bind counter proves the run
  // happened on an emulated rank.
  EXPECT_EQ(vm_e.device(0).stats.emulated_binds, 1u);

  // "Reduced performance" (§7): the DPU-bound part runs ~25x slower.
  EXPECT_GT(static_cast<double>(emu_time),
            2.0 * static_cast<double>(phys_time));
}

TEST(Oversubscription, DisabledByDefault) {
  Host host(test::small_machine(), CostModel{}, fast_manager());
  VpimVm hog(host, {.name = "hog"}, 2);
  ASSERT_TRUE(hog.device(0).frontend.open());
  ASSERT_TRUE(hog.device(1).frontend.open());
  VpimVm vm(host, {.name = "strict"}, 1);  // default config
  EXPECT_FALSE(vm.device(0).frontend.open());
}

TEST(Oversubscription, MigrationUpgradesToPhysical) {
  test::register_count_zeros();
  Host host(test::small_machine(), CostModel{}, fast_manager());
  auto hog = std::make_unique<VpimVm>(host, vmm::VmmParams{.name = "hog"},
                                      2);
  ASSERT_TRUE(hog->device(0).frontend.open());
  ASSERT_TRUE(hog->device(1).frontend.open());

  VpimVm vm(host, {.name = "upgrader"}, 1, oversub_config());
  Frontend& fe = vm.device(0).frontend;
  ASSERT_TRUE(fe.open());
  ASSERT_TRUE(vm.device(0).backend.emulated());
  auto buf = vm.vmm().memory().alloc(64 * kKiB);
  std::memset(buf.data(), 0x42, buf.size());
  driver::TransferMatrix w;
  w.entries.push_back({3, 0, buf.data(), buf.size()});
  fe.write_to_rank(w);

  // Capacity frees up; the device migrates onto real hardware.
  hog.reset();
  host.manager.observe();
  host.manager.observe();
  ASSERT_TRUE(fe.migrate());
  EXPECT_FALSE(vm.device(0).backend.emulated());
  EXPECT_EQ(fe.config_space().dpu_freq_mhz, 350u);

  auto out = vm.vmm().memory().alloc(buf.size());
  driver::TransferMatrix r;
  r.direction = driver::XferDirection::kFromRank;
  r.entries.push_back({3, 0, out.data(), out.size()});
  fe.read_from_rank(r);
  EXPECT_TRUE(std::memcmp(out.data(), buf.data(), buf.size()) == 0);
}

// ------------------------------------------- wrank oversubscription (ISSUE 9)

ManagerConfig wrank_config(PlacementPolicyKind placement,
                           bool charge = false) {
  ManagerConfig cfg = fast_manager();
  cfg.charge_time = charge;
  cfg.placement = placement;
  return cfg;
}

upmem::MachineConfig four_ranks() {
  return {.nr_ranks = 4, .functional_dpus_per_rank = 8};
}

TEST(WrankOversub, ChurnNeverLosesWranksAndNeverOverpacks) {
  test::TestRig rig(four_ranks());
  const ManagerConfig cfg =
      wrank_config(PlacementPolicyKind::kConsolidating);
  Manager mgr(rig.drv, cfg);
  // Oracle: id -> (tenant, slots). The manager must agree with it after
  // every step, including across live-migrating consolidation passes.
  std::map<std::uint64_t, std::pair<std::string, std::uint32_t>> oracle;
  std::uint64_t s = 0x5EED;
  auto rnd = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    const std::string tenant = "t" + std::to_string(rnd() % 3);
    if (oracle.size() < 10 && (rnd() & 3) != 0) {
      const std::uint32_t slots = 1 + static_cast<std::uint32_t>(rnd() % 2);
      const AllocResult r = mgr.allocate_wrank(tenant, slots);
      if (r.status == AllocStatus::kOk) oracle[r.wrank] = {tenant, slots};
    } else if (!oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rnd() % oracle.size()));
      ASSERT_EQ(mgr.release_wrank(it->first), AllocStatus::kOk);
      oracle.erase(it);
    }
    if (i % 7 == 3) mgr.observe(/*do_resets=*/true);
    if (i % 5 == 4) mgr.consolidate();

    const std::vector<WrankInfo> ws = mgr.wranks();
    ASSERT_EQ(ws.size(), oracle.size());
    std::map<std::uint32_t, std::uint32_t> used;
    std::map<std::string, std::uint32_t> per_tenant;
    for (const WrankInfo& w : ws) {
      const auto it = oracle.find(w.id);
      ASSERT_NE(it, oracle.end()) << "unknown wrank id " << w.id;
      EXPECT_EQ(w.tenant, it->second.first);
      EXPECT_EQ(w.slots, it->second.second);
      // No faults in this trace, so nothing may stay displaced.
      ASSERT_NE(w.rank, Manager::kNoRank);
      used[w.rank] += w.slots;
      per_tenant[w.tenant] += w.slots;
    }
    for (const auto& [rank, slots] : used) {
      EXPECT_LE(slots, cfg.wrank_slots_per_rank) << "rank " << rank;
    }
    for (const auto& [tenant, slots] : per_tenant) {
      EXPECT_EQ(mgr.tenant_slots(tenant), slots);
    }
  }
}

TEST(WrankOversub, QuarantineDisplacesAndConsolidationAvoidsDeadRank) {
  test::TestRig rig(four_ranks());
  Manager mgr(rig.drv, wrank_config(PlacementPolicyKind::kConsolidating));
  // Fill rank 0 with tenant a (4x1), then rank 1 with tenant b (2x1):
  // best-fit packs the fullest rank first, lowest index on ties.
  std::vector<std::uint64_t> a_ids;
  for (int i = 0; i < 4; ++i) {
    const AllocResult r = mgr.allocate_wrank("a", 1);
    ASSERT_EQ(r.status, AllocStatus::kOk);
    EXPECT_EQ(r.rank, 0u);
    a_ids.push_back(r.wrank);
  }
  for (int i = 0; i < 2; ++i) {
    const AllocResult r = mgr.allocate_wrank("b", 1);
    ASSERT_EQ(r.status, AllocStatus::kOk);
    EXPECT_EQ(r.rank, 1u);
  }

  // Rank 1 dies under tenant b's wranks.
  rig.machine.rank(1).fail();
  rig.drv.log_fault({FaultKind::kRankDeath, 1, 0, rig.clock.now()});
  mgr.observe();
  EXPECT_EQ(mgr.state(1), RankState::kFail);
  EXPECT_EQ(mgr.stats().wranks_displaced, 2u);
  // Rescued within the same observe pass — onto a healthy rank, never
  // back onto the quarantined one, and nothing lost.
  ASSERT_EQ(mgr.wranks().size(), 6u);
  for (const WrankInfo& w : mgr.wranks()) {
    ASSERT_NE(w.rank, Manager::kNoRank) << "wrank " << w.id << " stranded";
    EXPECT_NE(w.rank, 1u) << "wrank " << w.id << " on the dead rank";
  }
  EXPECT_EQ(mgr.tenant_slots("b"), 2u);
  EXPECT_GE(mgr.stats().wrank_migrations, 2u);

  // Open a hole on rank 0 and consolidate: the pass must pack the rescued
  // wranks into the hole, and must never pick the quarantined rank as a
  // target even though it reads as 4 slots free.
  ASSERT_EQ(mgr.release_wrank(a_ids[0]), AllocStatus::kOk);
  ASSERT_EQ(mgr.release_wrank(a_ids[1]), AllocStatus::kOk);
  const std::uint32_t moves = mgr.consolidate();
  EXPECT_GT(moves, 0u);
  for (const WrankInfo& w : mgr.wranks()) {
    EXPECT_NE(w.rank, 1u) << "consolidation moved wrank " << w.id
                          << " onto the quarantined rank";
  }
  EXPECT_EQ(mgr.fragmentation_permille(), 0u);
  EXPECT_GE(mgr.stats().consolidation_migrations, moves);
}

TEST(WrankOversub, PolicyDecisionsAndVirtualTimeAreDeterministic) {
  // Placement policies are pure functions over table snapshots and every
  // latency charge is virtual, so an identical trace must produce
  // bit-identical decisions and clocks on every run (and, because nothing
  // reads thread state, at every VPIM_THREADS setting — CI replays this
  // whole binary at 1 and 4 host threads).
  for (const PlacementPolicyKind kind :
       {PlacementPolicyKind::kFirstFit, PlacementPolicyKind::kBestFit,
        PlacementPolicyKind::kConsolidating}) {
    auto run = [kind] {
      test::TestRig rig(four_ranks());
      Manager mgr(rig.drv, wrank_config(kind, /*charge=*/true));
      std::vector<std::tuple<AllocStatus, std::uint64_t, std::uint32_t>>
          decisions;
      std::vector<std::uint64_t> live;
      std::uint64_t s = 0xD15EA5E;
      auto rnd = [&s] {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
      };
      for (int i = 0; i < 80; ++i) {
        const std::uint32_t op = static_cast<std::uint32_t>(rnd() % 4);
        if (op < 2 || live.empty()) {
          const AllocResult r = mgr.allocate_wrank(
              "t" + std::to_string(rnd() % 3),
              1 + static_cast<std::uint32_t>(rnd() % 4));
          decisions.emplace_back(r.status, r.wrank, r.rank);
          if (r.status == AllocStatus::kOk) live.push_back(r.wrank);
        } else if (op == 2) {
          const std::size_t v =
              static_cast<std::size_t>(rnd() % live.size());
          const AllocResult r = mgr.resize_wrank(
              live[v], 1 + static_cast<std::uint32_t>(rnd() % 4));
          decisions.emplace_back(r.status, r.wrank, r.rank);
        } else {
          const std::size_t v =
              static_cast<std::size_t>(rnd() % live.size());
          decisions.emplace_back(mgr.release_wrank(live[v]), live[v], 0u);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
        }
        if (i % 6 == 5) mgr.observe(/*do_resets=*/true);
        if (mgr.policy_wants_consolidation() && i % 4 == 3) {
          mgr.consolidate();
        }
      }
      return std::make_pair(decisions, rig.clock.now());
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first)
        << "policy " << to_string(kind) << " made different decisions";
    EXPECT_EQ(first.second, second.second)
        << "policy " << to_string(kind) << " charged different time";
  }
}

}  // namespace
}  // namespace vpim::core
