// Fig 14: NW under vPIM-C / vPIM+P / vPIM+B / vPIM+PB, with segment
// breakdown. Paper: the prefetch cache cuts read (DPU-CPU) time ~89.3%,
// request batching cuts CPU-DPU and Inter-DPU writes ~95.8%/95.3%, the
// combination improves vPIM-C by ~10.8x; unoptimized vPIM-C is ~53x
// native.
//
// Emits BENCH_fig14.json (one point per config plus native) and fails
// (exit 1) if any run's NW result disagrees with the CPU reference or the
// deep queue does not cut VMEXITs per message.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

struct Row {
  prim::AppResult app;
  core::DeviceStats stats;
};
std::map<int, Row> g_rows;  // ordered by config index
SimNs g_native_total = 0;
prim::AppResult g_native;
std::vector<BenchPoint> g_points;
bool g_all_correct = true;

const std::vector<core::VpimConfig>& configs() {
  static const std::vector<core::VpimConfig> kConfigs = [] {
    std::vector<core::VpimConfig> v = {
        core::VpimConfig::c_only(), core::VpimConfig::with_prefetch(),
        core::VpimConfig::with_batching(),
        core::VpimConfig::with_prefetch_batching()};
    // ISSUE 7 rider: +PB again with a deep submission queue. Only posted
    // batch flushes ride the SQ here (the SDK path still blocks per op),
    // so the doorbell saving saturates quickly — but it must exist.
    core::VpimConfig deep = core::VpimConfig::with_prefetch_batching();
    deep.queue_depth = 8;
    deep.label = "vPIM+PB*8";
    v.push_back(deep);
    return v;
  }();
  return kConfigs;
}

double vmexits_per_message(const core::DeviceStats& stats) {
  const std::uint64_t messages = stats.notifies + stats.coalesced_notifies;
  return messages == 0 ? 0.0
                       : static_cast<double>(stats.doorbells) /
                             static_cast<double>(messages);
}

prim::AppParams nw_params() {
  prim::AppParams prm;
  prm.nr_dpus = 60;  // strong-scaling single-rank configuration
  prm.scale = env_scale();
  // The paper's Fig 14 NW variant moves boundaries element-wise (>15000
  // operations of ~109 bytes per DPU); run with finer-grained transfers
  // than the Fig 8 configuration.
  prm.xfer_grain = 0.25;
  return prm;
}

void record(const std::string& name, const prim::AppResult& res,
            double wall_ms) {
  g_points.push_back({name, res.total(), wall_ms});
  if (!res.correct) {
    g_all_correct = false;
    std::fprintf(stderr, "FAIL: %s: NW result disagrees with the CPU "
                         "reference\n", name.c_str());
  }
}

void run_native(benchmark::State& state) {
  for (auto _ : state) {
    NativeRig rig;
    WallTimer wall;
    g_native = prim::make_app("NW")->run(rig.platform, nw_params());
    record("fig14/native", g_native, wall.elapsed_ms());
    g_native_total = g_native.total();
    state.SetIterationTime(ns_to_s(g_native_total));
    state.counters["correct"] = g_native.correct ? 1 : 0;
  }
}

void run_config(benchmark::State& state, int index) {
  const core::VpimConfig& config = configs()[index];
  for (auto _ : state) {
    VmRig rig(config, 1);
    Row row;
    WallTimer wall;
    row.app = prim::make_app("NW")->run(rig.platform, nw_params());
    record("fig14/" + config.label, row.app, wall.elapsed_ms());
    row.stats = rig.vm.device(0).stats;
    state.SetIterationTime(ns_to_s(row.app.total()));
    state.counters["correct"] = row.app.correct ? 1 : 0;
    state.counters["messages"] = static_cast<double>(row.stats.notifies);
    state.counters["vmexits_per_op"] = vmexits_per_message(row.stats);
    g_rows[index] = row;
  }
}

// Returns false when the deep-queue row fails to strictly reduce modeled
// VMEXITs per message relative to the depth-1 +PB row.
bool print_summary() {
  print_header(
      "Fig 14 - NW with prefetch/batching ablation (single rank)",
      "vPIM-C ~53x native; +P cuts read time ~89.3% (messages 5000->125); "
      "+B cuts CPU-DPU/Inter-DPU writes ~95.8%/95.3% (messages "
      "10000->402); +PB improves vPIM-C by ~10.8x");
  std::printf("%-9s | %10s %10s %10s %10s | %10s | %8s | %9s | %8s\n",
              "config", "CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU", "total",
              "vs nat", "messages", "speedup");
  std::printf("%-9s | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms |\n",
              "native", ns_to_ms(g_native.breakdown[Segment::kCpuDpu]),
              ns_to_ms(g_native.breakdown[Segment::kDpu]),
              ns_to_ms(g_native.breakdown[Segment::kInterDpu]),
              ns_to_ms(g_native.breakdown[Segment::kDpuCpu]),
              ns_to_ms(g_native_total));
  const SimNs base =
      g_rows.count(0) ? g_rows.at(0).app.total() : 0;
  for (const auto& [index, row] : g_rows) {
    std::printf(
        "%-9s | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms | %7.1fx | "
        "%9lu | %7.2fx\n",
        configs()[index].label.c_str(),
        ns_to_ms(row.app.breakdown[Segment::kCpuDpu]),
        ns_to_ms(row.app.breakdown[Segment::kDpu]),
        ns_to_ms(row.app.breakdown[Segment::kInterDpu]),
        ns_to_ms(row.app.breakdown[Segment::kDpuCpu]),
        ns_to_ms(row.app.total()), ratio(row.app.total(), g_native_total),
        static_cast<unsigned long>(row.stats.notifies),
        ratio(base, row.app.total()));
  }
  if (g_rows.count(3) == 0 || g_rows.count(4) == 0) return true;
  const double d1 = vmexits_per_message(g_rows.at(3).stats);
  const double d8 = vmexits_per_message(g_rows.at(4).stats);
  std::printf("vmexits/message: +PB %.4f -> +PB*8 %.4f\n", d1, d8);
  if (d8 >= d1) {
    std::fprintf(stderr,
                 "FAIL: queue depth 8 does not strictly reduce modeled "
                 "vmexits per message (%.4f vs %.4f)\n",
                 d8, d1);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  benchmark::RegisterBenchmark("fig14/native", run_native)
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  for (int i = 0; i < static_cast<int>(configs().size()); ++i) {
    const std::string name = "fig14/" + configs()[i].label;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [i](benchmark::State& state) {
                                   run_config(state, i);
                                 })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RunSpecifiedBenchmarks();
  const bool ok = print_summary();
  write_bench_json("fig14", g_points);
  benchmark::Shutdown();
  return ok && g_all_correct ? 0 : 1;
}
