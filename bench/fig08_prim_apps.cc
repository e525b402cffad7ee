// Fig 8: execution time of the 16 PrIM applications, native vs vPIM, with
// 1 rank (60 DPUs) and 8 ranks (480 DPUs), segmented into CPU-DPU / DPU /
// Inter-DPU / DPU-CPU.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <optional>
#include "common/stats.h"

#include "bench/bench_util.h"

namespace vpim::bench {
namespace {

// A --benchmark_filter run may leave either side of a row empty.
struct Row {
  std::optional<prim::AppResult> native;
  std::optional<prim::AppResult> vpim;
};
std::map<std::pair<std::string, std::uint32_t>, Row> g_rows;
std::vector<BenchPoint> g_points;

void bench_app(benchmark::State& state, const std::string& name,
               const std::string& app, std::uint32_t dpus,
               bool virtualized) {
  prim::AppParams prm;
  prm.nr_dpus = dpus;
  prm.scale = env_scale();
  for (auto _ : state) {
    WallTimer wall;
    prim::AppResult res =
        virtualized ? run_prim_vpim(app, prm, core::VpimConfig::full())
                    : run_prim_native(app, prm);
    const double wall_ms = wall.elapsed_ms();
    state.SetIterationTime(ns_to_s(res.total()));
    state.counters["correct"] = res.correct ? 1 : 0;
    state.counters["wall_ms"] = wall_ms;
    auto& row = g_rows[{app, dpus}];
    (virtualized ? row.vpim : row.native) = res;
    g_points.push_back({name, res.total(), wall_ms});
  }
}

// Returns false when any app's DPU result disagrees with its CPU reference.
bool print_summary() {
  print_header(
      "Fig 8 - PrIM applications, strong scaling (60 vs 480 DPUs)",
      "overhead 1.01x-2.07x @60 DPUs (avg 1.24x), 1.02x-2.89x @480 DPUs "
      "(avg 1.54x); SEL/UNI/SpMV/BFS slow down at 480 DPUs due to serial "
      "transfers; RED/SCAN/HST Inter-DPU or DPU-CPU steps inflated by the "
      "prefetch cache");
  std::printf("%-9s %5s | %10s %10s %10s %10s | %10s | %8s | %s\n", "app",
              "#DPU", "CPU-DPU", "DPU", "Inter-DPU", "DPU-CPU", "total",
              "overhead", "ok");
  std::vector<double> overheads60, overheads480;
  bool all_correct = true;
  for (const auto& app : prim::app_names()) {
    for (std::uint32_t dpus : {60u, 480u}) {
      auto it = g_rows.find({app, dpus});
      if (it == g_rows.end()) continue;
      const Row& row = it->second;
      for (const bool virtualized : {false, true}) {
        const std::optional<prim::AppResult>& side =
            virtualized ? row.vpim : row.native;
        if (!side) continue;
        const prim::AppResult& r = *side;
        std::printf(
            "%-9s %5u | %9.1fms %9.1fms %9.1fms %9.1fms | %9.1fms |",
            (std::string(virtualized ? "v:" : "n:") + app).c_str(), dpus,
            ns_to_ms(r.breakdown[Segment::kCpuDpu]),
            ns_to_ms(r.breakdown[Segment::kDpu]),
            ns_to_ms(r.breakdown[Segment::kInterDpu]),
            ns_to_ms(r.breakdown[Segment::kDpuCpu]), ns_to_ms(r.total()));
        if (virtualized && row.native) {
          const double ov = ratio(row.vpim->total(), row.native->total());
          std::printf(" %7.2fx |", ov);
          (dpus == 60 ? overheads60 : overheads480).push_back(ov);
        } else {
          std::printf(" %8s |", "-");
        }
        std::printf(" %s\n", r.correct ? "yes" : "NO");
        all_correct &= r.correct;
      }
    }
  }
  if (!overheads60.empty()) {
    std::printf("\nmeasured overhead @60 DPUs:  min %.2fx  geomean %.2fx  "
                "max %.2fx   (paper: 1.01x / 1.24x avg / 2.07x)\n",
                *std::min_element(overheads60.begin(), overheads60.end()),
                geomean(overheads60),
                *std::max_element(overheads60.begin(), overheads60.end()));
  }
  if (!overheads480.empty()) {
    std::printf("measured overhead @480 DPUs: min %.2fx  geomean %.2fx  "
                "max %.2fx   (paper: 1.02x / 1.54x avg / 2.89x)\n",
                *std::min_element(overheads480.begin(), overheads480.end()),
                geomean(overheads480),
                *std::max_element(overheads480.begin(),
                                  overheads480.end()));
  }
  if (!all_correct) {
    std::fprintf(stderr, "FAIL: an app's result disagrees with its CPU "
                         "reference (ok = NO above)\n");
  }
  return all_correct;
}

}  // namespace
}  // namespace vpim::bench

int main(int argc, char** argv) {
  using namespace vpim::bench;
  benchmark::Initialize(&argc, argv);
  for (const auto& app : vpim::prim::app_names()) {
    for (std::uint32_t dpus : {60u, 480u}) {
      for (const bool virtualized : {false, true}) {
        const std::string name = "fig08/" + app + "/dpus:" +
                                 std::to_string(dpus) +
                                 (virtualized ? "/vPIM" : "/native");
        benchmark::RegisterBenchmark(
            name.c_str(),
            [name, app, dpus, virtualized](benchmark::State& state) {
              bench_app(state, name, app, dpus, virtualized);
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RunSpecifiedBenchmarks();
  const bool ok = print_summary();
  write_bench_json("fig08", g_points);
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
