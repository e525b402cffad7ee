#include "upmem/kernel.h"

#include <algorithm>
#include <utility>

#include "upmem/dpu.h"

namespace vpim::upmem {

namespace {
// Fixed setup cost of one MRAM DMA transfer, in DPU cycles. Real hardware
// pays a roughly constant engine-programming cost per transfer on top of
// the streaming time.
constexpr std::uint64_t kDmaFixedCycles = 64;

// WRAM stage buffers kept between launches on one host thread, so a
// kernel's ~50 mem_alloc calls per Dpu::run reuse capacity instead of
// hitting the heap. A DpuCtx takes the whole pool while it lives (a nested
// context would start from an empty one) and hands it back on destruction.
thread_local std::vector<std::vector<std::uint8_t>> t_stage_buffers;
}  // namespace

DpuCtx::DpuCtx(Dpu& dpu, std::uint32_t nr_tasklets, const CostModel& cost)
    : dpu_(dpu),
      nr_tasklets_(nr_tasklets),
      cycles_per_byte_(cost.dpu_hz / (cost.mram_dma_gbps * 1e9)),
      instr_(nr_tasklets),
      buffers_(std::exchange(t_stage_buffers, {})) {
  VPIM_CHECK(nr_tasklets >= 1 && nr_tasklets <= kMaxTasklets,
             "tasklet count out of range");
}

DpuCtx::~DpuCtx() { t_stage_buffers = std::move(buffers_); }

std::span<std::uint8_t> DpuCtx::mem_alloc(std::uint32_t bytes) {
  VPIM_CHECK(heap_used_ + bytes <= dpu_.wram_heap_size(),
             "WRAM heap exhausted");
  heap_used_ += bytes;
  if (nr_allocations_ == buffers_.size()) buffers_.emplace_back();
  std::vector<std::uint8_t>& buf = buffers_[nr_allocations_++];
  buf.assign(bytes, 0);
  return {buf.data(), buf.size()};
}

void DpuCtx::mram_read(std::uint64_t mram_addr,
                       std::span<std::uint8_t> wram_buf) {
  VPIM_CHECK(wram_buf.size() <= kWramSize, "DMA larger than WRAM");
  dpu_.mram().read(mram_addr, wram_buf);
  charge_dma(wram_buf.size());
}

void DpuCtx::mram_write(std::span<const std::uint8_t> wram_buf,
                        std::uint64_t mram_addr) {
  VPIM_CHECK(wram_buf.size() <= kWramSize, "DMA larger than WRAM");
  dpu_.mram().write(mram_addr, wram_buf);
  charge_dma(wram_buf.size());
}

void DpuCtx::charge_dma(std::uint64_t bytes) {
  instr_[tasklet_] +=
      kDmaFixedCycles +
      static_cast<std::uint64_t>(cycles_per_byte_ *
                                 static_cast<double>(bytes));
}

std::span<std::uint8_t> DpuCtx::symbol_bytes(std::string_view name) {
  return dpu_.symbol_bytes(name);
}

void DpuCtx::begin_stage() {
  std::fill(instr_.begin(), instr_.end(), 0);
  // Stage-local WRAM buffers are released at the barrier: kernels declare
  // them as per-stage statics on real hardware. Cross-stage communication
  // goes through symbols or MRAM.
  heap_used_ = 0;
  nr_allocations_ = 0;
}

std::uint64_t DpuCtx::stage_cycles() const {
  std::uint64_t sum = 0;
  std::uint64_t mx = 0;
  for (std::uint64_t c : instr_) {
    sum += c;
    mx = std::max(mx, c);
  }
  // One instruction retires per cycle when the pipeline is full; with fewer
  // than kPipelineDepth busy tasklets, each tasklet's instructions are
  // spaced kPipelineDepth cycles apart and the slowest tasklet bounds the
  // stage (§2 hardware constraint).
  return std::max(sum, kPipelineDepth * mx);
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry registry;
  return registry;
}

void KernelRegistry::add(DpuKernel kernel) {
  VPIM_CHECK(!kernel.name.empty(), "kernel needs a name");
  VPIM_CHECK(kernel.iram_bytes <= kIramSize, "kernel does not fit in IRAM");
  VPIM_CHECK(!kernel.stages.empty(), "kernel needs at least one stage");
  kernels_.insert_or_assign(kernel.name, std::move(kernel));
}

const DpuKernel& KernelRegistry::get(std::string_view name) const {
  auto it = kernels_.find(name);
  VPIM_CHECK(it != kernels_.end(),
             "unknown DPU binary: " + std::string(name));
  return it->second;
}

bool KernelRegistry::contains(std::string_view name) const {
  return kernels_.contains(name);
}

}  // namespace vpim::upmem
