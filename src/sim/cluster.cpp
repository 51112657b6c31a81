#include "sim/cluster.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sch::sim {

Cluster::Cluster(Program program, Memory& memory, const SimConfig& config)
    : Cluster(
          [&] {
            std::vector<Program> programs;
            programs.push_back(std::move(program));
            return programs;
          }(),
          memory, config) {}

Cluster::Cluster(std::vector<Program> programs, Memory& memory,
                 const SimConfig& config)
    : cfg_(config),
      mem_(memory),
      // One requester block per core plus the cluster DMA engine's port.
      tcdm_(config.tcdm,
            std::max<u32>(config.num_cores, 1) * kTcdmPortsPerCore + 1),
      dma_(dma::EngineConfig{config.main_mem_latency,
                             config.main_mem_bytes_per_cycle,
                             config.dma_queue_depth},
           memory, std::max<u32>(config.num_cores, 1),
           Tcdm::dma_requester_id(std::max<u32>(config.num_cores, 1))) {
  const Status valid = cfg_.validate();
  if (!valid.is_ok()) throw std::invalid_argument(valid.message());
  if (programs.empty()) {
    throw std::invalid_argument("Cluster: at least one program is required");
  }
  if (programs.size() != 1 && programs.size() != cfg_.num_cores) {
    throw std::invalid_argument(
        "Cluster: need one program total or one per core (" +
        std::to_string(programs.size()) + " programs for " +
        std::to_string(cfg_.num_cores) + " cores)");
  }
  cores_.reserve(cfg_.num_cores);
  for (u32 h = 0; h < cfg_.num_cores; ++h) {
    Program prog = programs.size() == 1 ? programs[0] : std::move(programs[h]);
    cores_.push_back(
        std::make_unique<Core>(std::move(prog), mem_, tcdm_, cfg_, h, dma_));
  }
}

bool Cluster::fully_halted() const {
  for (const auto& core : cores_) {
    if (!core->halted()) return false;
  }
  return true;
}

PerfCounters Cluster::perf() const {
  if (cores_.size() == 1) return cores_[0]->perf();
  PerfCounters agg;
  for (const auto& core : cores_) agg += core->perf();
  agg.cycles = cycle_; // cluster cycles, not the sum of active spans
  return agg;
}

void Cluster::apply_faults() {
  for (const Fault& f : cfg_.faults->faults) {
    switch (f.kind) {
      case FaultKind::kFlipFpReg:
        if (f.cycle == cycle_ && f.hart < num_cores()) {
          cores_[f.hart]->fp_mut().fregs()[f.reg % isa::kNumFpRegs] ^= f.bits;
        }
        break;
      case FaultKind::kDropChainEntry:
        if (f.cycle == cycle_ && f.hart < num_cores()) {
          cores_[f.hart]->fp_mut().chain_mut().drop(f.reg % isa::kNumFpRegs);
        }
        break;
      case FaultKind::kStallTcdmBank:
        if (cycle_ >= f.cycle && cycle_ - f.cycle < f.duration) {
          tcdm_.force_bank_busy(f.bank);
        }
        break;
      case FaultKind::kTruncateDmaBeat:
        if (f.cycle == cycle_) {
          dma_.inject_beat_drop(static_cast<u32>(f.duration));
        }
        break;
    }
  }
}

void Cluster::tick() {
  ++cycle_;
  const u32 n = num_cores();
  rotation_ = rotation_ == n ? 0 : rotation_ + 1; // cycle_ % (n + 1)
  tcdm_.begin_cycle();
  if (cfg_.faults != nullptr) apply_faults();

  // Rotate the service order each cycle so no requester is statically
  // favored in the bank arbiter (fair round-robin): the rotation covers the
  // cores plus one slot for the cluster DMA engine, which contends for
  // banks like any other requester but can never starve a core. An idle
  // engine makes no requests, so with DMA off the cores see exactly the
  // pre-Xdma arbitration.
  u32 slot = rotation_;
  for (u32 k = 0; k <= n; ++k) {
    if (slot < n) {
      cores_[slot]->tick(cycle_);
    } else if (!dma_.idle()) {
      dma_.tick(cycle_, tcdm_);
    }
    slot = slot == n ? 0 : slot + 1;
  }

  // Progress watchdog across the whole cluster (a spinning barrier still
  // retires branches and a draining DMA still moves bytes or burns startup
  // latency, so only a true wedge trips it -- even a transfer whose
  // startup alone exceeds deadlock_cycles counts as progress).
  u64 retired = dma_.stats().bytes_moved + dma_.stats().startup_cycles;
  for (const auto& core : cores_) {
    retired += core->perf().total_retired() + core->perf().offloads;
  }
  if (retired != last_progress_retired_) {
    last_progress_retired_ = retired;
    last_progress_cycle_ = cycle_;
  } else if (cycle_ - last_progress_cycle_ > cfg_.deadlock_cycles) {
    const PerfCounters p = perf();
    blame_first_running_hart();
    failure_kind_ = FailureKind::kDeadlock;
    std::ostringstream os;
    os << "deadlock: no instruction retired for " << cfg_.deadlock_cycles
       << " cycles at cycle " << cycle_ << " (pc=0x" << std::hex << halt_pc_
       << std::dec << ", chain-empty=" << p.stall_chain_empty
       << ", ssr-empty=" << p.stall_ssr_empty
       << ", chain-full=" << p.stall_chain_full << ")";
    halt_ = HaltReason::kError;
    error_ = os.str();
  }

  for (u32 h = 0; h < n; ++h) {
    if (cores_[h]->has_error()) {
      halt_ = HaltReason::kError;
      error_ = n == 1 ? cores_[h]->error()
                      : "hart " + std::to_string(h) + ": " + cores_[h]->error();
      halt_hart_ = static_cast<i32>(h);
      halt_pc_ = static_cast<i64>(cores_[h]->error_pc());
      // A watchdog deadlock found in this same tick keeps its kind.
      if (failure_kind_ == FailureKind::kNone) {
        failure_kind_ = cores_[h]->failure_kind();
      }
      break;
    }
  }
}

void Cluster::blame_first_running_hart() {
  u32 h = 0;
  while (h < num_cores() && cores_[h]->halted()) ++h;
  if (h == num_cores()) h = 0;
  halt_hart_ = static_cast<i32>(h);
  halt_pc_ = static_cast<i64>(cores_[h]->int_core().pc());
}

void Cluster::halt_over_budget(std::string message) {
  halt_ = HaltReason::kMaxSteps;
  failure_kind_ = FailureKind::kBudgetExceeded;
  blame_first_running_hart();
  error_ = std::move(message);
}

bool Cluster::step() {
  if (halt_ != HaltReason::kNone) return false;
  if (!started_) {
    for (const auto& core : cores_) core->load_image();
    started_ = true;
    if (cfg_.max_wall_ms != 0) wall_start_ = std::chrono::steady_clock::now();
  }
  // Wall-clock budget, checked off the hot path (every 4096 cycles).
  if (cfg_.max_wall_ms != 0 && (cycle_ & 0xFFF) == 0) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - wall_start_);
    if (static_cast<u64>(elapsed.count()) > cfg_.max_wall_ms) {
      halt_over_budget("wall-clock budget exhausted (" +
                       std::to_string(cfg_.max_wall_ms) + " ms) at cycle " +
                       std::to_string(cycle_));
      return false;
    }
  }
  tick();
  if (halt_ != HaltReason::kNone) return false;
  // The cluster keeps ticking a draining DMA queue after every core has
  // halted, so a final copy-back still commits its bytes.
  // Every abnormal core halt (a fault, running off the text) is an error
  // the tick already reported, so a fully halted cluster halted cleanly.
  if (fully_halted() && dma_.idle()) {
    halt_ = cores_[0]->halt_reason();
    return false;
  }
  if (cycle_ >= cfg_.max_cycles) {
    halt_over_budget("cycle budget exhausted");
    return false;
  }
  return true;
}

HaltReason Cluster::run() {
  while (step()) {
  }
  return halt_;
}

} // namespace sch::sim
