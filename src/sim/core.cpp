#include "sim/core.hpp"

namespace sch::sim {

Core::Core(Program program, Memory& memory, Tcdm& tcdm,
           const SimConfig& config, u32 hartid, dma::Engine& dma)
    : prog_(std::move(program)),
      mem_(memory),
      tcdm_(tcdm),
      cfg_(config),
      hartid_(hartid),
      fp_(cfg_, mem_, tcdm_, perf_, hartid_),
      core_(prog_, mem_, tcdm_, cfg_, perf_, fp_, hartid_, dma) {
  prog_.ensure_predecoded();
  fp_.set_int_wb_sink(&core_);
}

void Core::load_image() {
  mem_.load_image(prog_.data_base, prog_.data);
}

void Core::tick(Cycle now) {
  if (halted_at_ != 0) return; // drained; freeze per-core counters
  fp_.begin_cycle(now);
  CorePort port;

  core_.commit_pending(now);
  fp_.tick(now, port);
  core_.tick(now, port);

  // SSR streamers fetch last: the core's LSU has bank priority within the
  // cycle; the three streamer ports rotate round-robin among themselves.
  // An unarmed streamer makes no request, so it is skipped.
  static constexpr TcdmPortId kSsrPorts[3] = {
      TcdmPortId::kSsr0, TcdmPortId::kSsr1, TcdmPortId::kSsr2};
  u32 i = ssr_rr_;
  for (u32 k = 0; k < ssr::kNumSsrs; ++k) {
    ssr::Streamer& s = fp_.streamer(i);
    if (s.armed()) {
      s.tick_fetch(now, tcdm_, mem_, Tcdm::requester_id(hartid_, kSsrPorts[i]));
    }
    i = i + 1 == ssr::kNumSsrs ? 0 : i + 1;
  }
  ssr_rr_ = ssr_rr_ + 1 == ssr::kNumSsrs ? 0 : ssr_rr_ + 1;

  ++perf_.cycles;
  if (fully_halted()) halted_at_ = now;
}

ArchState Core::arch_state() const {
  ArchState s;
  s.pc = core_.pc();
  for (u8 r = 0; r < isa::kNumIntRegs; ++r) s.x[r] = core_.regs()[r];
  s.f = fp_.fregs();
  return s;
}

} // namespace sch::sim
