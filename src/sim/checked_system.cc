#include "sim/checked_system.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/interpreter_inline.h"
#include "core/checker_engine.h"
#include "core/checkpoint.h"
#include "core/load_forwarding_unit.h"
#include "core/load_store_log.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "mem/prefetcher.h"
#include "sim/ooo_core.h"
#include "sim/segment_pipeline.h"
#include "sim/warm_state.h"

namespace paradet::sim {
namespace {

using core::EntryKind;
using core::FaultSite;
using core::LogEntry;

/// DataPort for the main core's functional execution: reads/writes the real
/// memory, captures every memory micro-op for the commit stage, and applies
/// load/store fault injection at the modelled sites.
class MainPort final : public arch::DataPort {
 public:
  struct Captured {
    EntryKind kind = EntryKind::kLoad;
    Addr addr = 0;
    std::uint64_t arch_value = 0;  ///< value the main core's pipeline used.
    std::uint64_t lfu_value = 0;   ///< value duplicated at access time.
    std::uint64_t old_value = 0;   ///< stores: overwritten value (undo log).
    std::uint8_t size = 0;
  };

  MainPort(arch::SparseMemory& memory, bool record_old_values)
      : memory_(memory), record_old_values_(record_old_values) {}

  /// Arms the port for one macro-op. `uop_seq_base` is the sequence number
  /// of the macro-op's first micro-op.
  void begin_macro(UopSeq uop_seq_base, core::FaultInjector* faults,
                   std::uint64_t rdcycle_value) {
    captured_.clear();
    uop_seq_base_ = uop_seq_base;
    faults_ = faults;
    rdcycle_value_ = rdcycle_value;
  }

  std::uint64_t load(Addr addr, unsigned size) override {
    std::uint64_t value = memory_.read(addr, size);
    std::uint64_t arch_value = value;
    std::uint64_t lfu_value = value;
    if (faults_ != nullptr) {
      const UopSeq seq = uop_seq_base_ + captured_.size();
      if (const auto* f = faults_->arm(FaultSite::kMainLoadValuePreLfu, seq)) {
        // Corruption on the fill path, before duplication: both copies see
        // it. This is the ECC domain (§IV-A) -- the scheme must NOT detect.
        const std::uint64_t mask = std::uint64_t{1} << (f->bit & 63);
        arch_value ^= mask;
        lfu_value ^= mask;
      }
      if (const auto* f = faults_->arm(FaultSite::kMainLoadValuePostLfu, seq)) {
        // Corruption after the LFU duplicated the value (§IV-C window).
        arch_value ^= std::uint64_t{1} << (f->bit & 63);
      }
    }
    captured_.push_back(Captured{EntryKind::kLoad, addr, arch_value,
                                 lfu_value, 0,
                                 static_cast<std::uint8_t>(size)});
    return arch_value;
  }

  void store(Addr addr, std::uint64_t value, unsigned size) override {
    if (faults_ != nullptr) {
      const UopSeq seq = uop_seq_base_ + captured_.size();
      if (const auto* f = faults_->arm(FaultSite::kMainStoreValue, seq)) {
        value ^= std::uint64_t{1} << (f->bit & 63);
      }
      if (const auto* f = faults_->arm(FaultSite::kMainStoreAddr, seq)) {
        // Faulty address escapes to memory and to the log (§IV-F): wild
        // write. Keep the size alignment so the functional write is valid.
        addr ^= std::uint64_t{size} << (f->bit % 8);
      }
    }
    // The overwritten value is only needed for undo logging; skip the
    // extra memory read on the common (no-undo) path.
    const std::uint64_t old_value =
        record_old_values_ ? memory_.read(addr, size) : 0;
    memory_.write(addr, value, size);
    captured_.push_back(Captured{EntryKind::kStore, addr, value, value,
                                 old_value,
                                 static_cast<std::uint8_t>(size)});
  }

  std::uint64_t read_cycle() override {
    captured_.push_back(Captured{EntryKind::kNondet, 0, rdcycle_value_,
                                 rdcycle_value_, 0, 0});
    return rdcycle_value_;
  }

  const std::vector<Captured>& captured() const { return captured_; }

 private:
  arch::SparseMemory& memory_;
  std::vector<Captured> captured_;
  UopSeq uop_seq_base_ = 0;
  core::FaultInjector* faults_ = nullptr;
  std::uint64_t rdcycle_value_ = 0;
  bool record_old_values_ = false;
};

/// Commit-bandwidth tracker: at most commit_width micro-ops per cycle, in
/// order, never earlier than the block cycle (checkpoint pauses and
/// log-full stalls).
class CommitTracker {
 public:
  explicit CommitTracker(unsigned width) : width_(width) {}

  /// Warm-resume restore: picks up mid-run at `last` with `count` commits
  /// already in that cycle.
  CommitTracker(unsigned width, Cycle last, unsigned count)
      : width_(width), last_(last), count_(count) {}

  Cycle commit(Cycle earliest, Cycle block) {
    Cycle cycle = std::max(earliest, block);
    if (cycle < last_) cycle = last_;
    if (cycle == last_ && count_ >= width_) ++cycle;
    if (cycle > last_) {
      last_ = cycle;
      count_ = 1;
    } else {
      ++count_;
    }
    return cycle;
  }

  Cycle last() const { return last_; }
  unsigned count() const { return count_; }

 private:
  unsigned width_;
  Cycle last_ = 0;
  unsigned count_ = 0;
};

/// The commit loop of a CheckedSystem run, with every loop-carried value a
/// member instead of a local so a run can stop at a macro-op boundary, be
/// captured into a WarmState, and resume later in a different runner —
/// byte-identically. Three entry shapes share the one loop:
///   * CheckedSystem::run      — fresh runner, loop to completion;
///   * capture_warm_state      — fresh runner, loop to a prefix, capture();
///   * run_job_from            — warm runner (forked memory), loop to
///                               completion.
class SystemRunner {
 public:
  static constexpr std::uint64_t kNoCapture = ~std::uint64_t{0};

  SystemRunner(const SystemConfig& config, CheckerExec checker,
               LoadedProgram& program, core::FaultInjector* faults,
               core::UndoLog* undo_log)
      : config_(config),
        checker_(checker),
        faults_(faults),
        undo_log_(undo_log),
        detect_(config.detection.enabled),
        memory_(program.memory),
        predecoded_(&program.predecoded()),
        statics_(program.statics.get()),
        machine_(config),
        log_(config.log),
        lfu_(config.main_core.rob_entries),
        checkpoint_unit_(config.main_core.checkpoint_latency_cycles),
        decode_(memory_, predecoded_),
        port_(memory_, undo_log != nullptr),
        commit_(config.main_core.commit_width) {
    state_.pc = program.entry;
    if (faults_ != nullptr) faults_->reset_fired();
    if (detect_) {
      // The whole checker side — replay engines over a pristine fetch
      // snapshot, checker-core timing, detection bookkeeping, release
      // cycles — lives behind the pipeline's produce/absorb API. The
      // snapshot must be taken here, before the first instruction
      // executes; taking it freezes the working memory (copy-on-write).
      pipeline_.emplace(config_, program.memory, predecoded_, statics_,
                        checker_, undo_log_);
      assert(config_.checker.num_cores == config_.log.segments);
    }
    last_checkpoint_ = checkpoint_unit_.take(state_, 0, 0);
    if (faults_ != nullptr) {
      if (const auto* f = faults_->checkpoint_fault(checkpoint_index_)) {
        core::FaultInjector::flip_register(last_checkpoint_.state, f->reg,
                                           f->bit);
      }
    }
    ++checkpoint_index_;
    next_interrupt_ = config_.interrupts.enabled
                          ? config_.interrupts.interval_cycles
                          : kCycleNever;
  }

  /// Warm resume: forks the captured memory and adopts every loop-carried
  /// value. `warm` stays untouched (and may be resumed from concurrently).
  SystemRunner(const WarmState& warm, core::FaultInjector* faults)
      : config_(warm.config),
        checker_(warm.checker),
        faults_(faults),
        undo_log_(nullptr),
        detect_(warm.config.detection.enabled),
        owned_memory_(warm.memory.fork()),
        memory_(owned_memory_),
        predecoded_(&warm.image->predecoded),
        statics_(warm.statics.get()),
        machine_(warm.machine),
        log_(warm.log),
        lfu_(warm.lfu),
        checkpoint_unit_(warm.checkpoint_unit),
        state_(warm.state),
        decode_(memory_, predecoded_),
        port_(memory_, /*record_old_values=*/false),
        commit_(warm.config.main_core.commit_width, warm.commit_last,
                warm.commit_count),
        commit_block_(warm.commit_block),
        uop_seq_(warm.uops),
        checkpoint_index_(warm.checkpoint_index),
        next_interrupt_(warm.next_interrupt),
        last_checkpoint_(warm.last_checkpoint) {
    rob_id_ =
        static_cast<unsigned>(uop_seq_ % config_.main_core.rob_entries);
    result_.instructions = warm.instructions;
    result_.uops = warm.uops;
    result_.checkpoint_stall_cycles = warm.checkpoint_stall_cycles;
    result_.log_full_stall_cycles = warm.log_full_stall_cycles;
    if (faults_ != nullptr) faults_->reset_fired();
    if (detect_) {
      assert(warm.pipeline != nullptr);
      pipeline_.emplace(config_, *warm.pipeline, warm.fetch_snapshot,
                        predecoded_, statics_, checker_,
                        /*undo_log=*/nullptr);
    }
  }

  /// Runs macro-ops until a trap, the instruction budget, or — when
  /// `capture_at` is a micro-op count — the first macro-op boundary at or
  /// past it. Returns true iff stopped at the capture point.
  bool loop(std::uint64_t max_instructions, std::uint64_t capture_at);

  /// Seals the final segment, drains the pipeline and collects the result.
  RunResult finalize();

  /// Exports the stopped run as a WarmState (fresh-mode runners only: the
  /// program's memory/predecode/statics are moved out of `program`). The
  /// runner must not be used afterwards.
  std::unique_ptr<WarmState> capture(std::uint64_t max_instructions,
                                     LoadedProgram& program);

 private:
  void seal_segment(core::SealReason reason, arch::Trap end_trap);
  void open_segment();

  SystemConfig config_;
  CheckerExec checker_;
  core::FaultInjector* faults_;
  core::UndoLog* undo_log_;
  bool detect_;

  /// Warm mode: the forked working memory. Fresh mode: unused (the
  /// caller's LoadedProgram owns the memory).
  arch::SparseMemory owned_memory_;
  arch::SparseMemory& memory_;
  const isa::PredecodedImage* predecoded_;
  const ProgramStatics* statics_;

  MachineState machine_;
  core::LoadStoreLog log_;
  core::LoadForwardingUnit lfu_;
  core::CheckpointUnit checkpoint_unit_;

  arch::ArchState state_;
  arch::DecodeCache decode_;
  MainPort port_;
  CommitTracker commit_;

  Cycle commit_block_ = 0;  ///< commits may not happen before this cycle.
  std::uint64_t uop_seq_ = 0;
  /// uop_seq_ % rob_entries, maintained as a wrapping counter so the hot
  /// commit loop never divides (rob_entries is not a power of two).
  unsigned rob_id_ = 0;
  std::uint64_t checkpoint_index_ = 0;
  Cycle next_interrupt_ = kCycleNever;
  core::RegisterCheckpoint last_checkpoint_;
  arch::Trap exit_trap_ = arch::Trap::kNone;

  std::optional<SegmentPipeline> pipeline_;
  RunResult result_;
};

// Seals the filling segment and hands it to the pipeline, which replays it
// (inline or concurrently) and absorbs the result in ordinal order.
void SystemRunner::seal_segment(core::SealReason reason, arch::Trap end_trap) {
  const unsigned index = log_.filling_index();
  // End-of-segment register checkpoint: pauses commit (§IV-E).
  core::RegisterCheckpoint end =
      checkpoint_unit_.take(state_, result_.instructions, commit_.last());
  if (faults_ != nullptr) {
    if (const auto* f = faults_->checkpoint_fault(checkpoint_index_)) {
      core::FaultInjector::flip_register(end.state, f->reg, f->bit);
    }
  }
  ++checkpoint_index_;
  const Cycle seal_cycle = commit_.last();
  commit_block_ =
      std::max(commit_block_,
               seal_cycle + config_.main_core.checkpoint_latency_cycles);
  result_.checkpoint_stall_cycles +=
      config_.main_core.checkpoint_latency_cycles;

  core::Segment& segment = log_.seal_filling(reason, end, seal_cycle);
  segment.end_trap = static_cast<std::uint8_t>(end_trap);
  last_checkpoint_ = end;

  // The functional check always runs (it is the correctness contract);
  // timing only when checkers are simulated. Both halves are the
  // pipeline's business now.
  std::unique_ptr<core::CheckerFaultHook> hook;
  if (faults_ != nullptr) hook = faults_->checker_hook(segment.ordinal);
  pipeline_->produce(segment, seal_cycle, index, std::move(hook));

  // The physical buffer is reusable once the check completes (the
  // pipeline copied what it needs); the timing gate is release_cycle().
  log_.begin_check(index);
  log_.release(index);
}

void SystemRunner::open_segment() {
  const unsigned next = log_.next_index();
  const Cycle release = pipeline_->release_cycle(next);
  if (release > commit_.last()) {
    // Main core must stall: its next commit cannot happen until the
    // checker owning this segment finishes (§IV-D).
    result_.log_full_stall_cycles += release - commit_.last();
    commit_block_ = std::max(commit_block_, release);
  }
  log_.open_next(last_checkpoint_, commit_.last());
}

// ---- Main loop: one macro-op per iteration --------------------------------
bool SystemRunner::loop(std::uint64_t max_instructions,
                        std::uint64_t capture_at) {
  InstStatic scratch_statics;  ///< fallback for out-of-image PCs only.
  while (result_.instructions < max_instructions) {
    // The capture point sits *before* this iteration's fault checks so a
    // resumed run re-evaluates them for the same sequence number.
    if (capture_at != kNoCapture && uop_seq_ >= capture_at) return true;

    // Transient register-file faults trigger by first-uop sequence number.
    if (faults_ != nullptr) {
      if (const auto* f = faults_->at(FaultSite::kMainArchReg, uop_seq_)) {
        core::FaultInjector::flip_register(state_, f->reg, f->bit);
      }
    }

    const isa::Inst* inst = decode_.decode_at(state_.pc);
    if (inst == nullptr) {
      exit_trap_ = arch::Trap::kIllegal;
      break;  // undecodable: nothing commits.
    }
    // Crack/classification metadata: from the per-static-instruction table
    // for predecoded PCs, computed on the spot for out-of-image ones.
    const InstStatic* statics =
        lookup_or_make(statics_, state_.pc, *inst, scratch_statics);
    const unsigned mem_uops = statics->mem_uops;

    // Segment management before this instruction commits (§IV-D): the
    // macro-op boundary rule, then opening a fresh segment if needed.
    if (detect_) {
      if (log_.has_filling() && mem_uops > 0 &&
          !log_.fits_in_filling(mem_uops)) {
        seal_segment(core::SealReason::kFull, arch::Trap::kNone);
      }
      if (!log_.has_filling()) open_segment();
    }

    // Functional execution of the whole macro-op (correct path).
    port_.begin_macro(uop_seq_, faults_, commit_.last());
    const Addr pc = state_.pc;
    const arch::StepResult step = arch::execute_inline(*inst, state_, port_);
    assert(step.trap != arch::Trap::kCheckFailed);

    // Timing + commit of each micro-op.
    const auto& captured = port_.captured();
    std::size_t capture_index = 0;
    for (unsigned u = 0; u < statics->uop_count; ++u) {
      const UopStatic& uop = statics->uops[u];
      UopDesc desc;
      desc.cls = uop.cls;
      desc.regs = uop.regs;
      desc.pc = pc;
      desc.seq = uop_seq_;
      desc.first_of_macro = u == 0;
      desc.ctrl = uop.ctrl;
      desc.taken = step.branch_taken || uop.is_jump;
      desc.target = step.next_pc;
      desc.is_load = uop.is_load;
      desc.is_store = uop.is_store;
      // Memory micro-ops and RDCYCLE each consume one captured access, in
      // execution order.
      const bool consumes_capture = uop.consumes_capture;
      const MainPort::Captured* cap = nullptr;
      if (consumes_capture && capture_index < captured.size()) {
        cap = &captured[capture_index];
        desc.mem_addr = cap->addr;
        desc.mem_size = cap->size;
      }

      const UopTiming timing = machine_.core.schedule(desc);

      // Hard fault: a stuck bit in one integer ALU corrupts every result
      // it produces from the trigger onwards.
      if (faults_ != nullptr && desc.cls == isa::ExecClass::kIntAlu &&
          timing.int_alu_unit >= 0 && desc.regs.dest >= 0 &&
          desc.regs.dest < static_cast<int>(kNumIntRegs)) {
        if (const auto* f = faults_->alu_stuck_at(uop_seq_)) {
          if (static_cast<int>(f->alu_index) == timing.int_alu_unit) {
            state_.x[desc.regs.dest] = core::FaultInjector::apply_stuck_bit(
                state_.x[desc.regs.dest], f->bit, f->stuck_value);
          }
        }
      }

      // LFU capture at access time (fig. 5): speculative slot tagged by
      // ROB id.
      const unsigned rob_id = rob_id_;
      if (detect_ && desc.is_load && cap != nullptr &&
          config_.detection.load_forwarding_unit) {
        lfu_.capture(rob_id, uop_seq_, cap->addr, cap->lfu_value, cap->size);
      }

      // In-order commit.
      const Cycle commit_cycle = commit_.commit(timing.complete + 1,
                                                commit_block_);
      if (detect_ && cap != nullptr) {
        LogEntry entry;
        entry.kind = cap->kind;
        entry.size = cap->size;
        entry.addr = cap->addr;
        entry.commit_cycle = commit_cycle;
        entry.seq = uop_seq_;
        if (cap->kind == EntryKind::kLoad &&
            config_.detection.load_forwarding_unit) {
          const auto drained = lfu_.drain(rob_id, uop_seq_);
          assert(drained.valid);
          entry.value = drained.value;
        } else {
          // Stores and non-deterministic results forward the committed
          // value; in the LFU-disabled ablation, loads forward the
          // (possibly corrupted) pipeline value (§IV-C naive scheme).
          entry.value = cap->arch_value;
        }
        log_.append(entry);
      }
      // Stores write memory (timing-wise) at commit.
      if (desc.is_store && cap != nullptr) {
        (void)machine_.l1d.access(cap->addr, /*write=*/true, commit_cycle, pc);
        if (undo_log_ != nullptr && detect_ && log_.has_filling()) {
          undo_log_->record(log_.filling().ordinal, cap->addr, cap->old_value,
                            cap->size);
        }
      }
      machine_.core.retire(commit_cycle);
      if (cap != nullptr) ++capture_index;
      ++uop_seq_;
      if (++rob_id_ == config_.main_core.rob_entries) rob_id_ = 0;
      ++result_.uops;
    }

    ++result_.instructions;
    if (detect_) log_.note_instruction();

    if (step.trap != arch::Trap::kNone) {
      exit_trap_ = step.trap;
      break;
    }

    // End-of-instruction seal triggers (§IV-D, §IV-J, §IV-G).
    if (detect_ && log_.has_filling()) {
      if (log_.free_entries_in_filling() == 0) {
        seal_segment(core::SealReason::kFull, arch::Trap::kNone);
      } else if (log_.timeout_reached()) {
        seal_segment(core::SealReason::kTimeout, arch::Trap::kNone);
      } else if (commit_.last() >= next_interrupt_) {
        seal_segment(core::SealReason::kInterrupt, arch::Trap::kNone);
        next_interrupt_ += config_.interrupts.interval_cycles;
      }
    }
  }
  return false;
}

RunResult SystemRunner::finalize() {
  // Final drain: the last (partial) segment is sealed and checked; for
  // HALT/FAULT terminations the trap itself is validated by the checker
  // (§IV-H: termination is held back until the checks complete).
  if (detect_ && log_.has_filling()) {
    seal_segment(core::SealReason::kDrain, exit_trap_);
  }
  // §IV-H: termination is held back until every outstanding check
  // completes. In concurrent mode this is where the main thread waits.
  if (pipeline_.has_value()) pipeline_->finish();

  // ---- Collect results ---------------------------------------------------
  result_.exit_trap = exit_trap_;
  result_.final_state = state_;
  result_.main_done_cycle = commit_.last();
  result_.all_checked_cycle =
      std::max(pipeline_.has_value() ? pipeline_->all_checked() : Cycle{0},
               result_.main_done_cycle);
  result_.ipc = result_.main_done_cycle == 0
                    ? 0.0
                    : static_cast<double>(result_.instructions) /
                          static_cast<double>(result_.main_done_cycle);
  if (pipeline_.has_value()) {
    result_.error_detected = pipeline_->error_detected();
    result_.first_error = pipeline_->first_error();
    result_.recovery_checkpoint = pipeline_->recovery_checkpoint();
    result_.delay_ns = pipeline_->delay_histogram_ns();
  } else {
    // Byte-compatible with the detection path's empty controller: the
    // delay histogram keeps the controller's binning even when no
    // pipeline was built.
    result_.delay_ns = Histogram(50.0, 100);
  }
  result_.segments = log_.segments_opened();
  result_.seals_full = log_.seals(core::SealReason::kFull);
  result_.seals_timeout = log_.seals(core::SealReason::kTimeout);
  result_.seals_interrupt = log_.seals(core::SealReason::kInterrupt);
  result_.seals_drain = log_.seals(core::SealReason::kDrain);
  result_.checkpoints_taken = checkpoint_unit_.checkpoints_taken();
  result_.mem_digest = memory_.digest();

  result_.counters.inc("l1i.hits", machine_.l1i.hits());
  result_.counters.inc("l1i.misses", machine_.l1i.misses());
  result_.counters.inc("l1d.hits", machine_.l1d.hits());
  result_.counters.inc("l1d.misses", machine_.l1d.misses());
  result_.counters.inc("l2.hits", machine_.l2.hits());
  result_.counters.inc("l2.misses", machine_.l2.misses());
  result_.counters.inc("l2.prefetch_fills", machine_.l2.prefetch_fills());
  result_.counters.inc("dram.accesses", machine_.dram.accesses());
  result_.counters.inc("dram.row_hits", machine_.dram.row_hits());
  result_.counters.inc("branch.mispredicts",
                       machine_.core.branch_mispredicts());
  result_.counters.inc("lfu.captures", lfu_.captures());
  result_.counters.inc("log.entries", log_.entries_appended());
  result_.counters.inc(
      "checker.shared_l1i_hits",
      pipeline_.has_value() ? pipeline_->shared_icache_hits() : 0);
  result_.counters.inc(
      "checker.shared_l1i_misses",
      pipeline_.has_value() ? pipeline_->shared_icache_misses() : 0);
  return result_;
}

std::unique_ptr<WarmState> SystemRunner::capture(
    std::uint64_t max_instructions, LoadedProgram& program) {
  assert(undo_log_ == nullptr);
  // Drain in-flight checks first: absorption is a pure in-ordinal-order
  // fold over sealed segments, so draining now leaves exactly the state a
  // full run would have after the same segments absorbed.
  if (pipeline_.has_value()) pipeline_->finish();

  auto warm = std::make_unique<WarmState>(config_, checker_, machine_,
                                          log_, lfu_, checkpoint_unit_);
  warm->max_instructions = max_instructions;
  if (pipeline_.has_value()) {
    warm->pipeline = pipeline_->warm_state();
    warm->fetch_snapshot = pipeline_->fetch_snapshot().fork();
  }
  // Freeze the working memory (idempotent when detection already froze it)
  // so every resumed tail forks it instead of copying.
  warm->memory = std::move(program.memory);
  warm->memory.freeze();
  warm->image = std::move(program.image);
  warm->statics = std::move(program.statics);
  warm->state = state_;
  warm->instructions = result_.instructions;
  warm->uops = uop_seq_;
  warm->checkpoint_index = checkpoint_index_;
  warm->commit_block = commit_block_;
  warm->next_interrupt = next_interrupt_;
  warm->commit_last = commit_.last();
  warm->commit_count = commit_.count();
  warm->checkpoint_stall_cycles = result_.checkpoint_stall_cycles;
  warm->log_full_stall_cycles = result_.log_full_stall_cycles;
  warm->last_checkpoint = last_checkpoint_;
  return warm;
}

}  // namespace

namespace {

/// Slack past the last labelled object for the flat data window: workload
/// tables extend beyond their label (randacc's is 2 MiB) and symbols only
/// mark where they start.
constexpr Addr kFlatDataSlack = Addr{4} << 20;
/// Programs whose address footprint exceeds this stay purely page-backed.
constexpr Addr kFlatDataWindowCap = Addr{32} << 20;

}  // namespace

namespace {

/// Process-wide ProgramStatics cache, keyed by image identity. Campaign
/// drivers load the same AssemblyCache image thousands of times (once per
/// trial); the crack/classification tables are a pure function of the
/// image, so they are computed once and shared. Entries hold a weak
/// reference to the image for aliveness: an entry whose image has died is
/// never served (a new image may be allocated at the same address), and
/// every such entry is evicted on the next insert, so the statics of dead
/// images do not accumulate.
std::shared_ptr<const ProgramStatics> statics_for(const AssembledImage& image) {
  struct CacheShard {
    std::mutex mutex;
    struct Entry {
      std::weak_ptr<const isa::Assembled> alive;
      std::shared_ptr<const ProgramStatics> statics;
    };
    std::unordered_map<const isa::Assembled*, Entry> map;
  };
  static CacheShard* cache = new CacheShard;  // leaked: process-lifetime.

  {
    std::lock_guard<std::mutex> lock(cache->mutex);
    auto it = cache->map.find(image.get());
    if (it != cache->map.end() && !it->second.alive.expired()) {
      return it->second.statics;
    }
  }
  // Compute outside the lock (construction walks the whole code span); a
  // concurrent first-load of the same image may duplicate the work, but
  // both results are identical and the last insert wins.
  auto statics = std::make_shared<const ProgramStatics>(image->predecoded);
  std::lock_guard<std::mutex> lock(cache->mutex);
  std::erase_if(cache->map,
                [](const auto& entry) { return entry.second.alive.expired(); });
  cache->map[image.get()] = {image, statics};
  return statics;
}

LoadedProgram load_program_impl(AssembledImage image, bool share_statics) {
  const isa::Assembled& assembled = *image;
  LoadedProgram program;
  // Flat backing over the program's whole address footprint (chunks and
  // labelled data, plus slack for the arrays that follow the last label):
  // the hot-path load/store becomes a bounds check + memcpy.
  Addr footprint = 0;
  for (const auto& chunk : assembled.chunks) {
    footprint = std::max(footprint, chunk.base + chunk.bytes.size());
  }
  for (const auto& [name, addr] : assembled.symbols) {
    footprint = std::max(footprint, addr);
  }
  if (footprint > 0 && footprint + kFlatDataSlack <= kFlatDataWindowCap) {
    program.memory.reserve_flat(0, footprint + kFlatDataSlack);
  }
  for (const auto& chunk : assembled.chunks) {
    program.memory.write_block(chunk.base, chunk.bytes);
  }
  program.entry = assembled.entry;
  program.statics =
      share_statics
          ? statics_for(image)
          : std::make_shared<const ProgramStatics>(assembled.predecoded);
  program.image = std::move(image);
  return program;
}

}  // namespace

LoadedProgram load_program(AssembledImage image) {
  return load_program_impl(std::move(image), /*share_statics=*/true);
}

LoadedProgram load_program(const isa::Assembled& assembled) {
  // Non-owning alias: the caller guarantees `assembled` outlives the
  // program. Statics are computed fresh — a borrowed address is no stable
  // cache key (and this path is the one-off, not the campaign loop).
  return load_program_impl(AssembledImage(AssembledImage{}, &assembled),
                           /*share_statics=*/false);
}

namespace {

/// Hand-built programs (tests construct LoadedProgram directly) may carry
/// no statics; materialise an empty-image fallback so the runner's raw
/// pointer is always valid.
void ensure_statics(LoadedProgram& program) {
  if (program.statics == nullptr) {
    program.statics =
        std::make_shared<const ProgramStatics>(program.predecoded());
  }
}

}  // namespace

RunResult CheckedSystem::run(LoadedProgram& program,
                             std::uint64_t max_instructions,
                             core::FaultInjector* faults,
                             core::UndoLog* undo_log) {
  ensure_statics(program);
  SystemRunner runner(config_, checker_, program, faults, undo_log);
  runner.loop(max_instructions, SystemRunner::kNoCapture);
  return runner.finalize();
}

SystemConfig apply_mode(SystemConfig config, SimMode mode) {
  switch (mode) {
    case SimMode::kBaseline:
      config.detection.enabled = false;
      break;
    case SimMode::kCheckpointOnly:
      config.detection.enabled = true;
      config.detection.simulate_checkers = false;
      break;
    case SimMode::kChecked:
      config.detection.enabled = true;
      config.detection.simulate_checkers = true;
      break;
  }
  return config;
}

RunResult run_job(const SimJob& job, LoadedProgram& program) {
  CheckedSystem system(apply_mode(job.config, job.mode), job.checker);
  return system.run(program, job.max_instructions, job.faults, job.undo_log);
}

RunResult run_job(const SimJob& job, const isa::Assembled& assembled) {
  LoadedProgram program = load_program(assembled);
  return run_job(job, program);
}

RunResult run_job(const SimJob& job, const AssembledImage& image) {
  LoadedProgram program = load_program(image);
  return run_job(job, program);
}

RunResult run_program(const SystemConfig& config,
                      const isa::Assembled& assembled,
                      std::uint64_t max_instructions,
                      core::FaultInjector* faults,
                      CheckerExec checker) {
  LoadedProgram program = load_program(assembled);
  CheckedSystem system(config, checker);
  return system.run(program, max_instructions, faults);
}

RunResult run_program(const SystemConfig& config, const AssembledImage& image,
                      std::uint64_t max_instructions,
                      core::FaultInjector* faults,
                      CheckerExec checker) {
  LoadedProgram program = load_program(image);
  CheckedSystem system(config, checker);
  return system.run(program, max_instructions, faults);
}

namespace {

std::unique_ptr<WarmState> capture_warm_state_loaded(
    const SimJob& job, LoadedProgram& program, std::uint64_t prefix_uops) {
  if (job.undo_log != nullptr) {
    throw std::logic_error(
        "capture_warm_state: warm-state forking does not support undo logs");
  }
  const SystemConfig config = apply_mode(job.config, job.mode);
  ensure_statics(program);
  SystemRunner runner(config, job.checker, program,
                      /*faults=*/nullptr, /*undo_log=*/nullptr);
  if (!runner.loop(job.max_instructions, prefix_uops)) {
    return nullptr;  // program ended before the prefix: no warm state.
  }
  return runner.capture(job.max_instructions, program);
}

}  // namespace

std::unique_ptr<WarmState> capture_warm_state(const SimJob& job,
                                              const isa::Assembled& assembled,
                                              std::uint64_t prefix_uops) {
  LoadedProgram program = load_program(assembled);
  return capture_warm_state_loaded(job, program, prefix_uops);
}

std::unique_ptr<WarmState> capture_warm_state(const SimJob& job,
                                              const AssembledImage& image,
                                              std::uint64_t prefix_uops) {
  LoadedProgram program = load_program(image);
  return capture_warm_state_loaded(job, program, prefix_uops);
}

RunResult run_job_from(const WarmState& warm, core::FaultInjector* faults) {
  SystemRunner runner(warm, faults);
  runner.loop(warm.max_instructions, SystemRunner::kNoCapture);
  return runner.finalize();
}

std::string_view fault_verdict_name(FaultVerdict verdict) {
  switch (verdict) {
    case FaultVerdict::kDetected: return "detected";
    case FaultVerdict::kMasked: return "masked";
    case FaultVerdict::kSilent: return "silent";
  }
  return "unknown";
}

FaultVerdict classify_fault_outcome(const RunResult& clean,
                                    const RunResult& faulty) {
  if (faulty.error_detected) return FaultVerdict::kDetected;
  const bool arch_equal =
      arch::first_register_difference(clean.final_state,
                                      faulty.final_state) == -1 &&
      clean.final_state.pc == faulty.final_state.pc &&
      clean.exit_trap == faulty.exit_trap;
  return arch_equal && clean.mem_digest == faulty.mem_digest
             ? FaultVerdict::kMasked
             : FaultVerdict::kSilent;
}

}  // namespace paradet::sim
