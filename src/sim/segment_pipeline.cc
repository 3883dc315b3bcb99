#include "sim/segment_pipeline.h"

#include <algorithm>
#include <cassert>

#include "sim/warm_state.h"

namespace paradet::sim {

namespace {

/// Segments-per-ticket ceiling for the given exec request. Fixed batches
/// are taken verbatim (release_cycle()'s partial flush keeps even
/// batch > segments deadlock-free); auto mode caps at segments/2 so the
/// ring always holds ≥ 2 tickets' worth of work in flight.
std::size_t resolve_max_batch(const CheckerExec& checker,
                              unsigned segments) {
  if (checker.batch != CheckerExec::kAutoBatch) return checker.batch;
  return std::max<std::size_t>(1, segments / 2);
}

}  // namespace

SegmentPipeline::SegmentPipeline(const SystemConfig& config,
                                 arch::SparseMemory& program_memory,
                                 const isa::PredecodedImage* predecoded,
                                 const ProgramStatics* statics,
                                 CheckerExec checker,
                                 core::UndoLog* undo_log)
    : config_(config),
      statics_(statics),
      undo_log_(undo_log),
      checker_(checker),
      max_batch_(resolve_max_batch(checker, config.log.segments)),
      snapshot_(program_memory.fork()),
      checker_domain_(config.checker.freq_mhz, config.main_core.freq_mhz),
      shared_icache_(config.checker.l1_icache_bytes),
      controller_(config.main_core.freq_mhz),
      segment_release_(config.log.segments, 0),
      last_ordinal_for_index_(config.log.segments, -1),
      last_ticket_for_index_(config.log.segments, -1) {
  // Checker-visible latency of a shared-L1I miss (served by the main L2).
  const unsigned l2_checker_cycles = static_cast<unsigned>(
      checker_domain_.to_local(config.l2.hit_latency) + 1);
  checker_cores_.reserve(config.checker.num_cores);
  for (unsigned i = 0; i < config.checker.num_cores; ++i) {
    checker_cores_.emplace_back(config.checker, shared_icache_,
                                l2_checker_cycles);
  }
  start_workers(predecoded);
}

SegmentPipeline::SegmentPipeline(const SystemConfig& config,
                                 const PipelineWarm& warm,
                                 const arch::SparseMemory& fetch_snapshot,
                                 const isa::PredecodedImage* predecoded,
                                 const ProgramStatics* statics,
                                 CheckerExec checker,
                                 core::UndoLog* undo_log)
    : config_(config),
      statics_(statics),
      undo_log_(undo_log),
      checker_(checker),
      max_batch_(resolve_max_batch(checker, config.log.segments)),
      snapshot_(fetch_snapshot.fork()),
      checker_domain_(config.checker.freq_mhz, config.main_core.freq_mhz),
      shared_icache_(warm.shared_icache),
      controller_(warm.controller),
      segment_release_(warm.segment_release),
      all_checked_(warm.all_checked),
      recovery_checkpoint_(warm.recovery_checkpoint),
      validated_frontier_(warm.validated_frontier),
      produced_(warm.produced),
      last_ordinal_for_index_(warm.last_ordinal_for_index),
      last_ticket_for_index_(config.log.segments, -1) {
  checker_cores_.reserve(warm.checker_cores.size());
  for (const auto& core : warm.checker_cores) {
    checker_cores_.emplace_back(core, shared_icache_);
  }
  start_workers(predecoded);
}

void SegmentPipeline::start_workers(const isa::PredecodedImage* predecoded) {
  const unsigned engines = std::max(1u, checker_.threads);
  engines_.reserve(engines);
  for (unsigned i = 0; i < engines; ++i) {
    engines_.emplace_back(snapshot_, predecoded, /*shared_imem=*/true);
  }

  if (checker_.threads > 0) {
    // One batch slot per physical segment plus one: even at batch size 1
    // the producer can stage the next ticket while every checker core's
    // worth of segments is in flight, and release_cycle()'s backpressure
    // (a physical index must absorb before reuse) bounds the real
    // in-flight work far below the ring size at larger batches.
    slots_.resize(config_.log.segments + 1);
    pool_ = std::make_unique<runtime::CheckerPool>(
        checker_.threads, slots_.size(),
        [this](std::uint64_t ticket, unsigned worker) {
          // One worker replays the whole batch back-to-back: the engine's
          // decode cache and each item's trace arena stay hot across the
          // batch instead of being re-warmed per handoff.
          BatchSlot& slot = slots_[ticket % slots_.size()];
          for (std::size_t i = 0; i < slot.count; ++i) {
            Job& job = slot.items[i];
            engines_[worker].check_into(job.segment, job.hook.get(),
                                        job.check);
          }
        },
        [this](std::uint64_t ticket) {
          // Fold the batch strictly in segment-ordinal order; ticket
          // boundaries are invisible to the absorbed state.
          BatchSlot& slot = slots_[ticket % slots_.size()];
          for (std::size_t i = 0; i < slot.count; ++i) {
            Job& job = slot.items[i];
            absorb(job.segment, job.index, job.seal_cycle, job.check);
          }
        });
  }
}

std::unique_ptr<PipelineWarm> SegmentPipeline::warm_state() const {
  assert(!batch_open_);  // finish() published and drained everything.
  auto warm = std::make_unique<PipelineWarm>(shared_icache_, controller_);
  warm->checker_cores.reserve(checker_cores_.size());
  for (const auto& core : checker_cores_) {
    warm->checker_cores.emplace_back(core, warm->shared_icache);
  }
  warm->segment_release = segment_release_;
  warm->all_checked = all_checked_;
  warm->recovery_checkpoint = recovery_checkpoint_;
  warm->validated_frontier =
      validated_frontier_.load(std::memory_order_acquire);
  warm->produced = produced_;
  warm->last_ordinal_for_index = last_ordinal_for_index_;
  return warm;
}

bool SegmentPipeline::batch_full(const BatchSlot& slot) const {
  if (slot.count >= max_batch_) return true;
  // Auto mode also flushes once the staged replay work amortises the
  // handoff, whichever comes first.
  return checker_.batch == CheckerExec::kAutoBatch &&
         batch_insts_ >= kAutoBatchTargetInsts;
}

void SegmentPipeline::flush_batch() {
  assert(batch_open_);
  pool_->publish(next_ticket_);
  ++next_ticket_;
  batch_open_ = false;
  batch_insts_ = 0;
}

void SegmentPipeline::produce(const core::Segment& segment, Cycle seal_cycle,
                              unsigned index,
                              std::unique_ptr<core::CheckerFaultHook> hook) {
  assert(index < segment_release_.size());
  const std::uint64_t ordinal = produced_++;
  last_ordinal_for_index_[index] = static_cast<std::int64_t>(ordinal);
  assert(segment.ordinal == ordinal);

  if (pool_ == nullptr) {
    engines_[0].check_into(segment, hook.get(), inline_check_);
    absorb(segment, index, seal_cycle, inline_check_);
    apply_validated_frontier();
    return;
  }

  apply_validated_frontier();
  if (!batch_open_) {
    // Opening a new batch claims ring slot next_ticket_ % slots_; the
    // producer blocks here only when the whole ring is in flight.
    pool_->wait_slot(next_ticket_);
    slots_[next_ticket_ % slots_.size()].count = 0;
    batch_open_ = true;
    batch_insts_ = 0;
  }
  BatchSlot& slot = slots_[next_ticket_ % slots_.size()];
  if (slot.items.size() <= slot.count) slot.items.emplace_back();
  Job& job = slot.items[slot.count];
  job.segment = segment;  // copy-assign reuses the slot's entry capacity.
  job.seal_cycle = seal_cycle;
  job.index = index;
  job.hook = std::move(hook);
  ++slot.count;
  batch_insts_ += segment.instruction_count;
  last_ticket_for_index_[index] = static_cast<std::int64_t>(next_ticket_);
  if (batch_full(slot)) flush_batch();
}

Cycle SegmentPipeline::release_cycle(unsigned index) {
  assert(index < segment_release_.size());
  const std::int64_t last = last_ticket_for_index_[index];
  // -1: the index's last occupant (if any) was absorbed before the warm
  // capture this pipeline resumed from; its release cycle is final.
  if (pool_ != nullptr && last >= 0) {
    // The awaited segment may still be staged in the open batch — publish
    // the partial ticket first, or the wait below would deadlock.
    if (batch_open_ &&
        static_cast<std::uint64_t>(last) == next_ticket_) {
      flush_batch();
    }
    pool_->wait_absorbed(static_cast<std::uint64_t>(last));
  }
  return segment_release_[index];
}

void SegmentPipeline::finish() {
  if (pool_ != nullptr) {
    if (batch_open_) flush_batch();
    pool_->drain();
  }
  apply_validated_frontier();
}

void SegmentPipeline::absorb(const core::Segment& segment, unsigned index,
                             Cycle seal_cycle,
                             core::CheckerEngine::Result& check) {
  Cycle completion;
  if (config_.detection.simulate_checkers) {
    CheckerCoreTiming& core_timing = checker_cores_[index];
    const auto walk = core_timing.walk(check.trace, segment.entries.size(),
                                       statics_);
    const Cycle start =
        std::max(segment_release_[index],
                 seal_cycle + config_.main_core.checkpoint_latency_cycles);
    completion = start + checker_domain_.to_global(walk.local_cycles);
    for (std::size_t i = 0; i < walk.entry_check_cycles.size(); ++i) {
      controller_.record_entry_checked(
          segment.entries[i].commit_cycle,
          start + checker_domain_.to_global(walk.entry_check_cycles[i]));
    }
    if (!check.outcome.passed) {
      check.outcome.event.detected_at = completion;
      check.outcome.event.segment_index = index;
    }
  } else {
    completion = seal_cycle;
  }
  segment_release_[index] = completion;
  all_checked_ = std::max(all_checked_, completion);
  check.outcome.event.segment_ordinal = segment.ordinal;
  controller_.report(check.outcome, segment.ordinal);
  if (undo_log_ != nullptr) {
    if (check.outcome.passed && !controller_.error_detected()) {
      // Strong induction frontier: everything up to and including this
      // segment is proven; its undo data is dead. Published rather than
      // applied: the undo log lives on the producer thread.
      validated_frontier_.store(segment.ordinal + 1,
                                std::memory_order_release);
    } else if (!check.outcome.passed &&
               controller_.first_error().has_value() &&
               controller_.first_error()->segment_ordinal ==
                   segment.ordinal) {
      recovery_checkpoint_ = segment.start;
    }
  }
}

void SegmentPipeline::apply_validated_frontier() {
  if (undo_log_ == nullptr) return;
  const std::uint64_t frontier =
      validated_frontier_.load(std::memory_order_acquire);
  if (frontier > 0) undo_log_->discard_below(frontier);
}

}  // namespace paradet::sim
