// The checker side of a CheckedSystem run, behind a produce/absorb API.
//
// CheckedSystem's commit loop *produces* sealed segments; this pipeline
// replays and absorbs them. Each segment's processing splits into two
// halves with very different concurrency properties:
//
//   * the *work* half — functional replay (core::CheckerEngine) — is pure
//     over the sealed segment and an immutable snapshot of the program's
//     start-of-run memory, so any number of segments can replay on any
//     thread in any order;
//   * the *absorb* half — the checker-core timing walk (shared L1I tags,
//     per-core L0 state), detection bookkeeping, segment release cycles,
//     the undo-log validated frontier — mutates state whose final value
//     depends on segment order, so it runs strictly in ordinal order.
//
// With checker.threads == 0 both halves run inline in produce(), exactly
// the pre-pipeline behaviour. With checker.threads > 0 a
// runtime::CheckerPool replays segments concurrently while a single
// absorber thread folds results back in ordinal order — so every
// statistic, detection event and release cycle is byte-identical at any
// thread count, and the main loop only ever blocks on backpressure
// (bounded job ring) or on release_cycle() for a segment index still in
// flight.
//
// Ticket batching: consecutive sealed segments are coalesced into one
// pool ticket (CheckerExec::batch segments per ticket; kAutoBatch grows
// each ticket until it carries ~kAutoBatchTargetInsts of replay work).
// A batch replays back-to-back on one worker — reusing that worker's
// engine, decode cache and per-item trace arenas — and is absorbed as an
// in-order fold over its items, so artifacts stay byte-identical at any
// batch size × thread count. Batching only changes how many segments
// share a handoff; it never reorders absorption. release_cycle() for a
// segment still sitting in the open (unpublished) batch flushes the batch
// early — a partial ticket — before waiting, so batches larger than the
// physical segment count cannot deadlock the producer.
//
// In both modes the checker fetches instructions from a pristine snapshot
// of the program memory taken at pipeline construction (main-core stores
// mutate the live memory mid-run; the real hardware's checkers fetch
// read-only code). The snapshot is a copy-on-write fork — construction
// freezes the program memory and shares its pages instead of deep-copying
// them — and SparseMemory::read_shared makes replay thread-safe without
// locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arch/memory.h"
#include "common/clock_domain.h"
#include "common/config.h"
#include "common/types.h"
#include "core/checker_engine.h"
#include "core/detection.h"
#include "core/load_store_log.h"
#include "core/recovery.h"
#include "runtime/checker_pool.h"
#include "sim/checker_timing.h"
#include "sim/uop_info.h"

namespace paradet::sim {

struct PipelineWarm;

class SegmentPipeline {
 public:
  /// Auto batch sizing (CheckerExec::kAutoBatch): a ticket is published
  /// once it accumulates this many replayed instructions. Calibrated
  /// against the per-ticket handoff cost — a few hundred nanoseconds of
  /// slot/publish/claim/absorb traffic, i.e. the replay-work equivalent
  /// of a few dozen instructions — so every handoff carries ≥ ~64× its
  /// own overhead even when segments seal every few dozen instructions.
  static constexpr std::uint64_t kAutoBatchTargetInsts = 4096;

  /// @param program_memory the program's functional memory *before any
  ///   instruction executes*. Frozen and forked here as the replay fetch
  ///   snapshot: the caller's memory becomes copy-on-write (its subsequent
  ///   stores land in private overlay pages) and the snapshot shares the
  ///   frozen image for free instead of deep-copying it.
  /// @param statics may be null; forwarded to the timing walk.
  /// @param checker threads == 0: inline replay; threads > 0: that many
  ///   replay workers plus one absorber thread, coalescing `checker.batch`
  ///   segments per ticket (kAutoBatch = adaptive).
  /// @param undo_log may be null; when given, validated segments' undo
  ///   records are discarded (on the producer thread) and the recovery
  ///   checkpoint is tracked on failure.
  SegmentPipeline(const SystemConfig& config,
                  arch::SparseMemory& program_memory,
                  const isa::PredecodedImage* predecoded,
                  const ProgramStatics* statics, CheckerExec checker,
                  core::UndoLog* undo_log);

  /// Warm-resume constructor: adopts the absorber state and producer
  /// bookkeeping exported by warm_state() and forks `fetch_snapshot`
  /// (already CoW-frozen) instead of freezing a live memory. The fresh
  /// worker pool issues tickets from zero: ordinals absorbed before the
  /// capture have no ticket (last_ticket_for_index_ restarts at "none"),
  /// so release_cycle() never waits on pre-capture work.
  SegmentPipeline(const SystemConfig& config, const PipelineWarm& warm,
                  const arch::SparseMemory& fetch_snapshot,
                  const isa::PredecodedImage* predecoded,
                  const ProgramStatics* statics, CheckerExec checker,
                  core::UndoLog* undo_log);

  SegmentPipeline(const SegmentPipeline&) = delete;
  SegmentPipeline& operator=(const SegmentPipeline&) = delete;

  /// Hands one sealed segment to the pipeline. Copies the segment (into a
  /// capacity-reusing job slot) when running concurrently, so the caller
  /// may release the log's physical buffer immediately after. Blocks only
  /// when the bounded job ring is full. `hook` may be null.
  void produce(const core::Segment& segment, Cycle seal_cycle, unsigned index,
               std::unique_ptr<core::CheckerFaultHook> hook);

  /// Cycle at which physical segment `index` is free for reuse (0 if the
  /// index never held a segment). Blocks until the index's last occupant
  /// has been absorbed — flushing the open batch first when that occupant
  /// is still staged in it — making the value identical to inline
  /// execution.
  Cycle release_cycle(unsigned index);

  /// Blocks until every produced segment has been absorbed (flushing any
  /// open batch) and applies the final undo-log frontier. Must be called
  /// before reading the getters below; the pipeline stays usable (a later
  /// produce() restarts work).
  void finish();

  // --- Results: valid on the producer thread after finish() --------------
  Cycle all_checked() const { return all_checked_; }
  bool error_detected() const { return controller_.error_detected(); }
  std::optional<core::DetectionEvent> first_error() const {
    return controller_.first_error();
  }
  Histogram delay_histogram_ns() const {
    return controller_.delay_histogram_ns();
  }
  const std::optional<core::RegisterCheckpoint>& recovery_checkpoint() const {
    return recovery_checkpoint_;
  }
  std::uint64_t shared_icache_hits() const { return shared_icache_.hits(); }
  std::uint64_t shared_icache_misses() const {
    return shared_icache_.misses();
  }
  unsigned threads() const { return checker_.threads; }

  /// Segments produced so far (the ordinal the next produce() expects).
  std::uint64_t produced() const { return produced_; }
  /// The immutable CoW-frozen fetch snapshot; warm-state capture forks it.
  const arch::SparseMemory& fetch_snapshot() const { return snapshot_; }
  /// Exports the order-dependent state for warm-state capture. Valid on
  /// the producer thread after finish().
  std::unique_ptr<PipelineWarm> warm_state() const;

 private:
  /// One staged segment inside a batch. The vectors inside segment/check
  /// reach steady-state capacity after the first ring lap, so per-segment
  /// processing allocates nothing.
  struct Job {
    core::Segment segment;
    std::unique_ptr<core::CheckerFaultHook> hook;
    core::CheckerEngine::Result check;
    Cycle seal_cycle = 0;
    unsigned index = 0;
  };

  /// One pool ticket: up to the batch limit of consecutive segments,
  /// replayed back-to-back on one worker and absorbed as an in-order
  /// fold. `items` grows to steady-state length and is reused by count —
  /// never cleared — to keep each Job's internal capacity across laps.
  struct BatchSlot {
    std::vector<Job> items;
    std::size_t count = 0;
  };

  /// The order-dependent half. Runs on the absorber thread (pool mode) or
  /// inline in produce(); calls are strictly in segment-ordinal order.
  void absorb(const core::Segment& segment, unsigned index, Cycle seal_cycle,
              core::CheckerEngine::Result& check);

  /// Publishes the open batch (if any) as ticket next_ticket_ and
  /// advances the ticket counter. Partial batches are fine: absorption
  /// order is segment-ordinal regardless of ticket boundaries.
  void flush_batch();

  /// True when the open batch has reached its size target and must be
  /// published before another segment is staged.
  bool batch_full(const BatchSlot& slot) const;

  /// Applies the absorber-published validated frontier to the undo log.
  /// Producer-thread only: the undo log is concurrently appended to by the
  /// commit loop, so the absorber must not touch it directly.
  void apply_validated_frontier();

  /// Builds the replay engines and (when checker_.threads > 0) the worker
  /// pool. Shared tail of both constructors.
  void start_workers(const isa::PredecodedImage* predecoded);

  const SystemConfig config_;
  const ProgramStatics* statics_;
  core::UndoLog* undo_log_;
  const CheckerExec checker_;
  /// Upper bound on segments per ticket. Fixed-batch mode: the requested
  /// batch verbatim. Auto mode: half the physical segments (≥ 1), so the
  /// in-flight window always holds several tickets and replay overlaps
  /// the producer instead of lock-stepping with it.
  const std::size_t max_batch_;

  /// Immutable start-of-run fetch snapshot shared by every engine.
  const arch::SparseMemory snapshot_;
  const ClockDomain checker_domain_;

  // Absorber-owned (inline: producer-owned) order-dependent state.
  SharedCheckerIcache shared_icache_;
  std::vector<CheckerCoreTiming> checker_cores_;
  core::DetectionController controller_;
  std::vector<Cycle> segment_release_;
  Cycle all_checked_ = 0;
  std::optional<core::RegisterCheckpoint> recovery_checkpoint_;

  /// Highest ordinal+1 whose undo records are provably dead. Written by
  /// the absorber, applied by the producer.
  std::atomic<std::uint64_t> validated_frontier_{0};

  // Producer-owned bookkeeping.
  std::uint64_t produced_ = 0;
  /// Ticket the next flush publishes. Tickets are a session-local dense
  /// counter — not derived from ordinals — because partial flushes make
  /// the segments-per-ticket ratio irregular.
  std::uint64_t next_ticket_ = 0;
  /// True while segments are staged in slot next_ticket_ % slots_ but the
  /// ticket has not been published yet.
  bool batch_open_ = false;
  /// Instructions staged in the open batch (auto sizing signal).
  std::uint64_t batch_insts_ = 0;
  /// Ordinal of the segment most recently produced into each physical
  /// index (-1: none yet); exported to warm state.
  std::vector<std::int64_t> last_ordinal_for_index_;
  /// Ticket carrying each physical index's most recent segment (-1: none
  /// this session); release_cycle() waits on it. Restarts at "none" on
  /// warm resume: pre-capture ordinals were absorbed before the capture.
  std::vector<std::int64_t> last_ticket_for_index_;

  /// One engine per worker (inline mode: one total), each with its own
  /// decode cache over the shared snapshot.
  std::vector<core::CheckerEngine> engines_;
  core::CheckerEngine::Result inline_check_;  ///< inline-mode trace arena.

  std::vector<BatchSlot> slots_;
  /// Declared last: its destructor joins the worker/absorber threads,
  /// which reference the members above.
  std::unique_ptr<runtime::CheckerPool> pool_;
};

}  // namespace paradet::sim
