// Timing model of the 3-wide out-of-order main core (Table I).
//
// The model is dependence-driven: micro-ops are presented in program order
// and each is assigned fetch / dispatch / issue / complete cycles from
// front-end bandwidth, i-cache behaviour, branch prediction, structural
// limits (ROB / IQ / LQ / SQ / functional units) and operand readiness.
// Commit cycles are computed by the caller (commit interacts with the
// load-store log and checkpointing) and fed back via retire(), which is
// how commit-side stalls create back-pressure: retire cycles bound ROB
// occupancy, which bounds dispatch, which stalls fetch.
//
// Wrong-path execution is folded into the redirect penalty (see DESIGN.md
// §6). Memory disambiguation defaults to a trained store-set model (loads
// issue freely, exact-match store-to-load forwarding); the conservative
// wait-for-all-older-store-addresses scheme is available as an ablation
// (MainCoreConfig::perfect_memory_disambiguation).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "isa/isa.h"
#include "mem/cache.h"
#include "sim/frontend.h"
#include "sim/uop_info.h"

namespace paradet::sim {

/// Everything the timing model needs to know about one micro-op.
/// (CtrlKind lives in sim/uop_info.h with the rest of the static
/// instruction metadata.)
/// Register indices live in [0, 2*kNumArchRegs): the upper half is a
/// second hardware thread context, used by the redundant-multithreading
/// baseline (the paradet scheme itself only uses context 0).
struct UopDesc {
  isa::ExecClass cls = isa::ExecClass::kIntAlu;
  UopRegs regs;
  Addr pc = 0;
  UopSeq seq = 0;
  /// First micro-op of its macro-op (fetch/decode slots are per macro-op
  /// for cracking, but each micro-op consumes a dispatch slot).
  bool first_of_macro = true;
  CtrlKind ctrl = CtrlKind::kNone;
  bool taken = false;  ///< resolved direction (conditional branches).
  Addr target = 0;     ///< resolved target (control ops).
  bool is_load = false;
  bool is_store = false;
  Addr mem_addr = 0;
  std::uint8_t mem_size = 0;
};

struct UopTiming {
  Cycle fetch = 0;
  Cycle dispatch = 0;
  Cycle issue = 0;
  Cycle complete = 0;
  /// Index of the integer ALU that executed this micro-op (-1 if another
  /// unit). Used by the hard-fault (stuck-at) injection model.
  int int_alu_unit = -1;
  bool store_forwarded = false;
  bool mispredicted = false;
};

class OoOCore {
 public:
  OoOCore(const SystemConfig& config, mem::Cache& l1i, mem::Cache& l1d);

  /// Rewiring copy for warm-state capture: duplicates `other`'s complete
  /// timing state (predictor, front-end cycles, issue slots, occupancy
  /// heaps, windows, counters) but reads through the given caches, which
  /// must themselves be copies of `other`'s.
  OoOCore(const OoOCore& other, mem::Cache& l1i, mem::Cache& l1d);

  /// Schedules the next micro-op in program order. Must be followed by
  /// exactly one retire() for this micro-op before the next schedule().
  UopTiming schedule(const UopDesc& desc);

  /// Informs the core of the micro-op's commit cycle (computed by the
  /// caller from complete + commit bandwidth + detection-side stalls).
  /// Commit cycles must be non-decreasing across retires (in-order
  /// commit); the incremental queue-occupancy tracking relies on it.
  void retire(Cycle commit_cycle);

  std::uint64_t branch_mispredicts() const { return mispredicts_; }
  std::uint64_t uops_scheduled() const { return scheduled_; }
  const MainCoreConfig& config() const { return config_; }

 private:
  /// The schedule()d micro-op awaiting its retire(): just what retire
  /// needs to file the queue-occupancy deadlines.
  struct InFlight {
    Cycle issue = 0;
    bool is_load = false;
    bool is_store = false;
  };

  struct StoreWindowEntry {
    Addr addr = 0;
    std::uint8_t size = 0;
    Cycle data_ready = 0;
    UopSeq seq = 0;
  };

  /// Per-cycle issue-slot accounting for a pool of pipelined units: up to
  /// `units` micro-ops may start per cycle. Unlike a greedy
  /// earliest-free-unit reservation, this correctly lets younger micro-ops
  /// issue in the idle cycles before an older op's (late) issue slot.
  class IssueSlots {
   public:
    explicit IssueSlots(unsigned units) : units_(units) {}

    /// Finds the first cycle >= `earliest` with a free slot, reserves it,
    /// and returns it. `slot_out` receives the slot index within the
    /// cycle (stable stand-in for "which unit", used by fault injection).
    Cycle reserve(Cycle earliest, int* slot_out = nullptr) {
      Cycle cycle = earliest;
      for (;;) {
        Slot& slot = table_[cycle & kMask];
        if (slot.cycle != cycle) {
          slot.cycle = cycle;
          slot.count = 1;
          if (slot_out != nullptr) *slot_out = 0;
          return cycle;
        }
        if (slot.count < units_) {
          if (slot_out != nullptr) *slot_out = static_cast<int>(slot.count);
          ++slot.count;
          return cycle;
        }
        ++cycle;
      }
    }

   private:
    static constexpr std::size_t kMask = 4095;
    struct Slot {
      Cycle cycle = kCycleNever;
      unsigned count = 0;
    };
    unsigned units_;
    std::array<Slot, kMask + 1> table_{};
  };

  /// Sorted multiset of cycle deadlines with lazy removal: entries whose
  /// deadline has passed the (monotonically rising) dispatch candidate are
  /// dropped from the front on the next query instead of eagerly. Backs
  /// the incremental IQ/LQ/SQ occupancy tracking in apply_queue_limits.
  ///
  /// Deliberately not a binary heap: the deadline streams the core
  /// produces are sorted (LQ/SQ hold commit cycles, which in-order commit
  /// makes non-decreasing) or nearly sorted (IQ issue cycles), so a flat
  /// sorted buffer inserted by scanning back from the tail does O(1)
  /// amortised work where priority_queue pays a branchy O(log n) sift on
  /// every push and pop — this structure was the single hottest item in
  /// a gprof profile of the suite's checked runs.
  class DeadlineQueue {
   public:
    bool empty() const { return head_ == data_.size(); }
    std::size_t size() const { return data_.size() - head_; }
    Cycle front() const { return data_[head_]; }

    void pop_front() {
      ++head_;
      // Reclaim the dead prefix once it dominates the buffer.
      if (head_ >= 1024 && head_ * 2 >= data_.size()) {
        data_.erase(data_.begin(),
                    data_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }

    void insert(Cycle value) {
      std::size_t pos = data_.size();
      data_.push_back(value);
      while (pos > head_ && data_[pos - 1] > value) {
        data_[pos] = data_[pos - 1];
        --pos;
      }
      data_[pos] = value;
    }

   private:
    std::vector<Cycle> data_;
    std::size_t head_ = 0;
  };

  static Cycle constrain_queue(DeadlineQueue& queue, unsigned entries,
                               Cycle dispatch);

  void fetch_bubble(Cycle from, unsigned cycles);
  Cycle apply_queue_limits(Cycle dispatch);
  void resolve_control(const UopDesc& desc, const UopTiming& timing,
                       UopTiming* out);

  MainCoreConfig config_;
  mem::Cache& l1i_;
  mem::Cache& l1d_;
  /// Pluggable front end (direction predictor + BTB + RAS); the default
  /// tournament configuration is byte-identical to the legacy
  /// TournamentPredictor.
  FrontEnd predictor_;

  // Front end.
  Cycle fetch_cycle_ = 0;
  unsigned fetched_in_cycle_ = 0;
  Cycle redirect_min_ = 0;
  Addr last_fetch_line_ = ~Addr{0};

  // Dispatch.
  Cycle last_dispatch_cycle_ = 0;
  unsigned dispatched_in_cycle_ = 0;

  // Execution resources. Pipelined throughput is modelled with issue
  // slots; unpipelined ops (div/sqrt) additionally serialise their class
  // through a busy-until cycle.
  Cycle reg_ready_[2 * kNumArchRegs] = {};
  IssueSlots int_slots_;
  IssueSlots fp_slots_;
  IssueSlots muldiv_slots_;
  Cycle fp_unpipelined_busy_ = 0;
  Cycle muldiv_unpipelined_busy_ = 0;

  // In-flight window (at most rob_entries micro-ops). Only the oldest
  // occupant's commit cycle is ever read (the full-ROB dispatch bound), so
  // the window is a fixed ring of commit cycles, not a deque of records.
  std::vector<Cycle> rob_commit_ring_;
  std::size_t rob_head_ = 0;   ///< index of the oldest occupant.
  std::size_t rob_count_ = 0;  ///< occupants; ring is full at rob_entries.
  // Queue-occupancy deadlines of in-flight micro-ops: issue cycles of
  // every micro-op (IQ) and commit cycles of loads (LQ) / stores (SQ).
  // Entries evicted from the ROB ring always have commit <= every later
  // dispatch candidate (commit cycles are monotone and a full ROB bounds
  // dispatch below by oldest commit + 1), so their stale queue entries
  // drain before they could ever be counted — the queues stay exactly
  // equivalent to rescanning the in-flight window.
  DeadlineQueue iq_issue_deadlines_;
  DeadlineQueue lq_commit_deadlines_;
  DeadlineQueue sq_commit_deadlines_;
  Cycle last_retired_commit_ = 0;
  // Recent stores for forwarding/disambiguation (at most sq_entries), a
  // fixed ring scanned youngest-first on every load — contiguous storage,
  // not a deque, because the scan is on the load hot path.
  std::vector<StoreWindowEntry> store_ring_;
  std::size_t store_head_ = 0;   ///< index of the oldest store.
  std::size_t store_count_ = 0;  ///< occupants; ring is full at sq_entries.
  Cycle last_store_agu_ = 0;

  // Pending schedule()d micro-op awaiting retire().
  bool pending_valid_ = false;
  InFlight pending_;

  std::uint64_t mispredicts_ = 0;
  std::uint64_t scheduled_ = 0;
};

}  // namespace paradet::sim
