// Tests for concurrent checker replay: the runtime::CheckerPool ticket
// pipeline, the sim::SegmentPipeline produce/absorb split behind
// CheckedSystem, and the SimJob entry point. The load-bearing property is
// that every simulation artifact is *byte-identical* at any
// --checker-threads value (and any --jobs value): concurrency may only
// change wall-clock, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/interpreter.h"
#include "core/checker_engine.h"
#include "core/fault_injection.h"
#include "core/recovery.h"
#include "isa/assembler.h"
#include "runtime/checker_pool.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "runtime/sweep_campaign.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet {
namespace {

// A program with enough stores and loop structure to fill many segments,
// borrowed from the recovery tests: detection, undo logging and recovery
// all behave interestingly on it.
constexpr const char* kProgram = R"(
_start:
  li   t0, 400
  la   t1, data
  li   t2, 1
loop:
  ld   t3, 0(t1)
  add  t3, t3, t2
  sd   t3, 0(t1)
  addi t1, t1, 8
  andi t1, t1, 4095
  la   a0, data
  or   t1, t1, a0
  addi t2, t2, 1
  bne  t2, t0, loop
  la   t1, data
  li   t0, 512
  li   s4, 0
sum:
  ld   t3, 0(t1)
  add  s4, s4, t3
  addi t1, t1, 8
  addi t0, t0, -1
  bnez t0, sum
  la   t5, result
  sd   s4, 0(t5)
  halt
.org 0x100000
result:
.org 0x200000
data:
)";

isa::Assembled assemble_fixture() {
  auto assembled = isa::assemble(kProgram);
  EXPECT_TRUE(assembled.ok);
  return assembled;
}

// --- Determinism matrix ----------------------------------------------------

TEST(ConcurrentReplay, RunResultByteIdenticalAcrossThreadCounts) {
  const auto assembled = assemble_fixture();
  const SystemConfig config = SystemConfig::standard();
  const std::string inline_json = runtime::to_json(
      sim::run_program(config, assembled, 50000, nullptr, /*threads=*/0));
  for (const unsigned threads : {1u, 4u}) {
    const std::string concurrent_json = runtime::to_json(
        sim::run_program(config, assembled, 50000, nullptr, threads));
    EXPECT_EQ(inline_json, concurrent_json)
        << "results diverged at checker_threads=" << threads;
  }
}

TEST(ConcurrentReplay, WorkloadSweepInvariantAcrossThreadsAndJobs) {
  // The full matrix of the issue's determinism requirement: checker
  // threads {0, 1, 4} x host jobs {1, 8}, every cell's serialized
  // RunResult byte-identical to the inline single-job reference.
  const auto workload = workloads::make_bitcount(workloads::Scale{.factor = 0.2});
  constexpr std::uint64_t kBudget = 120000;
  const auto run_matrix = [&](unsigned jobs, unsigned threads) {
    runtime::ParallelRunner runner(jobs);
    runtime::SweepCampaign sweep(2, {workload}, /*seed=*/0xC0);
    const auto swept = sweep.run(
        runner, runtime::CampaignRunOptions{},
        [&](std::size_t point, std::size_t, const runtime::AssemblyCache::Image& image,
            std::uint64_t) {
          SystemConfig config = SystemConfig::standard();
          config.checker.freq_mhz = point == 0 ? 500 : 1000;
          return sim::run_program(config, image, kBudget, nullptr, threads);
        });
    std::string bytes;
    for (std::size_t p = 0; p < 2; ++p) {
      bytes += runtime::to_json(*swept.cell(p, 0));
      bytes += '\n';
    }
    return bytes;
  };
  const std::string reference = run_matrix(/*jobs=*/1, /*threads=*/0);
  for (const unsigned jobs : {1u, 8u}) {
    for (const unsigned threads : {0u, 1u, 4u}) {
      EXPECT_EQ(reference, run_matrix(jobs, threads))
          << "jobs=" << jobs << " threads=" << threads;
    }
  }
}

TEST(ConcurrentReplay, FaultDetectionInvariantAcrossThreadCounts) {
  // A mid-run store-value strike: the first-error ordinal, the detection
  // event, the recovery checkpoint and the surviving undo records must not
  // depend on the replay thread count — and recovery must still work.
  const auto assembled = assemble_fixture();
  const auto clean =
      sim::run_program(SystemConfig::standard(), assembled, 50000);

  struct FaultyRun {
    sim::RunResult result;
    std::vector<core::UndoRecord> undo;
  };
  const auto run_faulty = [&](unsigned threads) {
    core::FaultInjector faults;
    core::FaultSpec spec;
    spec.site = core::FaultSite::kMainStoreValue;
    spec.at_seq = 1500;
    spec.bit = 9;
    faults.add(spec);
    sim::LoadedProgram program = sim::load_program(assembled);
    sim::CheckedSystem system(SystemConfig::standard(), threads);
    core::UndoLog undo;
    FaultyRun run;
    run.result = system.run(program, 50000, &faults, &undo);
    run.undo = undo.records();
    return run;
  };

  const FaultyRun reference = run_faulty(0);
  ASSERT_TRUE(reference.result.error_detected);
  ASSERT_TRUE(reference.result.first_error.has_value());
  ASSERT_TRUE(reference.result.recovery_checkpoint.has_value());

  for (const unsigned threads : {1u, 4u}) {
    const FaultyRun concurrent = run_faulty(threads);
    EXPECT_EQ(runtime::to_json(reference.result),
              runtime::to_json(concurrent.result))
        << "faulty run diverged at checker_threads=" << threads;
    ASSERT_TRUE(concurrent.result.first_error.has_value());
    EXPECT_EQ(reference.result.first_error->segment_ordinal,
              concurrent.result.first_error->segment_ordinal);
    ASSERT_TRUE(concurrent.result.recovery_checkpoint.has_value());
    EXPECT_EQ(*reference.result.recovery_checkpoint,
              *concurrent.result.recovery_checkpoint);
    ASSERT_EQ(reference.undo.size(), concurrent.undo.size());
    for (std::size_t i = 0; i < reference.undo.size(); ++i) {
      EXPECT_EQ(reference.undo[i].segment_ordinal,
                concurrent.undo[i].segment_ordinal);
      EXPECT_EQ(reference.undo[i].addr, concurrent.undo[i].addr);
      EXPECT_EQ(reference.undo[i].old_value, concurrent.undo[i].old_value);
    }
  }

  // Rollback + replay from a concurrent run corrects the fault exactly as
  // the inline path does.
  core::FaultInjector faults;
  core::FaultSpec spec;
  spec.site = core::FaultSite::kMainStoreValue;
  spec.at_seq = 1500;
  spec.bit = 9;
  faults.add(spec);
  sim::LoadedProgram program = sim::load_program(assembled);
  sim::CheckedSystem system(SystemConfig::standard(), /*checker_threads=*/4);
  core::UndoLog undo;
  const auto faulty = system.run(program, 50000, &faults, &undo);
  ASSERT_TRUE(faulty.recovery_checkpoint.has_value());
  const auto outcome = core::recover_and_replay(
      program.memory, undo, faulty.first_error->segment_ordinal,
      *faulty.recovery_checkpoint, 100000, &program.predecoded());
  EXPECT_TRUE(outcome.recovered);
  EXPECT_EQ(arch::first_register_difference(outcome.final_state,
                                            clean.final_state),
            -1);
}

// --- SimJob entry point ----------------------------------------------------

TEST(SimJob, CheckedModeMatchesLegacyWrapper) {
  const auto assembled = assemble_fixture();
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = 50000;
  job.checker = 2;
  const auto via_job = sim::run_job(job, assembled);
  const auto via_wrapper =
      sim::run_program(SystemConfig::standard(), assembled, 50000);
  EXPECT_EQ(runtime::to_json(via_job), runtime::to_json(via_wrapper));
}

TEST(SimJob, ApplyModeSetsDetectionSwitches) {
  const SystemConfig base = SystemConfig::standard();
  const SystemConfig baseline = sim::apply_mode(base, sim::SimMode::kBaseline);
  EXPECT_FALSE(baseline.detection.enabled);
  const SystemConfig ckpt =
      sim::apply_mode(base, sim::SimMode::kCheckpointOnly);
  EXPECT_TRUE(ckpt.detection.enabled);
  EXPECT_FALSE(ckpt.detection.simulate_checkers);
  const SystemConfig checked = sim::apply_mode(
      SystemConfig::baseline_unchecked(), sim::SimMode::kChecked);
  EXPECT_TRUE(checked.detection.enabled);
  EXPECT_TRUE(checked.detection.simulate_checkers);
}

TEST(SimJob, BaselineModeDisablesDetection) {
  const auto assembled = assemble_fixture();
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kBaseline;
  job.max_instructions = 50000;
  const auto result = sim::run_job(job, assembled);
  EXPECT_EQ(result.segments, 0u);
  // Equivalent to flipping the master switch by hand.
  SystemConfig manual = SystemConfig::standard();
  manual.detection.enabled = false;
  EXPECT_EQ(runtime::to_json(result),
            runtime::to_json(sim::run_program(manual, assembled, 50000)));
}

// --- CheckerPool ------------------------------------------------------------

TEST(CheckerPool, AbsorbsStrictlyInTicketOrder) {
  constexpr std::uint64_t kTickets = 200;
  std::vector<std::uint64_t> inputs(kTickets, 0);
  std::vector<std::uint64_t> worked(kTickets, 0);
  std::vector<std::uint64_t> absorbed_order;
  runtime::CheckerPool pool(
      /*threads=*/4, /*capacity=*/3,
      [&](std::uint64_t ticket, unsigned worker) {
        // Jitter the work so completion order differs from ticket order.
        if ((ticket + worker) % 3 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        worked[ticket] = inputs[ticket] * inputs[ticket];
      },
      [&](std::uint64_t ticket) { absorbed_order.push_back(ticket); });
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    pool.wait_slot(t);
    inputs[t] = t + 1;
    pool.publish(t);
  }
  pool.drain();
  ASSERT_EQ(absorbed_order.size(), kTickets);
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    EXPECT_EQ(absorbed_order[t], t);
    EXPECT_EQ(worked[t], (t + 1) * (t + 1));
  }
}

TEST(CheckerPool, BackpressureBoundsInFlightTickets) {
  // With capacity 2 the producer may never be more than 2 tickets ahead of
  // the absorber, so even 4 workers can have at most 2 tickets in flight.
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<std::uint64_t> absorbed_count{0};
  constexpr std::size_t kCapacity = 2;
  runtime::CheckerPool pool(
      /*threads=*/4, kCapacity,
      [&](std::uint64_t, unsigned) {
        const int now = ++in_flight;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        --in_flight;
      },
      [&](std::uint64_t) { ++absorbed_count; });
  for (std::uint64_t t = 0; t < 40; ++t) {
    pool.wait_slot(t);
    EXPECT_LT(t, absorbed_count.load() + kCapacity);
    pool.publish(t);
  }
  pool.drain();
  EXPECT_LE(max_in_flight.load(), static_cast<int>(kCapacity));
  EXPECT_EQ(absorbed_count.load(), 40u);
}

TEST(CheckerPool, WorkerExceptionsSurfaceOnTheProducer) {
  runtime::CheckerPool pool(
      /*threads=*/2, /*capacity=*/2,
      [&](std::uint64_t ticket, unsigned) {
        if (ticket == 3) throw std::runtime_error("replay exploded");
      },
      [&](std::uint64_t) {});
  EXPECT_THROW(
      {
        for (std::uint64_t t = 0; t < 100; ++t) {
          pool.wait_slot(t);
          pool.publish(t);
        }
        pool.drain();
      },
      std::runtime_error);
}

TEST(CheckerPool, AbsorbExceptionsSurfaceOnTheProducer) {
  runtime::CheckerPool pool(
      /*threads=*/2, /*capacity=*/8, [](std::uint64_t, unsigned) {},
      [](std::uint64_t ticket) {
        if (ticket == 1) throw std::runtime_error("absorb exploded");
      });
  std::string message;
  try {
    // The absorber may fail before the last publish, so the failure can
    // surface from any producer call, not only drain().
    for (std::uint64_t t = 0; t < 4; ++t) {
      pool.wait_slot(t);
      pool.publish(t);
    }
    pool.drain();
  } catch (const std::runtime_error& error) {
    message = error.what();
  }
  EXPECT_EQ(message, "absorb exploded");
  // The failure is sticky: the pool refuses further tickets.
  EXPECT_THROW(pool.wait_slot(4), std::runtime_error);
  EXPECT_THROW(pool.publish(4), std::runtime_error);
  EXPECT_THROW(pool.drain(), std::runtime_error);
}

TEST(CheckerPool, DestructorAbsorbsUndrainedTicketsInOrder) {
  constexpr std::uint64_t kTickets = 8;
  std::vector<std::uint64_t> absorbed_order;
  {
    runtime::CheckerPool pool(
        /*threads=*/2, /*capacity=*/kTickets,
        [](std::uint64_t ticket, unsigned) {
          // Early tickets finish last, and all are still in flight when
          // the pool is destroyed.
          std::this_thread::sleep_for(
              std::chrono::microseconds(500 * (kTickets - ticket)));
        },
        [&](std::uint64_t ticket) { absorbed_order.push_back(ticket); });
    for (std::uint64_t t = 0; t < kTickets; ++t) {
      pool.wait_slot(t);
      pool.publish(t);
    }
    // No drain(): the destructor owes every published ticket its absorb.
  }
  ASSERT_EQ(absorbed_order.size(), kTickets);
  for (std::uint64_t t = 0; t < kTickets; ++t) {
    EXPECT_EQ(absorbed_order[t], t);
  }
}

TEST(CheckerPool, BoundedPolicy) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  // 0 requested always means inline, whatever the host.
  EXPECT_EQ(runtime::CheckerPool::bounded(0, 1), 0u);
  EXPECT_EQ(runtime::CheckerPool::bounded(0, 0), 0u);
  // The documented policy: min(requested, max(0, hw/jobs - 1)), with
  // jobs == 0 resolving to "all cores" exactly like ParallelRunner.
  for (const unsigned requested : {1u, 4u, 64u}) {
    for (const unsigned jobs : {0u, 1u, 2u, 64u}) {
      const unsigned granted = runtime::CheckerPool::bounded(requested, jobs);
      const unsigned effective_jobs = jobs == 0 ? hw : jobs;
      const unsigned per_run = hw / effective_jobs;
      const unsigned budget = per_run > 0 ? per_run - 1 : 0;
      EXPECT_EQ(granted, std::min(requested, budget))
          << "requested=" << requested << " jobs=" << jobs;
    }
  }
  // Saturated hosts (jobs >= cores) get inline replay: the campaign's own
  // worker pool already owns every core.
  EXPECT_EQ(runtime::CheckerPool::bounded(8, hw), 0u);
  EXPECT_EQ(runtime::CheckerPool::bounded(8, 65535), 0u);
}

// --- Trace arena ------------------------------------------------------------

TEST(CheckerEngine, TraceArenaAllocatesOnlyDuringWarmup) {
  // Build a register-only segment (no log entries) straight from the
  // golden interpreter, then replay it many times through one Result
  // arena: after the first growth the arena must never grow again.
  const char* kTight = R"(
_start:
  li  t0, 64
  li  t1, 0
loop:
  addi t1, t1, 3
  addi t0, t0, -1
  bnez t0, loop
  halt
)";
  auto assembled = isa::assemble(kTight);
  ASSERT_TRUE(assembled.ok);
  sim::LoadedProgram program = sim::load_program(assembled);

  arch::ArchState state;
  state.pc = program.entry;
  std::uint64_t cycle = 0;
  arch::MemoryDataPort port(program.memory, cycle);
  arch::Machine machine(program.memory, port, &program.predecoded());

  core::Segment segment;
  segment.start.state = state;
  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(machine.step(state).trap, arch::Trap::kNone);
  }
  segment.end.state = state;
  segment.instruction_count = kCount;

  core::CheckerEngine engine(program.memory, &program.predecoded());
  core::CheckerEngine::Result arena;
  for (int repeat = 0; repeat < 50; ++repeat) {
    engine.check_into(segment, nullptr, arena);
    ASSERT_TRUE(arena.outcome.passed);
  }
  EXPECT_EQ(engine.trace_arena_grows(), 1u);
  EXPECT_EQ(arena.trace.size(), kCount);
}

// --- Flag plumbing ----------------------------------------------------------

RuntimeOptions parse_args(std::vector<std::string> args) {
  args.insert(args.begin(), "test-binary");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return RuntimeOptions::from_args(static_cast<int>(argv.size()),
                                   argv.data(), /*campaign_flags=*/false);
}

TEST(CheckerThreadsFlag, ParsesAndDefaultsToInline) {
  EXPECT_EQ(parse_args({}).checker_threads, 0u);
  EXPECT_EQ(parse_args({"--checker-threads=0"}).checker_threads, 0u);
  EXPECT_EQ(parse_args({"--checker-threads=6"}).checker_threads, 6u);
  EXPECT_EQ(parse_args({"--checker-threads=65535"}).checker_threads, 65535u);
}

TEST(CheckerThreadsFlagDeathTest, MalformedValuesExit2) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(parse_args({"--checker-threads=-1"}),
              testing::ExitedWithCode(2), "checker-threads");
  EXPECT_EXIT(parse_args({"--checker-threads=abc"}),
              testing::ExitedWithCode(2), "checker-threads");
  EXPECT_EXIT(parse_args({"--checker-threads="}),
              testing::ExitedWithCode(2), "checker-threads");
  EXPECT_EXIT(parse_args({"--checker-threads=65536"}),
              testing::ExitedWithCode(2), "checker-threads");
  // Only the '=' form exists, like every other runtime flag.
  EXPECT_EXIT(parse_args({"--checker-threads", "4"}),
              testing::ExitedWithCode(2), "=");
}

}  // namespace
}  // namespace paradet
