// Output checks for the benchmark. Every check compares a simulator result
// against something that does not come from the simulator's own earlier
// output: the golden interpreter, the inline run at the same log size, a
// full re-simulation, or the campaign's own task count. A check returns an
// empty string when it passes and a one-line reason when it fails;
// CheckTally turns those into the attempted/failed counts the benchmark
// prints. The self-test (selftest.cc) feeds each check a broken input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/interpreter.h"
#include "arch/state.h"
#include "runtime/campaign.h"
#include "sim/checked_system.h"

namespace paradet::perfbench {

/// What the golden arch::Machine computed for one program image.
struct Golden {
  arch::Trap trap = arch::Trap::kNone;
  arch::ArchState state;
  std::uint64_t executed = 0;  ///< instructions retired, HALT not counted.
  std::uint64_t mem_digest = 0;
};

/// Runs a loaded program on the golden interpreter until HALT or `budget`
/// instructions: functional execution alone. `program.memory` is left
/// holding the final memory and `mem_digest` is not filled. When
/// `l1d_stream` is non-null, every data access is appended to it as
/// (address << 1) | is_store.
Golden golden_execute(sim::LoadedProgram& program, std::uint64_t budget,
                      std::vector<std::uint64_t>* l1d_stream = nullptr);

/// Loads `image`, runs it on the golden interpreter and digests the final
/// memory.
Golden golden_run(const sim::AssembledImage& image, std::uint64_t budget);

/// A run of a suite kernel: ends in HALT with the golden registers, pc,
/// memory digest and instruction count (the simulator counts the HALT),
/// flags no error and holds termination until every check has finished.
std::string check_against_golden(const sim::RunResult& result,
                                 const Golden& golden);

/// A parallel-replay run must serialize to the inline run's bytes.
std::string check_same_as_inline(const sim::RunResult& parallel,
                                 const std::string& inline_json);

/// A strike on an in-sphere site is never silent, and a detected strike
/// names its first error.
std::string check_strike(const sim::RunResult& clean,
                         const sim::RunResult& faulty);

/// A forked strike serializes to the bytes of its full re-simulation.
std::string check_fork_matches_full(const sim::RunResult& forked,
                                    const sim::RunResult& full);

/// The merged campaign artifact holds each of `tasks` strikes exactly once
/// and its canonical JSON round-trips through artifact_from_json unchanged.
std::string check_merged_artifact(const runtime::CampaignArtifact& merged,
                                  std::uint64_t tasks,
                                  const std::string& merged_json);

/// Attempted and failed operation counts, with the reason for each failure
/// (the first few are kept for the report).
class CheckTally {
 public:
  /// Counts one operation named `what`; `reason` empty means it passed.
  void record(const std::string& what, const std::string& reason);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  static constexpr std::size_t kKeptFailures = 20;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace paradet::perfbench
