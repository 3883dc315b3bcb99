// Self-test of the benchmark's output checks (checks.h): each check must
// pass a correct result and report a failure for a broken one. Exits 0
// when every case behaves, 1 otherwise.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <memory>
#include <string>

#include "checks.h"
#include "runtime/serialize.h"
#include "workloads/workloads.h"

namespace {

using namespace paradet;

int failures = 0;

void expect(bool should_pass, const char* name, const std::string& reason) {
  const bool passed = reason.empty();
  const bool ok = passed == should_pass;
  std::printf("%-4s %-44s %s\n", ok ? "ok" : "BAD", name,
              passed ? "(passes)" : reason.c_str());
  if (!ok) ++failures;
}

void expect_pass(const char* name, const std::string& reason) {
  expect(true, name, reason);
}

void expect_fail(const char* name, const std::string& reason) {
  expect(false, name, reason);
}

}  // namespace

int main() {
  workloads::Workload workload;
  if (!workloads::make_workload("bitcount", workloads::Scale{0.02},
                                workload)) {
    std::fprintf(stderr, "bitcount kernel missing\n");
    return 1;
  }
  const sim::AssembledImage image = std::make_shared<const isa::Assembled>(
      workloads::assemble_or_die(workload));
  constexpr std::uint64_t kBudget = 4'000'000;
  const perfbench::Golden golden = perfbench::golden_run(image, kBudget);
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.max_instructions = kBudget;
  const sim::RunResult good = sim::run_job(job, image);

  // Suite runs against the golden interpreter.
  expect_pass("correct run vs golden",
              perfbench::check_against_golden(good, golden));
  sim::RunResult bad = good;
  bad.final_state.x[7] ^= 1;
  expect_fail("flipped register", perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.final_state.pc += 4;
  expect_fail("moved pc", perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.mem_digest ^= 0x100;
  expect_fail("changed memory digest",
              perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.exit_trap = arch::Trap::kNone;
  expect_fail("run that did not HALT",
              perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.instructions -= 1;
  expect_fail("short instruction count",
              perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.error_detected = true;
  expect_fail("error flagged on a clean run",
              perfbench::check_against_golden(bad, golden));
  bad = good;
  bad.all_checked_cycle = bad.main_done_cycle - 1;
  expect_fail("terminated before checks finished",
              perfbench::check_against_golden(bad, golden));

  // Parallel replay against inline replay.
  const std::string inline_json = runtime::to_json(good);
  expect_pass("parallel equal to inline",
              perfbench::check_same_as_inline(good, inline_json));
  bad = good;
  bad.segments += 1;
  expect_fail("parallel diverging from inline",
              perfbench::check_same_as_inline(bad, inline_json));

  // Strike verdicts.
  expect_pass("masked strike", perfbench::check_strike(good, good));
  bad = good;
  bad.final_state.x[9] ^= 4;
  expect_fail("silent strike", perfbench::check_strike(good, bad));
  bad = good;
  bad.mem_digest ^= 1;
  expect_fail("memory-only silent strike", perfbench::check_strike(good, bad));
  bad = good;
  bad.error_detected = true;
  bad.first_error.reset();
  expect_fail("detected strike without first_error",
              perfbench::check_strike(good, bad));
  bad.first_error = core::DetectionEvent{};
  expect_pass("detected strike with first_error",
              perfbench::check_strike(good, bad));

  // Forked strike against its full re-simulation.
  expect_pass("fork equal to full run",
              perfbench::check_fork_matches_full(good, good));
  bad = good;
  bad.main_done_cycle += 1;
  expect_fail("fork diverging from full run",
              perfbench::check_fork_matches_full(bad, good));

  // Merged campaign artifact.
  runtime::CampaignArtifact merged;
  merged.tasks = 2;
  for (std::uint64_t i = 0; i < 2; ++i) {
    merged.runs.push_back(runtime::TaskRecord{i, good});
    merged.aggregate.absorb(good);
  }
  const std::string merged_json = runtime::to_json(merged);
  expect_pass("complete merged artifact",
              perfbench::check_merged_artifact(merged, 2, merged_json));
  runtime::CampaignArtifact missing = merged;
  missing.runs.pop_back();
  expect_fail("artifact missing a strike",
              perfbench::check_merged_artifact(missing, 2, merged_json));
  runtime::CampaignArtifact repeated = merged;
  repeated.runs[1].index = 0;
  expect_fail("artifact repeating a strike",
              perfbench::check_merged_artifact(repeated, 2, merged_json));
  std::string garbled = merged_json;
  garbled.replace(garbled.find("paradet-campaign"), 16, "paradet-campaigx");
  expect_fail("artifact JSON that does not parse",
              perfbench::check_merged_artifact(merged, 2, garbled));

  // The tally counts a failed check as a failed operation, by name.
  perfbench::CheckTally tally;
  tally.record("randacc/checked", "");
  tally.record("stream/checked", "register 7 differs");
  const bool tally_ok = tally.attempted() == 2 && tally.failed() == 1 &&
                        tally.failures().size() == 1 &&
                        tally.failures()[0].find("stream/checked") == 0;
  std::printf("%-4s %-44s\n", tally_ok ? "ok" : "BAD",
              "tally names the failed operation");
  if (!tally_ok) ++failures;

  std::printf("%s: %d case(s) misbehaved\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
