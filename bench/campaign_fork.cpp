// Warm-state forking throughput benchmark: coverage runs per host second
// for a fault campaign with and without copy-on-write prefix forking
// (sim/capture_warm_state / sim::run_job_from).
//
// The strikes land in the late window of the run (the last ~15% of the
// clean run's uops) — the regime fault campaigns actually live in, where
// re-simulating the fault-free prefix for every strike dominates the
// campaign. With forking, the prefix is simulated once and every strike
// forks the frozen snapshot; the speedup approaches
// 1 / (tail_fraction + 1/trials).
//
// The two modes must agree byte-for-byte: every forked RunResult is
// compared (canonical JSON equality) against its full-run counterpart,
// and any mismatch exits 1 — this benchmark doubles as an end-to-end
// equivalence check at perf scale.
//
// Emits BENCH_campaign_fork.json (bench_json.h envelope) with
// coverage_runs_per_sec for both modes; the CI perf-smoke job runs it and
// gates on --min-speedup.
//
//   campaign_fork [--scale=X] [--benchmark=name]   default freqmine
//                 [--trials=N]                     default 24
//                 [--json=PATH]                    default BENCH_campaign_fork.json
//                 [--min-speedup=F]                exit 3 when forked/full
//                                                    falls below F
//                 [--checker-threads=N] [--checker-batch=N|auto]
//                                                  replay shape of every run
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "runtime/assembly_cache.h"
#include "runtime/serialize.h"

namespace {

using namespace paradet;

// Strikes hit the last ~15% of the clean run.
constexpr double kTailFraction = 0.15;

int run(int argc, char** argv) {
  auto options = bench::Options::parse(
      argc, argv, /*campaign=*/false,
      "\n          [--json=FILE] [--trials=N] [--min-speedup=F]");
  std::string json_path = "BENCH_campaign_fork.json";
  unsigned trials = 24;
  double min_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--trials=", 9) == 0) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(arg + 9, &end, 10);
      if (end == arg + 9 || *end != '\0' || parsed == 0) {
        std::fprintf(stderr, "%s: want --trials=N with N >= 1\n", arg);
        return 2;
      }
      trials = static_cast<unsigned>(parsed);
    } else if (std::strncmp(arg, "--min-speedup=", 14) == 0) {
      char* end = nullptr;
      min_speedup = std::strtod(arg + 14, &end);
      if (end == arg + 14 || *end != '\0' || min_speedup < 0) {
        std::fprintf(stderr, "%s: want --min-speedup=F with F >= 0\n", arg);
        return 2;
      }
    } else if (const int shared = bench::shared_flag_args(arg); shared > 0) {
      i += shared - 1;  // parsed by bench::Options / RuntimeOptions above.
    } else {
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n", arg);
      return 2;
    }
  }
  if (options.only.empty()) options.only = "freqmine";
  const auto suite = bench::suite_or_fail(options);
  const workloads::Workload& workload = suite.front();

  bench::print_header(
      "Fault-campaign throughput: warm-state forking vs full re-simulation",
      "forked tails must be byte-identical; speedup ~ 1/(tail + 1/trials)");

  const auto image = runtime::AssemblyCache::instance().get(workload);
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  job.checker = options.checker_exec();
  const sim::RunResult clean = sim::run_job(job, image);
  const std::uint64_t window_start = static_cast<std::uint64_t>(
      static_cast<double>(clean.uops) * (1.0 - kTailFraction));
  std::printf("%s: %llu uops clean; %u strikes in [%llu, %llu)\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(clean.uops), trials,
              static_cast<unsigned long long>(window_start),
              static_cast<unsigned long long>(clean.uops));

  // The same strike plan for both modes, fixed up front.
  std::vector<core::FaultSpec> specs(trials);
  SplitMix64 rng(0xF02C5EED);
  const std::uint64_t window =
      clean.uops > window_start ? clean.uops - window_start : 1;
  for (unsigned t = 0; t < trials; ++t) {
    core::FaultSpec& spec = specs[t];
    spec.site = (t % 2 == 0) ? core::FaultSite::kMainStoreValue
                             : core::FaultSite::kMainArchReg;
    spec.at_seq = window_start + rng.next_below(window);
    spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
    spec.bit = static_cast<unsigned>(rng.next_below(64));
  }

  using Clock = std::chrono::steady_clock;

  // Full mode: every strike re-simulates from cold.
  std::vector<sim::RunResult> full_results;
  full_results.reserve(trials);
  const auto full_start = Clock::now();
  for (const core::FaultSpec& spec : specs) {
    core::FaultInjector faults;
    faults.add(spec);
    sim::SimJob faulty = job;
    faulty.faults = &faults;
    full_results.push_back(sim::run_job(faulty, image));
  }
  const double full_seconds =
      std::chrono::duration<double>(Clock::now() - full_start).count();

  // Forked mode: one warm capture, then per-strike CoW tails. The capture
  // is inside the timed region — it is real campaign cost.
  std::vector<sim::RunResult> forked_results;
  forked_results.reserve(trials);
  unsigned fallbacks = 0;
  const auto forked_start = Clock::now();
  const auto warm = sim::capture_warm_state(job, image, window_start);
  for (const core::FaultSpec& spec : specs) {
    core::FaultInjector faults;
    faults.add(spec);
    if (warm != nullptr && warm->tail_safe(faults)) {
      forked_results.push_back(sim::run_job_from(*warm, &faults));
    } else {
      ++fallbacks;
      sim::SimJob faulty = job;
      faulty.faults = &faults;
      forked_results.push_back(sim::run_job(faulty, image));
    }
  }
  const double forked_seconds =
      std::chrono::duration<double>(Clock::now() - forked_start).count();

  // Equivalence gate: forking may only change wall-clock.
  unsigned mismatches = 0;
  for (unsigned t = 0; t < trials; ++t) {
    if (runtime::to_json(full_results[t]) !=
        runtime::to_json(forked_results[t])) {
      ++mismatches;
      std::fprintf(stderr, "strike %u: forked result differs from full run\n",
                   t);
    }
  }

  const double full_rps = full_seconds > 0 ? trials / full_seconds : 0.0;
  const double forked_rps = forked_seconds > 0 ? trials / forked_seconds : 0.0;
  const double speedup = full_rps > 0 ? forked_rps / full_rps : 0.0;
  std::printf("%-8s %8s %12s %18s\n", "mode", "strikes", "seconds",
              "coverage_runs/s");
  std::printf("%-8s %8u %12.3f %18.3f\n", "full", trials, full_seconds,
              full_rps);
  std::printf("%-8s %8u %12.3f %18.3f  # %u fallback(s)\n", "forked", trials,
              forked_seconds, forked_rps, fallbacks);
  std::printf("speedup: %.2fx; results %s\n", speedup,
              mismatches == 0 ? "byte-identical" : "DIVERGED");

  if (!json_path.empty()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("format").value(bench::kBenchFormatName);
    json.key("version").value(bench::kBenchFormatVersion);
    json.key("bench").value("campaign_fork");
    json.key("workload").value(workload.name);
    json.key("scale").value(options.scale);
    json.key("budget").value(bench::kInstructionBudget);
    json.key("trials").value(std::uint64_t{trials});
    json.key("tail_fraction").value(kTailFraction);
    json.key("results").begin_array();
    json.begin_object();
    json.key("mode").value("full");
    json.key("seconds").value(full_seconds);
    json.key("coverage_runs_per_sec").value(full_rps);
    json.end_object();
    json.begin_object();
    json.key("mode").value("forked");
    json.key("seconds").value(forked_seconds);
    json.key("coverage_runs_per_sec").value(forked_rps);
    json.key("fallbacks").value(std::uint64_t{fallbacks});
    json.end_object();
    json.end_array();
    json.key("summary").begin_object();
    json.key("coverage_runs_per_sec").value(forked_rps);
    json.key("coverage_runs_per_sec_full").value(full_rps);
    json.key("fork_speedup").value(speedup);
    json.key("byte_identical")
        .value(static_cast<std::uint64_t>(mismatches == 0 ? 1 : 0));
    json.end_object();
    json.end_object();
    bench::write_bench_file(json_path, json.str());
    std::printf("# wrote %s\n", json_path.c_str());
  }

  if (mismatches != 0) return 1;
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "fork speedup %.2fx below the --min-speedup=%.2f floor\n",
                 speedup, min_speedup);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
