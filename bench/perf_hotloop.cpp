// Hot-loop throughput benchmark: simulated MIPS (million simulated
// instructions per host second) for unchecked-baseline and checked
// execution across the Table II suite. This is the simulator's own speed,
// not the modelled hardware's — the number every figure reproduction and
// coverage campaign is bottlenecked by.
//
// Emits BENCH_hotloop.json (see bench_json.h for the envelope) so the
// repo records a perf trajectory per change; scripts/record_bench.sh
// regenerates the committed baseline and the CI perf-smoke job compares
// against it.
//
//   perf_hotloop [--scale=X] [--benchmark=name] [--repeat=N]
//                [--checker-threads=N]    replay workers for the
//                                           checked-parallel mode
//                                           (default 4, host-clamped)
//                [--checker-batch=N|auto] sealed segments coalesced per
//                                           replay ticket (default auto)
//                [--json=PATH]            default BENCH_hotloop.json
//                [--compare=PATH]         exit 3 when the headline MIPS
//                [--max-regress=F]          drops more than F (default
//                                           0.30) below PATH's summary;
//                                           headline is parallel MIPS when
//                                           both sides ran real workers,
//                                           else inline checked MIPS
//                [--crossover]            sweep the log size down 2x/4x
//                                           (finer replay granularity) and
//                                           report parallel_over_checked
//                                           per point — the batching
//                                           crossover curve
//                [--verify-predecode]     exit 1 unless every workload
//                                           runs >= 99% of instructions
//                                           from the predecoded image
//                [--verify-way-hint]      exit 1 unless the L1 MRU-way
//                                           hint serves >= 80% of hits on
//                                           every workload (mem/cache.h)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/interpreter.h"
#include "bench_json.h"
#include "bench_util.h"
#include "runtime/assembly_cache.h"
#include "runtime/checker_pool.h"
#include "sim/checked_system.h"
#include "sim/warm_state.h"

namespace {

using namespace paradet;

constexpr double kMinPredecodedFraction = 0.99;
constexpr double kMinWayHintRate = 0.80;

struct ModeRun {
  std::string workload;
  const char* mode = "";
  std::uint64_t instructions = 0;
  std::uint64_t segments = 0;  ///< sealed log segments (0 for baseline).
  double seconds = 0;
  double mips() const {
    return seconds > 0 ? instructions / seconds / 1e6 : 0.0;
  }
};

double total_mips(const std::vector<ModeRun>& runs, const char* mode) {
  double instructions = 0;
  double seconds = 0;
  for (const auto& run : runs) {
    if (std::strcmp(run.mode, mode) != 0) continue;
    instructions += static_cast<double>(run.instructions);
    seconds += run.seconds;
  }
  return seconds > 0 ? instructions / seconds / 1e6 : 0.0;
}

/// Runs one workload image under `config` `repeat` times, accumulating
/// simulated instructions and wall time.
ModeRun time_mode(const std::string& name, const char* mode,
                  const SystemConfig& config, const sim::AssembledImage& image,
                  unsigned repeat, CheckerExec checker = {}) {
  ModeRun run;
  run.workload = name;
  run.mode = mode;
  for (unsigned r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const sim::RunResult result =
        sim::run_program(config, image, bench::kInstructionBudget, nullptr,
                         checker);
    const auto stop = std::chrono::steady_clock::now();
    run.instructions += result.instructions;
    run.segments += result.segments;
    run.seconds += std::chrono::duration<double>(stop - start).count();
  }
  return run;
}

double total_insts_per_segment(const std::vector<ModeRun>& runs,
                               const char* mode) {
  double instructions = 0;
  double segments = 0;
  for (const auto& run : runs) {
    if (std::strcmp(run.mode, mode) != 0) continue;
    instructions += static_cast<double>(run.instructions);
    segments += static_cast<double>(run.segments);
  }
  return segments > 0 ? instructions / segments : 0.0;
}

/// Golden-interpreter run that counts how many instruction fetches were
/// served by the predecoded image vs the per-pc fallback map. Catches a
/// silently mis-built image (wrong base, wrong span, invalid slots): the
/// simulation would still be correct, just quietly slow.
bool verify_predecode(const workloads::Workload& workload,
                      const sim::AssembledImage& image) {
  sim::LoadedProgram program = sim::load_program(image);
  arch::ArchState state;
  state.pc = program.entry;
  std::uint64_t cycle = 0;
  arch::MemoryDataPort port(program.memory, cycle);
  arch::Machine machine(program.memory, port, &program.predecoded());
  machine.run(state, bench::kInstructionBudget);
  const auto& decode = machine.decode_cache();
  const std::uint64_t total =
      decode.predecoded_hits() + decode.fallback_decodes();
  const double fraction =
      total == 0 ? 0.0
                 : static_cast<double>(decode.predecoded_hits()) /
                       static_cast<double>(total);
  std::printf("%-14s predecoded %llu / %llu fetches (%.4f)\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(decode.predecoded_hits()),
              static_cast<unsigned long long>(total), fraction);
  if (fraction < kMinPredecodedFraction) {
    std::fprintf(stderr,
                 "%s: only %.2f%% of instruction fetches hit the predecoded "
                 "image (want >= %.0f%%) — the fast path regressed\n",
                 workload.name.c_str(), fraction * 100,
                 kMinPredecodedFraction * 100);
    return false;
  }
  return true;
}

/// Checked run whose cache state we can inspect afterwards: a full run
/// sizes the capture point, then a warm-state capture at half the
/// micro-op count exposes the timing caches (WarmState::machine) so the
/// MRU-way hint rate can be read off the mem::Cache counters directly —
/// the hint stats deliberately stay out of the serialized
/// RunResult::counters (artifact bytes are frozen). Returns false (and
/// diagnoses) when the workload could not be measured; otherwise
/// accumulates into the suite-wide totals. The gate is on the aggregate:
/// individual workloads (stream: several interleaved arrays sharing sets)
/// legitimately defeat MRU-way prediction, and the hint is a throughput
/// optimisation, not a per-workload invariant.
bool measure_way_hint(const workloads::Workload& workload,
                      const sim::AssembledImage& image,
                      std::uint64_t* total_hits,
                      std::uint64_t* total_hint_hits) {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.mode = sim::SimMode::kChecked;
  job.max_instructions = bench::kInstructionBudget;
  const sim::RunResult result = sim::run_job(job, image);
  if (result.uops < 2) {
    std::fprintf(stderr, "%s: ran no micro-ops; cannot measure hint rate\n",
                 workload.name.c_str());
    return false;
  }
  const auto warm = sim::capture_warm_state(job, image, result.uops / 2);
  if (warm == nullptr) {
    std::fprintf(stderr, "%s: warm-state capture failed\n",
                 workload.name.c_str());
    return false;
  }
  const std::uint64_t hits =
      warm->machine.l1i.hits() + warm->machine.l1d.hits();
  const std::uint64_t hint_hits =
      warm->machine.l1i.way_hint_hits() + warm->machine.l1d.way_hint_hits();
  const double rate =
      hits == 0 ? 0.0
                : static_cast<double>(hint_hits) / static_cast<double>(hits);
  std::printf("%-14s way-hint %llu / %llu L1 hits (%.4f)\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(hint_hits),
              static_cast<unsigned long long>(hits), rate);
  *total_hits += hits;
  *total_hint_hits += hint_hits;
  return true;
}

int run(int argc, char** argv) {
  const auto options = bench::Options::parse(
      argc, argv, /*campaign=*/false,
      "\n          [--json=FILE] [--compare=BASELINE.json]"
      " [--max-regress=F]\n          [--repeat=N] [--crossover]"
      " [--verify-predecode] [--verify-way-hint]");
  std::string json_path = "BENCH_hotloop.json";
  std::string compare_path;
  double max_regress = 0.30;
  unsigned repeat = 1;
  bool verify = false;
  bool verify_hint = false;
  bool crossover = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--compare=", 10) == 0) {
      compare_path = arg + 10;
    } else if (std::strncmp(arg, "--max-regress=", 14) == 0) {
      char* end = nullptr;
      max_regress = std::strtod(arg + 14, &end);
      if (end == arg + 14 || *end != '\0' || max_regress < 0 ||
          max_regress >= 1) {
        std::fprintf(stderr, "%s: want --max-regress=F with 0 <= F < 1\n",
                     arg);
        return 2;
      }
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(arg + 9, &end, 10);
      if (end == arg + 9 || *end != '\0' || parsed == 0) {
        std::fprintf(stderr, "%s: want --repeat=N with N >= 1\n", arg);
        return 2;
      }
      repeat = static_cast<unsigned>(parsed);
    } else if (std::strcmp(arg, "--verify-predecode") == 0) {
      verify = true;
    } else if (std::strcmp(arg, "--verify-way-hint") == 0) {
      verify_hint = true;
    } else if (std::strcmp(arg, "--crossover") == 0) {
      crossover = true;
    } else if (const int shared = bench::shared_flag_args(arg); shared > 0) {
      i += shared - 1;  // parsed by bench::Options / RuntimeOptions above.
    } else {
      // A misspelled or space-form flag silently ignored here could mean
      // the CI regression gate never ran — reject loudly instead.
      std::fprintf(stderr, "unknown argument '%s' (see --help)\n", arg);
      return 2;
    }
  }

  const std::vector<workloads::Workload> suite = bench::suite_or_fail(options);

  if (verify) {
    bool all_fast = true;
    for (const auto& workload : suite) {
      const auto image = runtime::AssemblyCache::instance().get(workload);
      all_fast = verify_predecode(workload, image) && all_fast;
    }
    if (!all_fast) return 1;
    std::printf("predecode coverage ok (>= %.0f%% on every workload)\n",
                kMinPredecodedFraction * 100);
    return 0;
  }

  if (verify_hint) {
    bool all_measured = true;
    std::uint64_t total_hits = 0;
    std::uint64_t total_hint_hits = 0;
    for (const auto& workload : suite) {
      const auto image = runtime::AssemblyCache::instance().get(workload);
      all_measured = measure_way_hint(workload, image, &total_hits,
                                      &total_hint_hits) &&
                     all_measured;
    }
    if (!all_measured) return 1;
    const double rate = total_hits == 0
                            ? 0.0
                            : static_cast<double>(total_hint_hits) /
                                  static_cast<double>(total_hits);
    if (rate < kMinWayHintRate) {
      std::fprintf(stderr,
                   "MRU-way hint served only %.2f%% of L1 hits across the "
                   "suite (want >= %.0f%%) — the hot-path lookup regressed "
                   "to the associative scan\n",
                   rate * 100, kMinWayHintRate * 100);
      return 1;
    }
    std::printf("way-hint rate ok (%.2f%% of L1 hits across the suite, "
                "floor %.0f%%)\n",
                rate * 100, kMinWayHintRate * 100);
    return 0;
  }

  bench::print_header("Hot-loop throughput (simulated MIPS)",
                      "simulator speed, not modelled hardware");
  const SystemConfig checked = SystemConfig::standard();
  const SystemConfig baseline = SystemConfig::baseline_unchecked();

  // Concurrent-replay worker count for the checked-parallel mode: the
  // requested --checker-threads (default 4), clamped to what this host can
  // actually run alongside the producer thread. On a host too small for
  // any worker the mode degrades to inline replay (the rows still appear,
  // with parallel_over_checked ~= 1).
  const unsigned parallel_threads = runtime::CheckerPool::bounded(
      options.runtime.checker_threads != 0 ? options.runtime.checker_threads
                                           : 4,
      /*host_jobs=*/1);
  // Full execution shape of the checked-parallel mode: host-clamped
  // workers plus the requested ticket batch (default auto, which sizes
  // tickets from accumulated replay work — see sim/segment_pipeline.h).
  const CheckerExec parallel_exec(parallel_threads,
                                  options.runtime.checker_batch);

  if (crossover) {
    // Crossover sweep: shrink the log to halve, then quarter, the replay
    // granularity (segment size scales with total_bytes) and measure the
    // parallel-over-inline ratio at each point. Before ticket batching the
    // ratio collapsed below 1.0 as segments got finer — per-segment
    // handoff stopped amortising; with batching the auto sizer coalesces
    // more segments per ticket and the ratio should hold >= 1.0 across
    // the sweep (given real workers).
    struct CrossoverPoint {
      std::uint64_t log_bytes = 0;
      double insts_per_segment = 0;
      double checked_mips = 0;
      double parallel_mips = 0;
      double ratio() const {
        return checked_mips > 0 ? parallel_mips / checked_mips : 0.0;
      }
    };
    std::vector<CrossoverPoint> points;
    std::printf("%-10s %16s %12s %14s %10s\n", "log_bytes", "insts/segment",
                "checked", "ckd-parallel", "ratio");
    for (const unsigned divisor : {1u, 2u, 4u}) {
      SystemConfig config = checked;
      config.log.total_bytes = config.log.total_bytes / divisor;
      std::vector<ModeRun> point_runs;
      for (const auto& workload : suite) {
        const auto image = runtime::AssemblyCache::instance().get(workload);
        point_runs.push_back(
            time_mode(workload.name, "checked", config, image, repeat));
        point_runs.push_back(time_mode(workload.name, "checked-parallel",
                                       config, image, repeat, parallel_exec));
      }
      CrossoverPoint point;
      point.log_bytes = config.log.total_bytes;
      point.insts_per_segment = total_insts_per_segment(point_runs, "checked");
      point.checked_mips = total_mips(point_runs, "checked");
      point.parallel_mips = total_mips(point_runs, "checked-parallel");
      std::printf("%-10llu %16.1f %12.3f %14.3f %10.3f\n",
                  static_cast<unsigned long long>(point.log_bytes),
                  point.insts_per_segment, point.checked_mips,
                  point.parallel_mips, point.ratio());
      points.push_back(point);
    }
    double ratio_min = points.empty() ? 0.0 : points.front().ratio();
    for (const auto& point : points) {
      ratio_min = std::min(ratio_min, point.ratio());
    }
    std::printf("# %u replay workers, batch=%s; min ratio %.3f%s\n",
                parallel_threads,
                parallel_exec.batch == CheckerExec::kAutoBatch ? "auto" : "N",
                ratio_min,
                parallel_threads == 0
                    ? " (0 workers on this host: parallel degraded to "
                      "inline, ratios are ~1 by construction)"
                    : "");
    if (!json_path.empty()) {
      bench::JsonWriter json;
      json.begin_object();
      json.key("format").value(bench::kBenchFormatName);
      json.key("version").value(bench::kBenchFormatVersion);
      json.key("bench").value("hotloop-crossover");
      json.key("scale").value(options.scale);
      json.key("budget").value(bench::kInstructionBudget);
      json.key("repeat").value(std::uint64_t{repeat});
      json.key("results").begin_array();
      for (const auto& point : points) {
        json.begin_object();
        json.key("log_bytes").value(point.log_bytes);
        json.key("insts_per_segment").value(point.insts_per_segment);
        json.key("checked_mips").value(point.checked_mips);
        json.key("checked_mips_parallel").value(point.parallel_mips);
        json.key("parallel_over_checked").value(point.ratio());
        json.end_object();
      }
      json.end_array();
      json.key("summary").begin_object();
      json.key("checker_threads").value(std::uint64_t{parallel_threads});
      json.key("checker_batch")
          .value(std::uint64_t{parallel_exec.batch});
      json.key("parallel_over_checked_min").value(ratio_min);
      json.end_object();
      json.end_object();
      bench::write_bench_file(json_path, json.str());
      std::printf("# wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  std::vector<ModeRun> runs;
  for (const auto& workload : suite) {
    const auto image = runtime::AssemblyCache::instance().get(workload);
    runs.push_back(
        time_mode(workload.name, "baseline", baseline, image, repeat));
    runs.push_back(time_mode(workload.name, "checked", checked, image,
                             repeat));
    runs.push_back(time_mode(workload.name, "checked-parallel", checked,
                             image, repeat, parallel_exec));
  }

  std::printf("%-14s %10s %12s %10s %10s\n", "benchmark", "mode",
              "instructions", "seconds", "MIPS");
  for (const auto& run : runs) {
    std::printf("%-14s %10s %12llu %10.3f %10.3f\n", run.workload.c_str(),
                run.mode, static_cast<unsigned long long>(run.instructions),
                run.seconds, run.mips());
  }
  const double baseline_mips = total_mips(runs, "baseline");
  const double checked_mips = total_mips(runs, "checked");
  const double parallel_mips = total_mips(runs, "checked-parallel");
  std::printf("%-14s %10s %12s %10s %10.3f\n", "suite", "baseline", "-", "-",
              baseline_mips);
  std::printf("%-14s %10s %12s %10s %10.3f\n", "suite", "checked", "-", "-",
              checked_mips);
  std::printf("%-14s %10s %12s %10s %10.3f  # %u replay workers\n", "suite",
              "ckd-parallel", "-", "-", parallel_mips, parallel_threads);
  // Replay granularity: how much simulated work each sealed segment hands
  // a checker. This is the unit the concurrent-replay pipeline
  // parallelises over, so it decides whether checked-parallel can win.
  const double insts_per_segment = total_insts_per_segment(runs, "checked");
  std::uint64_t checked_segments = 0;
  for (const auto& run : runs) {
    if (std::strcmp(run.mode, "checked") == 0) {
      checked_segments += run.segments;
    }
  }
  std::printf("# replay granularity: %llu segments, ~%.0f insts/segment\n",
              static_cast<unsigned long long>(checked_segments),
              insts_per_segment);
  if (parallel_mips > 0 && checked_mips > 0 && parallel_mips < checked_mips) {
    std::printf(
        "# note: parallel replay LOST to inline here (%.2fx): at ~%.0f "
        "insts/segment the per-ticket handoff does not amortise on this "
        "host; see README \"Parallel replay crossover\"\n",
        parallel_mips / checked_mips, insts_per_segment);
  }

  if (!json_path.empty()) {
    bench::JsonWriter json;
    json.begin_object();
    json.key("format").value(bench::kBenchFormatName);
    json.key("version").value(bench::kBenchFormatVersion);
    json.key("bench").value("hotloop");
    json.key("scale").value(options.scale);
    json.key("budget").value(bench::kInstructionBudget);
    json.key("repeat").value(std::uint64_t{repeat});
    json.key("results").begin_array();
    for (const auto& run : runs) {
      json.begin_object();
      json.key("workload").value(run.workload);
      json.key("mode").value(run.mode);
      json.key("instructions").value(run.instructions);
      json.key("segments").value(run.segments);
      json.key("seconds").value(run.seconds);
      json.key("mips").value(run.mips());
      json.end_object();
    }
    json.end_array();
    json.key("summary").begin_object();
    json.key("baseline_mips").value(baseline_mips);
    json.key("checked_mips").value(checked_mips);
    json.key("checked_mips_parallel").value(parallel_mips);
    json.key("checker_threads").value(std::uint64_t{parallel_threads});
    json.key("checker_batch").value(std::uint64_t{parallel_exec.batch});
    json.key("checked_over_baseline")
        .value(baseline_mips > 0 ? checked_mips / baseline_mips : 0.0);
    json.key("parallel_over_checked")
        .value(checked_mips > 0 ? parallel_mips / checked_mips : 0.0);
    json.key("insts_per_segment").value(insts_per_segment);
    json.end_object();
    json.end_object();
    bench::write_bench_file(json_path, json.str());
    std::printf("# wrote %s\n", json_path.c_str());
  }

  if (!compare_path.empty()) {
    const std::string reference = bench::read_file_or_throw(compare_path);
    // Headline metric: checked-parallel MIPS when both this run and the
    // committed baseline had real replay workers — that is the mode every
    // campaign actually runs in. When either side recorded 0 workers
    // (1-CPU recorder, degraded run) the parallel number is just inline
    // replay with extra noise, so the gate falls back to inline checked
    // MIPS and says so (satellite of scripts/record_bench.sh's refusal to
    // record 0-worker parallel numbers silently).
    double reference_workers = 0;
    try {
      reference_workers = bench::read_bench_number(reference,
                                                   "checker_threads");
    } catch (const std::exception&) {
      reference_workers = 0;  // pre-batching baseline: treat as inline.
    }
    const bool gate_parallel = reference_workers >= 1 && parallel_threads >= 1;
    const char* headline_key =
        gate_parallel ? "checked_mips_parallel" : "checked_mips";
    const double reference_headline =
        bench::read_bench_number(reference, headline_key);
    const double measured_headline =
        gate_parallel ? parallel_mips : checked_mips;
    const double floor = reference_headline * (1.0 - max_regress);
    std::printf("# baseline %s: %s %.3f MIPS; floor at %.3f\n",
                compare_path.c_str(), headline_key, reference_headline,
                floor);
    if (!gate_parallel) {
      std::printf(
          "# parallel ratio ignored (0 workers on %s); gating on inline "
          "checked MIPS\n",
          parallel_threads < 1 ? "this host" : "the recorded baseline");
    }
    if (measured_headline < floor) {
      std::fprintf(stderr,
                   "%s throughput regressed: %.3f MIPS < %.3f "
                   "(%.0f%% of the committed baseline's %.3f)\n",
                   headline_key, measured_headline, floor,
                   (1.0 - max_regress) * 100, reference_headline);
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return paradet::bench::cli_main(run, argc, argv);
}
