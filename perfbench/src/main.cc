// The repository benchmark: one named workload per invocation, run for a
// fixed host-time budget in whole rounds, every simulator output checked.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see README.md for their make-up):
//   suite-inline    the nine Table II kernels, unchecked and checked with
//                   inline replay, on one thread.
//   suite-parallel  the same kernels checked with 2 replay workers, at the
//                   default log and at a 4x finer log.
//   fault-campaign  a seeded strike campaign over all seven in-sphere fault
//                   sites on randacc, freqmine and facesim, 4 jobs, warm-
//                   state forking on, run as two shard slices and merged.
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 the calls into each layer are wrapped in spans (trace.h) and
// the line reports the per-layer metrics derived from those spans. A traced
// run also runs one round of each other workload and two layer probes, so
// that every per-layer metric has a value on every workload.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/interpreter.h"
#include "checks.h"
#include "common/config.h"
#include "common/hash.h"
#include "common/rng.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "runtime/campaign.h"
#include "runtime/checker_pool.h"
#include "runtime/parallel_runner.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "sim/warm_state.h"
#include "trace.h"
#include "workloads/workloads.h"

namespace paradet::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Fixed execution shape: never derived from the host.
constexpr unsigned kReplayWorkers = 2;
constexpr unsigned kCampaignJobs = 4;
constexpr std::uint64_t kBudget = 4'000'000;  // instructions per run.
constexpr double kSuiteScale = 1.0;           // standard Table II scale.
// Campaign kernels run at a tenth of the standard scale, with a budget of
// four times the clean run, so that a run holds enough strikes for their
// mean cost to settle.
constexpr double kCampaignScale = 0.1;
constexpr std::uint64_t kCampaignBudgetFactor = 4;
constexpr unsigned kFineLogDivisor = 4;       // ~250 insts/segment.
// The set-up stage is repeated until this many kernels have been set up
// (100 stages on the suite, 300 on the campaign), and the median stage is
// reported: one stage lasts a few milliseconds, too short to time once on
// a shared host. The stages are spread over the first rounds, so that their
// median samples the host over much of the run as the throughput does. A
// fixed count at fixed rounds, not at fixed times, keeps the memory those
// stages leave behind the same on every run.
constexpr std::size_t kSetupKernelLoads = 900;
constexpr std::uint64_t kSetupRounds = 16;  // 50-s runs had 20 or more.
constexpr unsigned kTrialsPerCell = 8;  // strikes per kernel x site x window.
constexpr unsigned kSampledForks = 2;   // forked strikes re-simulated per round.
constexpr std::uint64_t kPoolTickets = 20000;

const char* const kSuiteKernels[] = {
    "randacc",  "stream",   "bitcount", "blackscholes", "fluidanimate",
    "swaptions", "freqmine", "bodytrack", "facesim"};
const char* const kCampaignKernels[] = {"randacc", "freqmine", "facesim"};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// A kernel at a scale; `key` names it in Context::kernels.
struct KernelId {
  std::string name;
  double scale = kSuiteScale;
  std::string key() const {
    return scale == kSuiteScale ? name : name + "@" + std::to_string(scale);
  }
};

workloads::Workload make_kernel_source(const KernelId& id) {
  workloads::Workload workload;
  if (!workloads::make_workload(id.name, workloads::Scale{id.scale},
                                workload)) {
    std::fprintf(stderr, "unknown kernel %s\n", id.name.c_str());
    std::exit(2);
  }
  return workload;
}

/// A kernel image with its golden run, shared by every workload.
struct Kernel {
  sim::AssembledImage image;
  bool has_golden = false;
  Golden golden;
};

/// Everything a run shares between workloads: the tracer, the kernels with
/// their golden runs, the check tally and the per-layer counts.
struct Context {
  Tracer* tracer = nullptr;
  std::uint64_t seed = 0;
  std::map<std::string, Kernel> kernels;
  CheckTally tally;
  /// Per-layer counts recorded beside the spans.
  std::map<std::string, double> counts;

  Kernel& kernel(const KernelId& id) {
    Kernel& kernel = kernels[id.key()];
    if (kernel.image == nullptr) {
      kernel.image = std::make_shared<const isa::Assembled>(
          workloads::assemble_or_die(make_kernel_source(id)));
    }
    if (!kernel.has_golden) {
      sim::LoadedProgram program = sim::load_program(kernel.image);
      {
        // Only the suite's golden runs count towards arch.interp_mips.
        Scope span(tracer, id.scale == kSuiteScale
                               ? "arch.machine_run"
                               : "arch.machine_run.campaign");
        kernel.golden = golden_execute(program, kBudget);
        span.set_work(kernel.golden.executed);
      }
      kernel.golden.mem_digest = program.memory.digest();
      kernel.has_golden = true;
    }
    return kernel;
  }
};

/// The set-up stage: generate, assemble and load every kernel the workload
/// runs (loading computes the shared per-image statics). Returns its time.
double set_up(Context& ctx, const std::vector<KernelId>& ids) {
  const auto start = Clock::now();
  Scope setup(ctx.tracer, "setup");
  std::vector<std::pair<std::string, Kernel>> fresh;
  for (const KernelId& id : ids) {
    const workloads::Workload workload = make_kernel_source(id);
    Kernel kernel;
    {
      Scope span(ctx.tracer, "isa.assemble");
      kernel.image = std::make_shared<const isa::Assembled>(
          workloads::assemble_or_die(workload));
    }
    {
      Scope span(ctx.tracer, "arch.load_program");
      sim::load_program(kernel.image);
    }
    fresh.emplace_back(id.key(), std::move(kernel));
  }
  const double seconds = seconds_since(start);
  for (auto& [key, kernel] : fresh) {
    if (ctx.kernels.count(key) == 0) ctx.kernels[key] = std::move(kernel);
  }
  return seconds;
}

/// The kernels in a seeded order: the order the round runs them in.
std::vector<std::string> shuffled(const char* const* names, std::size_t count,
                                  std::uint64_t seed) {
  std::vector<std::string> order(names, names + count);
  SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::vector<KernelId> suite_ids() {
  std::vector<KernelId> ids;
  for (const char* name : kSuiteKernels) ids.push_back({name});
  return ids;
}

/// Canonical JSON of every result of the first round, for the digest.
class ResultDigest {
 public:
  /// Adds `result` under `key` in round 0; in later rounds checks that the
  /// same key produced the same bytes (suite runs are deterministic).
  std::string add(std::uint64_t round, const std::string& key,
                  const sim::RunResult& result) {
    std::string json = runtime::to_json(result);
    if (round == 0) {
      first_[key] = std::move(json);
      return {};
    }
    const auto it = first_.find(key);
    if (it != first_.end() && it->second != json) {
      return "result differs from the first round's";
    }
    return {};
  }
  std::size_t size() const { return first_.size(); }
  /// FNV-1a over the results in key order.
  std::uint64_t value() const {
    Fnv1a64 hash;
    for (const auto& [key, json] : first_) {
      hash.mix_bytes(key);
      hash.mix_bytes(json);
    }
    return hash.value();
  }

 private:
  std::map<std::string, std::string> first_;
};

/// Simulated-instruction and host-time totals of one mode.
struct ModeTotals {
  std::uint64_t runs = 0;
  std::uint64_t instructions = 0;
  double seconds = 0;
  double mips() const { return ratio(instructions, seconds) / 1e6; }
  ModeTotals operator+(const ModeTotals& other) const {
    return {runs + other.runs, instructions + other.instructions,
            seconds + other.seconds};
  }
};

/// Runs `job` on `kernel`, timed and traced, adding to `totals`.
sim::RunResult timed_run(Context& ctx, const char* span_name,
                         const sim::SimJob& job, const Kernel& kernel,
                         ModeTotals& totals) {
  Scope span(ctx.tracer, span_name);
  const auto start = Clock::now();
  sim::RunResult result = sim::run_job(job, kernel.image);
  totals.seconds += seconds_since(start);
  totals.instructions += result.instructions;
  ++totals.runs;
  span.set_work(result.instructions);
  return result;
}

sim::SimJob make_job(sim::SimMode mode, unsigned log_divisor,
                     unsigned workers) {
  sim::SimJob job;
  job.config = SystemConfig::standard();
  job.config.log.total_bytes /= log_divisor;
  job.mode = mode;
  job.max_instructions = kBudget;
  job.checker = CheckerExec(workers);
  return job;
}

/// A workload: whole rounds of the same operations, plus its totals.
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  virtual const char* name() const = 0;
  virtual std::vector<KernelId> kernel_ids() const = 0;
  /// Untimed preparation: golden runs and reference results.
  virtual void prepare() {}
  virtual void round(std::uint64_t index) = 0;
  /// Simulated instructions and host seconds of the timed simulations.
  virtual ModeTotals totals() const = 0;
  /// Completed simulation runs (suite kernels or campaign strikes).
  virtual std::uint64_t runs() const = 0;
  virtual const ResultDigest& digest() const = 0;
  /// Informational figures printed beside the metrics.
  virtual std::map<std::string, double> info() const = 0;
};

class SuiteInline final : public BenchWorkload {
 public:
  explicit SuiteInline(Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "suite-inline"; }
  std::vector<KernelId> kernel_ids() const override {
    return suite_ids();
  }
  void prepare() override {
    for (const KernelId& id : kernel_ids()) ctx_.kernel(id);
  }
  void round(std::uint64_t index) override {
    const bool traced = ctx_.tracer != nullptr;
    Scope span(ctx_.tracer, "suite_inline.round");
    for (const std::string& name :
         shuffled(kSuiteKernels, std::size(kSuiteKernels),
                  ctx_.seed * 0x9E3779B97F4A7C15ULL + index)) {
      const Kernel& kernel = ctx_.kernel({name});
      const sim::RunResult baseline =
          timed_run(ctx_, "sim.run_job.baseline",
                    make_job(sim::SimMode::kBaseline, 1, 0), kernel, baseline_);
      check(index, name + "/baseline", baseline, kernel);
      if (index == 0) {
        ctx_.counts["mem.l1d_misses"] += baseline.counters.get("l1d.misses");
        ctx_.counts["mem.l2_misses"] += baseline.counters.get("l2.misses");
        ctx_.counts["mem.dram_accesses"] +=
            baseline.counters.get("dram.accesses");
        ctx_.counts["sim.baseline_uops"] += baseline.uops;
      }
      if (traced) {
        // Checkpoint-only splits checked time into log/checkpoint cost and
        // replay cost; only the traced run needs it.
        const sim::RunResult checkpoint_only = timed_run(
            ctx_, "sim.run_job.checkpoint_only",
            make_job(sim::SimMode::kCheckpointOnly, 1, 0), kernel,
            checkpoint_only_);
        check(index, name + "/checkpoint-only", checkpoint_only, kernel);
      }
      const sim::RunResult checked =
          timed_run(ctx_, "sim.run_job.checked",
                    make_job(sim::SimMode::kChecked, 1, 0), kernel, checked_);
      check(index, name + "/checked", checked, kernel);
      if (index == 0) {
        slowdown_sum_ += static_cast<double>(checked.main_done_cycle) /
                             static_cast<double>(baseline.main_done_cycle) -
                         1.0;
        ctx_.counts["core.segments"] += checked.segments;
        ctx_.counts["core.checkpoints"] += checked.checkpoints_taken;
        ctx_.counts["core.checked_instructions"] += checked.instructions;
      }
    }
  }
  ModeTotals totals() const override { return baseline_ + checked_; }
  std::uint64_t runs() const override { return totals().runs; }
  const ResultDigest& digest() const override { return digest_; }
  std::map<std::string, double> info() const override {
    // The modelled cost of checking, in simulated cycles: unvalidated
    // against hardware (the paper reports a 1.75% mean slowdown).
    return {{"baseline_mips", baseline_.mips()},
            {"checked_mips", checked_.mips()},
            {"simulated_slowdown_pct",
             100.0 * slowdown_sum_ /
                 static_cast<double>(std::size(kSuiteKernels))}};
  }

 private:
  void check(std::uint64_t round, const std::string& what,
             const sim::RunResult& result, const Kernel& kernel) {
    std::string reason = check_against_golden(result, kernel.golden);
    if (reason.empty()) reason = digest_.add(round, what, result);
    ctx_.tally.record(what, reason);
  }

  Context& ctx_;
  ModeTotals baseline_, checkpoint_only_, checked_;
  double slowdown_sum_ = 0;  ///< sum over kernels of checked/baseline - 1.
  ResultDigest digest_;
};

class SuiteParallel final : public BenchWorkload {
 public:
  explicit SuiteParallel(Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "suite-parallel"; }
  std::vector<KernelId> kernel_ids() const override {
    return suite_ids();
  }
  /// The inline results each parallel run must equal, at both log sizes.
  void prepare() override {
    for (const char* name : kSuiteKernels) {
      const Kernel& kernel = ctx_.kernel({name});
      for (const Log& log : kLogs) {
        ModeTotals& totals = log.divisor == 1 ? inline_ : inline_fine_;
        const sim::RunResult result = timed_run(
            ctx_, log.inline_span, make_job(sim::SimMode::kChecked,
                                            log.divisor, 0),
            kernel, totals);
        const std::string what = std::string(name) + "/" + log.inline_label;
        ctx_.tally.record(what, check_against_golden(result, kernel.golden));
        inline_json_[what] = runtime::to_json(result);
      }
    }
  }
  void round(std::uint64_t index) override {
    Scope span(ctx_.tracer, "suite_parallel.round");
    for (const std::string& name :
         shuffled(kSuiteKernels, std::size(kSuiteKernels),
                  ctx_.seed * 0x9E3779B97F4A7C15ULL + index)) {
      const Kernel& kernel = ctx_.kernel({name});
      for (const Log& log : kLogs) {
        ModeTotals& totals = log.divisor == 1 ? parallel_ : parallel_fine_;
        const sim::RunResult result = timed_run(
            ctx_, log.parallel_span,
            make_job(sim::SimMode::kChecked, log.divisor, kReplayWorkers),
            kernel, totals);
        const std::string what = name + "/" + log.parallel_label;
        std::string reason = check_against_golden(result, kernel.golden);
        if (reason.empty()) {
          reason = check_same_as_inline(
              result, inline_json_.at(name + "/" + log.inline_label));
        }
        if (reason.empty()) reason = digest_.add(index, what, result);
        ctx_.tally.record(what, reason);
      }
    }
  }
  ModeTotals totals() const override { return parallel_ + parallel_fine_; }
  std::uint64_t runs() const override { return totals().runs; }
  const ResultDigest& digest() const override { return digest_; }
  std::map<std::string, double> info() const override {
    return {{"checked_mips_parallel", parallel_.mips()},
            {"checked_mips_parallel_fine", parallel_fine_.mips()},
            {"checked_mips_inline_reference", inline_.mips()},
            {"checked_mips_inline_fine_reference", inline_fine_.mips()}};
  }

 private:
  struct Log {
    unsigned divisor;
    const char* inline_span;
    const char* parallel_span;
    const char* inline_label;
    const char* parallel_label;
  };
  static constexpr Log kLogs[] = {
      {1, "sim.run_job.checked", "sim.run_job.checked_parallel", "inline",
       "parallel"},
      {kFineLogDivisor, "sim.run_job.checked_fine",
       "sim.run_job.checked_parallel_fine", "inline-fine", "parallel-fine"},
  };

  Context& ctx_;
  ModeTotals inline_, inline_fine_, parallel_, parallel_fine_;
  std::map<std::string, std::string> inline_json_;
  ResultDigest digest_;
};

/// The seven in-sphere fault sites (pre-LFU load corruption is the ECC
/// domain, outside the scheme's sphere of coverage).
constexpr core::FaultSite kSites[] = {
    core::FaultSite::kMainArchReg,    core::FaultSite::kMainLoadValuePostLfu,
    core::FaultSite::kMainStoreValue, core::FaultSite::kMainStoreAddr,
    core::FaultSite::kCheckpointReg,  core::FaultSite::kCheckerArchReg,
    core::FaultSite::kMainAluStuckAt,
};

/// Strike windows as fractions of the clean run's micro-ops. Each window's
/// warm state is captured at its start.
struct Window {
  const char* name;
  double begin;
  double end;
};
constexpr Window kWindows[] = {{"early", 0.05, 0.2}, {"late", 0.8, 1.0}};

class FaultCampaign final : public BenchWorkload {
 public:
  explicit FaultCampaign(Context& ctx) : ctx_(ctx) {}
  const char* name() const override { return "fault-campaign"; }
  std::vector<KernelId> kernel_ids() const override {
    std::vector<KernelId> ids;
    for (const char* name : kCampaignKernels) {
      ids.push_back({name, kCampaignScale});
    }
    return ids;
  }
  void prepare() override {
    for (const KernelId& id : kernel_ids()) ctx_.kernel(id);
  }
  void round(std::uint64_t index) override;
  ModeTotals totals() const override { return totals_; }
  std::uint64_t runs() const override { return strikes_; }
  const ResultDigest& digest() const override { return digest_; }
  std::map<std::string, double> info() const override {
    return {{"detected", static_cast<double>(detected_)},
            {"masked", static_cast<double>(masked_)}};
  }

 private:
  static constexpr std::size_t kKernels = std::size(kCampaignKernels);
  static constexpr std::size_t kStrikesPerKernel =
      std::size(kSites) * std::size(kWindows) * kTrialsPerCell;

  Context& ctx_;
  ModeTotals totals_;
  std::uint64_t strikes_ = 0;
  std::uint64_t detected_ = 0;
  std::uint64_t masked_ = 0;
  ResultDigest digest_;
};

/// Where strike `i` lands. Consecutive strikes vary kernel, site and window,
/// so the runner's jobs draw a mix of cheap and costly strikes throughout.
struct StrikeCell {
  std::size_t kernel;
  std::size_t site;
  std::size_t window;
};

StrikeCell strike_cell(std::size_t i) {
  const std::size_t cell =
      i % (std::size(kCampaignKernels) * std::size(kSites) *
           std::size(kWindows));
  return {cell / (std::size(kSites) * std::size(kWindows)),
          cell / std::size(kWindows) % std::size(kSites),
          cell % std::size(kWindows)};
}

/// What one strike did, recorded by its task for the checks.
struct StrikeRecord {
  core::FaultSpec spec;
  bool forked = false;
  std::uint64_t simulated = 0;  ///< instructions the simulator executed.
  std::string error;            ///< set when the task could not run.
};

void FaultCampaign::round(std::uint64_t index) {
  Tracer* const tracer = ctx_.tracer;
  Scope round_span(tracer, "campaign.round");
  const std::uint64_t campaign_seed =
      runtime::derive_task_seed(ctx_.seed, index);
  const auto start = Clock::now();

  // Clean references: the strike windows and the fault verdicts need them.
  std::vector<const Kernel*> kernels;
  std::vector<sim::SimJob> jobs;
  std::vector<sim::RunResult> clean(kKernels);
  std::uint64_t simulated = 0;
  for (std::size_t k = 0; k < kKernels; ++k) {
    kernels.push_back(&ctx_.kernel({kCampaignKernels[k], kCampaignScale}));
    jobs.push_back(make_job(sim::SimMode::kChecked, 1, 0));
    jobs[k].max_instructions =
        kCampaignBudgetFactor * (kernels[k]->golden.executed + 1);
    Scope span(tracer, "sim.run_job.reference");
    clean[k] = sim::run_job(jobs[k], kernels[k]->image);
    span.set_work(clean[k].instructions);
    simulated += clean[k].instructions;
  }

  // One warm state per kernel and window, captured up front on the
  // campaign's runner; every strike in the window forks it.
  const runtime::ParallelRunner runner(kCampaignJobs);
  const std::int64_t round_index = round_span.index();
  std::vector<std::unique_ptr<sim::WarmState>> warm(kKernels *
                                                    std::size(kWindows));
  runner.for_each(warm.size(), [&](std::size_t w) {
    Scope span(tracer, "sim.capture_warm_state", round_index);
    const std::size_t kernel = w / std::size(kWindows);
    warm[w] = sim::capture_warm_state(
        jobs[kernel], kernels[kernel]->image,
        static_cast<std::uint64_t>(static_cast<double>(clean[kernel].uops) *
                                   kWindows[w % std::size(kWindows)].begin));
    if (warm[w] != nullptr) span.set_work(warm[w]->instructions);
  });

  const std::size_t tasks = kKernels * kStrikesPerKernel;
  std::vector<StrikeRecord> records(tasks);
  const runtime::Campaign campaign(tasks, campaign_seed);
  const runtime::Campaign::Task task = [&](std::size_t i,
                                           std::uint64_t task_seed) {
    Scope task_span(tracer, "campaign.task", round_index);
    const StrikeCell cell = strike_cell(i);
    const std::size_t kernel = cell.kernel;
    const std::size_t window = cell.window;
    const sim::RunResult& reference = clean[kernel];
    StrikeRecord& record = records[i];
    const sim::WarmState* warm_state =
        warm[kernel * std::size(kWindows) + window].get();
    if (warm_state == nullptr) {
      record.error = "warm-state capture failed";
      return sim::RunResult{};
    }
    const sim::WarmState& state = *warm_state;
    const bool late = window == 1;

    // Uop-keyed sites strike inside the window, after the capture point.
    // Early checkpoint and checker strikes target indices the capture has
    // already passed, so they fall back to full runs; late ones do not.
    SplitMix64 rng(task_seed);
    core::FaultSpec& spec = record.spec;
    spec.site = kSites[cell.site];
    const auto window_end = static_cast<std::uint64_t>(
        static_cast<double>(reference.uops) * kWindows[window].end);
    spec.at_seq = state.uops + rng.next_below(window_end > state.uops
                                                  ? window_end - state.uops
                                                  : 1);
    spec.reg = 5 + static_cast<unsigned>(rng.next_below(25));
    spec.bit = static_cast<unsigned>(rng.next_below(64));
    spec.checkpoint_index =
        late ? state.checkpoint_index +
                   rng.next_below(reference.checkpoints_taken -
                                  state.checkpoint_index)
             : rng.next_below(state.checkpoint_index);
    spec.segment_ordinal =
        late ? state.produced_segments() +
                   rng.next_below(reference.segments -
                                  state.produced_segments())
             : rng.next_below(state.produced_segments());
    spec.checker_local_index = rng.next_below(64);
    spec.alu_index = static_cast<unsigned>(
        rng.next_below(jobs[kernel].config.main_core.int_alus));
    core::FaultInjector faults;
    faults.add(spec);

    if (state.tail_safe(faults)) {
      Scope span(tracer, "sim.run_job_from");
      record.forked = true;
      sim::RunResult result = sim::run_job_from(state, &faults);
      record.simulated = result.instructions - state.instructions;
      span.set_work(record.simulated);
      return result;
    }
    Scope span(tracer, "sim.run_job.fallback");
    sim::SimJob full = jobs[kernel];
    full.faults = &faults;
    sim::RunResult result = sim::run_job(full, kernels[kernel]->image);
    record.simulated = result.instructions;
    span.set_work(record.simulated);
    return result;
  };

  // Two shard slices on the same 4-job runner, merged and serialized.
  std::vector<runtime::CampaignArtifact> slices;
  for (std::uint64_t shard = 0; shard < 2; ++shard) {
    runtime::CampaignRunOptions options;
    options.shard = runtime::ShardSpec{shard, 2};
    options.keep_runs = true;
    options.fingerprint = 0x9e7f0bec;
    Scope span(tracer, "runtime.run_sharded");
    slices.push_back(campaign.run_sharded(runner, options, task));
  }
  runtime::CampaignArtifact merged;
  std::string merged_json;
  {
    Scope span(tracer, "runtime.merge_serialize");
    merged = runtime::merge_artifacts(std::move(slices));
    merged_json = runtime::to_json(merged);
  }
  totals_.seconds += seconds_since(start);
  for (const auto& state : warm) {
    if (state != nullptr) simulated += state->instructions;
  }
  for (const StrikeRecord& record : records) simulated += record.simulated;
  totals_.instructions += simulated;
  totals_.runs += tasks;
  strikes_ += tasks;

  // Checks, untimed.
  for (std::size_t k = 0; k < kKernels; ++k) {
    const std::string what = std::string(kCampaignKernels[k]) + "/reference";
    std::string reason = check_against_golden(clean[k], kernels[k]->golden);
    if (reason.empty()) reason = digest_.add(index, what, clean[k]);
    ctx_.tally.record(what, reason);
  }
  ctx_.tally.record("round " + std::to_string(index) + "/merged-artifact",
                    check_merged_artifact(merged, tasks, merged_json));
  // The re-simulated sample: distinct strikes drawn from the forked ones.
  std::vector<std::size_t> sampled;
  for (std::size_t i = 0; i < tasks; ++i) {
    if (records[i].forked) sampled.push_back(i);
  }
  SplitMix64 sampler(campaign_seed ^ 0x5A3D1E);
  const std::size_t samples = std::min<std::size_t>(kSampledForks,
                                                    sampled.size());
  for (std::size_t s = 0; s < samples; ++s) {
    std::swap(sampled[s],
              sampled[s + sampler.next_below(sampled.size() - s)]);
  }
  sampled.resize(samples);
  std::uint64_t forked = 0;
  const std::uint64_t detected_before = detected_;
  const std::uint64_t masked_before = masked_;
  for (std::size_t i = 0; i < tasks && i < merged.runs.size(); ++i) {
    const StrikeRecord& record = records[i];
    const sim::RunResult& result = merged.runs[i].result;
    const StrikeCell cell = strike_cell(i);
    const std::size_t kernel = cell.kernel;
    char what[128];
    std::snprintf(what, sizeof what, "round %" PRIu64 " strike %zu (%s %s %s)",
                  index, i, kCampaignKernels[kernel],
                  std::string(core::fault_site_name(record.spec.site)).c_str(),
                  kWindows[cell.window].name);
    std::string reason = record.error;
    const bool late = cell.window == 1;
    const bool must_fall_back =
        !late && (record.spec.site == core::FaultSite::kCheckpointReg ||
                  record.spec.site == core::FaultSite::kCheckerArchReg);
    if (reason.empty() && record.forked == must_fall_back) {
      reason = must_fall_back ? "strike forked, want a full run"
                              : "strike fell back, want a fork";
    }
    if (reason.empty()) reason = check_strike(clean[kernel], result);
    if (reason.empty() && record.forked &&
        std::find(sampled.begin(), sampled.end(), i) != sampled.end()) {
      core::FaultInjector faults;
      faults.add(record.spec);
      sim::SimJob full = jobs[kernel];
      full.faults = &faults;
      reason = check_fork_matches_full(
          result, sim::run_job(full, kernels[kernel]->image));
    }
    // Strike plans differ between rounds; the digest covers round 0.
    if (reason.empty() && index == 0) {
      reason = digest_.add(index, "strike " + std::to_string(i), result);
    }
    ctx_.tally.record(what, reason);
    forked += record.forked ? 1 : 0;
    switch (sim::classify_fault_outcome(clean[kernel], result)) {
      case sim::FaultVerdict::kDetected:
        ++detected_;
        break;
      case sim::FaultVerdict::kMasked:
        ++masked_;
        break;
      case sim::FaultVerdict::kSilent:
        break;
    }
  }
  ctx_.counts["core.detected"] += detected_ - detected_before;
  ctx_.counts["core.masked"] += masked_ - masked_before;
  ctx_.counts["runtime.forked_strikes"] += forked;
  ctx_.counts["runtime.fallback_strikes"] += tasks - forked;
}

/// Layer probes on the suite kernels: more golden interpreter passes, then
/// each kernel's golden L1D address stream replayed through an empty
/// L1D -> L2 -> DRAM hierarchy of the standard configuration.
void probe_interp_and_cache(Context& ctx) {
  constexpr int kExtraGoldenPasses = 2;
  for (int pass = 0; pass < kExtraGoldenPasses; ++pass) {
    for (const char* name : kSuiteKernels) {
      sim::LoadedProgram program =
          sim::load_program(ctx.kernel({name}).image);
      Scope span(ctx.tracer, "arch.machine_run");
      span.set_work(golden_execute(program, kBudget).executed);
    }
  }
  const SystemConfig config = SystemConfig::standard();
  std::vector<std::uint64_t> stream;
  for (const char* name : kSuiteKernels) {
    sim::LoadedProgram program = sim::load_program(ctx.kernel({name}).image);
    stream.clear();
    {
      Scope span(ctx.tracer, "arch.record_l1d_stream");
      golden_execute(program, kBudget, &stream);
    }
    mem::DramModel dram(config.dram, config.main_core.freq_mhz);
    mem::DramLevel dram_level(dram);
    mem::Cache l2(config.l2, dram_level);
    mem::Cache l1d(config.l1d, l2);
    Scope span(ctx.tracer, "mem.cache_access");
    Cycle when = 0;
    for (const std::uint64_t access : stream) {
      l1d.access(access >> 1, (access & 1) != 0, ++when, 0);
    }
    span.set_work(stream.size());
  }
}

/// Layer probe: empty tickets through a 2-worker CheckerPool, one at a
/// time, so each measures a full publish -> work -> absorb round trip.
void probe_pool(Context& ctx) {
  runtime::CheckerPool pool(
      kReplayWorkers, 4, [](std::uint64_t, unsigned) {},
      [](std::uint64_t) {});
  Scope span(ctx.tracer, "runtime.pool_round_trip");
  for (std::uint64_t ticket = 0; ticket < kPoolTickets; ++ticket) {
    pool.wait_slot(ticket);
    pool.publish(ticket);
    pool.wait_absorbed(ticket);
  }
  span.set_work(kPoolTickets);
}

/// Total duration, call count and work of every span with one name.
struct SpanTotals {
  double seconds = 0;
  std::uint64_t calls = 0;
  double work = 0;
  double mean_seconds() const { return ratio(seconds, calls); }
  double work_per_second() const { return ratio(work, seconds); }
};

std::map<std::string, SpanTotals> totals_by_name(const Tracer& tracer) {
  std::map<std::string, SpanTotals> totals;
  for (const Tracer::Span& span : tracer.spans()) {
    SpanTotals& entry = totals[span.name];
    entry.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    ++entry.calls;
    entry.work += static_cast<double>(span.work);
  }
  return totals;
}

/// Median over the set-up stages of the summed time of spans named `name`.
double per_setup_median(const Tracer& tracer, const char* name) {
  const auto& spans = tracer.spans();
  std::map<std::int64_t, double> per_setup;
  for (const Tracer::Span& span : spans) {
    if (std::strcmp(span.name, name) != 0 || span.parent < 0) continue;
    if (std::strcmp(spans[static_cast<std::size_t>(span.parent)].name,
                    "setup") != 0) {
      continue;
    }
    per_setup[span.parent] +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::vector<double> values;
  for (const auto& [setup, seconds] : per_setup) values.push_back(seconds);
  return median(values);
}

/// The per-layer metrics, derived from the spans and the counts beside
/// them. Suite times are per pass over the nine kernels; campaign figures
/// are per campaign round.
std::vector<std::pair<std::string, std::pair<double, const char*>>>
layer_metrics(const Tracer& tracer, const Context& ctx) {
  auto spans = totals_by_name(tracer);
  auto count = [&](const char* name) {
    const auto it = ctx.counts.find(name);
    return it == ctx.counts.end() ? 0.0 : it->second;
  };
  const double kernels = static_cast<double>(std::size(kSuiteKernels));
  auto per_pass = [&](const char* name) {
    const SpanTotals& entry = spans[name];
    return ratio(entry.seconds * kernels, static_cast<double>(entry.calls));
  };
  const double baseline_s = per_pass("sim.run_job.baseline");
  const double checkpoint_s = per_pass("sim.run_job.checkpoint_only");
  const double checked_s = per_pass("sim.run_job.checked");
  const double rounds = static_cast<double>(spans["campaign.round"].calls);
  auto mips = [&](const char* name) {
    return spans[name].work_per_second() / 1e6;
  };
  return {
      {"isa.assemble_s", {per_setup_median(tracer, "isa.assemble"), "s"}},
      {"arch.load_program_s",
       {per_setup_median(tracer, "arch.load_program"), "s"}},
      {"arch.interp_mips", {mips("arch.machine_run"), "MIPS"}},
      {"sim.baseline_s", {baseline_s, "s"}},
      {"sim.timing_model_s",
       {baseline_s - per_pass("arch.machine_run"), "s"}},
      {"sim.host_ns_per_uop",
       {ratio(baseline_s * 1e9, count("sim.baseline_uops")), "ns"}},
      {"mem.l1d_access_ns",
       {ratio(spans["mem.cache_access"].seconds * 1e9,
              spans["mem.cache_access"].work),
        "ns"}},
      {"mem.l1d_misses", {count("mem.l1d_misses"), "count"}},
      {"mem.l2_misses", {count("mem.l2_misses"), "count"}},
      {"mem.dram_accesses", {count("mem.dram_accesses"), "count"}},
      {"core.log_checkpoint_s", {checkpoint_s - baseline_s, "s"}},
      {"core.replay_s", {checked_s - checkpoint_s, "s"}},
      {"core.segments", {count("core.segments"), "count"}},
      {"core.insts_per_segment",
       {ratio(count("core.checked_instructions"), count("core.segments")),
        "insts"}},
      {"core.checkpoints", {count("core.checkpoints"), "count"}},
      {"runtime.pool_ticket_ns",
       {ratio(spans["runtime.pool_round_trip"].seconds * 1e9,
              spans["runtime.pool_round_trip"].work),
        "ns"}},
      {"runtime.parallel_over_inline",
       {ratio(mips("sim.run_job.checked_parallel"),
              mips("sim.run_job.checked")),
        "ratio"}},
      {"runtime.parallel_over_inline_fine",
       {ratio(mips("sim.run_job.checked_parallel_fine"),
              mips("sim.run_job.checked_fine")),
        "ratio"}},
      {"runtime.warm_capture_s",
       {ratio(spans["sim.capture_warm_state"].seconds, rounds), "s"}},
      {"runtime.fork_tail_ms",
       {spans["sim.run_job_from"].mean_seconds() * 1e3, "ms"}},
      {"runtime.full_run_ms",
       {spans["sim.run_job.fallback"].mean_seconds() * 1e3, "ms"}},
      {"runtime.forked_strikes",
       {ratio(count("runtime.forked_strikes"), rounds), "count"}},
      {"runtime.fallback_strikes",
       {ratio(count("runtime.fallback_strikes"), rounds), "count"}},
      {"runtime.job_busy_frac",
       {ratio(spans["campaign.task"].seconds,
              kCampaignJobs * spans["runtime.run_sharded"].seconds),
        "ratio"}},
      {"runtime.serialize_merge_s",
       {ratio(spans["runtime.merge_serialize"].seconds, rounds), "s"}},
      {"core.detected", {ratio(count("core.detected"), rounds), "count"}},
      {"core.masked", {ratio(count("core.masked"), rounds), "count"}},
  };
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                             Context& ctx) {
  if (name == "suite-inline") return std::make_unique<SuiteInline>(ctx);
  if (name == "suite-parallel") return std::make_unique<SuiteParallel>(ctx);
  if (name == "fault-campaign") return std::make_unique<FaultCampaign>(ctx);
  return nullptr;
}

const char* const kWorkloadNames[] = {"suite-inline", "suite-parallel",
                                      "fault-campaign"};

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = args->trace || std::strcmp(value, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace;
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  Tracer tracer;
  Context ctx;
  ctx.tracer = args.trace ? &tracer : nullptr;
  ctx.seed = args.seed;
  std::unique_ptr<BenchWorkload> workload = make_workload(args.workload, ctx);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf(
      "# perfbench workload=%s seed=%" PRIu64 " trace=%d nproc=%u "
      "compiler=\"%s\" build_type=%s replay_workers=%u campaign_jobs=%u\n",
      workload->name(), args.seed, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, kReplayWorkers, kCampaignJobs);

  const std::vector<KernelId> ids = workload->kernel_ids();
  const std::size_t stages = kSetupKernelLoads / ids.size();
  std::vector<double> setups = {set_up(ctx, ids)};
  workload->prepare();

  // Whole rounds until the budget is spent. The throughputs are work done
  // over host time inside the timed calls of every round; set-up stages run
  // between rounds.
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  do {
    while (setups.size() < std::min<std::size_t>(
                               stages, stages * (rounds + 1) / kSetupRounds)) {
      setups.push_back(set_up(ctx, ids));
    }
    workload->round(rounds++);
  } while (seconds_since(start) < args.seconds);
  while (setups.size() < stages) setups.push_back(set_up(ctx, ids));
  const ModeTotals totals = workload->totals();
  const double sim_mips = totals.mips();
  const double runs_per_sec =
      ratio(static_cast<double>(workload->runs()), totals.seconds);

  std::printf("# digest %s 0x%016" PRIx64 " over %zu results of round 0\n",
              workload->name(), workload->digest().value(),
              workload->digest().size());
  // The first set-up stage is cold (first page faults and allocations); it
  // is shown, not gated, as one sample is too noisy to compare.
  std::printf("# %s {\"rounds\": %" PRIu64 ", \"sim_mips\": %s,"
              " \"runs_per_sec\": %s, \"setup_cold_s\": %s",
              args.trace ? "traced" : "info", rounds,
              json_number(sim_mips).c_str(), json_number(runs_per_sec).c_str(),
              json_number(setups.front()).c_str());
  for (const auto& [key, value] : workload->info()) {
    std::printf(", \"%s\": %s", key.c_str(), json_number(value).c_str());
  }
  std::printf("}\n");

  std::string metrics;
  auto add_metric = [&](const std::string& name, double value,
                        const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + json_number(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    // Every per-layer metric on every workload: one round of each other
    // workload, then the two layer probes.
    for (const char* other : kWorkloadNames) {
      if (args.workload == other) continue;
      std::unique_ptr<BenchWorkload> census = make_workload(other, ctx);
      census->prepare();
      census->round(0);
    }
    probe_interp_and_cache(ctx);
    probe_pool(ctx);
    for (const auto& [name, value] : layer_metrics(tracer, ctx)) {
      add_metric(name, value.first, value.second);
    }
  } else {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    add_metric("sim_mips", sim_mips, "MIPS");
    add_metric("runs_per_sec", runs_per_sec, "runs/s");
    add_metric("setup_s", median(setups), "s");
    add_metric("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB");
  }
  for (const std::string& failure : ctx.tally.failures()) {
    std::printf("# FAILED %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              ctx.tally.failed() == 0 ? "true" : "false",
              ctx.tally.attempted(), ctx.tally.failed(), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace paradet::perfbench

int main(int argc, char** argv) {
  try {
    return paradet::perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
