// Shared plumbing for the figure/table reproduction harnesses. Each bench
// binary regenerates one table or figure from the paper: it sweeps the
// relevant parameter, runs the Table II suite, and prints the same
// rows/series the paper reports (plus the paper's reference values as
// comments, for EXPERIMENTS.md).
#pragma once

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/hash.h"
#include "runtime/campaign.h"
#include "runtime/checker_pool.h"
#include "runtime/parallel_runner.h"
#include "runtime/sweep_campaign.h"
#include "sim/checked_system.h"
#include "workloads/workloads.h"

namespace paradet::bench {

inline constexpr std::uint64_t kInstructionBudget = 4'000'000;

struct Options {
  double scale = 1.0;          ///< workload scale factor (--scale=X).
  std::string only;            ///< run a single benchmark (--benchmark=name).
  RuntimeOptions runtime;      ///< --jobs/--shard/--out/--checkpoint flags.

  /// `campaign` = true for drivers that execute through
  /// Campaign::run_sharded; others reject --shard/--out/--checkpoint
  /// (exit 2) rather than silently running unsharded. `extra_usage` is
  /// appended to the --help line: any flag a driver parses itself must
  /// appear there (scripts/check_flag_docs.sh fails the build on drift).
  static Options parse(int argc, char** argv, bool campaign = false,
                       const char* extra_usage = nullptr) {
    Options options;
    options.runtime = RuntimeOptions::from_args(argc, argv, campaign);
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--scale=", 8) == 0) {
        options.scale = std::atof(arg + 8);
      } else if (std::strncmp(arg, "--benchmark=", 12) == 0) {
        options.only = arg + 12;
      } else if (std::strcmp(arg, "--help") == 0) {
        std::printf("usage: %s [--scale=X] [--benchmark=name] [--jobs=N]"
                    " [--checker-threads=N]\n"
                    "          [--checker-batch=N|auto]%s%s\n",
                    argv[0],
                    campaign ? "\n          [--shard=K/N] [--out=artifact.json]"
                               "\n          [--checkpoint=ckpt.json |"
                               " --journal=ckpt.json]"
                               " [--checkpoint-every=M]"
                             : "",
                    extra_usage == nullptr ? "" : extra_usage);
        std::exit(0);
      }
    }
    return options;
  }

  runtime::ParallelRunner runner() const {
    return runtime::ParallelRunner(runtime.jobs);
  }

  /// Checker-replay workers each simulated run may spawn: the requested
  /// --checker-threads, clamped so that --jobs concurrent runs plus their
  /// absorbers cannot oversubscribe the host. Results are byte-identical
  /// at any value, so the clamp never changes artifacts.
  unsigned checker_threads() const {
    return runtime::CheckerPool::bounded(runtime.checker_threads,
                                         runtime.jobs);
  }

  /// The full checker-replay execution shape for each simulated run:
  /// host-clamped worker threads plus the --checker-batch ticket size.
  /// This is what drivers should pass into run_program/SimJob.
  CheckerExec checker_exec() const {
    return CheckerExec(checker_threads(), runtime.checker_batch);
  }

  /// Hash (FNV-1a, common/hash.h) of the options that give campaign task
  /// indices their meaning. Stored in artifacts so a checkpoint or shard
  /// file produced at a different --scale / --benchmark — same task
  /// count, different simulations — cannot silently resume or merge.
  std::uint64_t config_fingerprint() const {
    Fnv1a64 hash;
    hash.mix_u64(std::bit_cast<std::uint64_t>(scale));
    hash.mix_bytes(only);
    hash.mix_u64(kInstructionBudget);
    return hash.value();
  }

  /// Campaign execution options from the shared CLI flags (shard slice,
  /// artifact output, checkpoint path), fingerprinted with this driver
  /// configuration.
  runtime::CampaignRunOptions campaign_options() const {
    auto options = runtime::CampaignRunOptions::from_runtime(runtime);
    options.fingerprint = config_fingerprint();
    return options;
  }

  runtime::ShardSpec shard() const {
    return runtime::ShardSpec{runtime.shard_index, runtime.shard_count};
  }
};

/// Runs a driver body, converting escaping exceptions (a checkpoint file
/// from a different campaign, an unwritable --out path, ...) into a clean
/// stderr message and exit 1 instead of std::terminate.
inline int cli_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}

/// One-line reminder under sharded tables: the printed rows cover only
/// this process's slice; files merge back via tools/merge_results.
inline void print_shard_note(const runtime::CampaignArtifact& artifact) {
  if (artifact.shard.whole()) return;
  std::printf(
      "# shard %llu/%llu: %zu of %llu tasks ran here; merge --out artifacts "
      "with merge_results for the full campaign\n",
      static_cast<unsigned long long>(artifact.shard.index),
      static_cast<unsigned long long>(artifact.shard.count),
      artifact.runs.size(), static_cast<unsigned long long>(artifact.tasks));
}

/// The Table II suite at the requested scale, optionally filtered.
inline std::vector<workloads::Workload> suite(const Options& options) {
  std::vector<workloads::Workload> all =
      workloads::standard_suite(workloads::Scale{options.scale});
  if (options.only.empty()) return all;
  std::vector<workloads::Workload> filtered;
  for (auto& workload : all) {
    if (workload.name == options.only) filtered.push_back(std::move(workload));
  }
  return filtered;
}

/// Like suite(), but an empty selection — an over-narrow `--benchmark`
/// filter — is an operator error: a sweep driver that prints an empty
/// table (or writes an empty artifact) and exits 0 looks like success.
/// Diagnose to stderr and exit 1 instead.
inline std::vector<workloads::Workload> suite_or_fail(const Options& options) {
  std::vector<workloads::Workload> selected = suite(options);
  if (selected.empty()) {
    std::fprintf(stderr,
                 "--benchmark=%s matches no Table II benchmark; nothing to "
                 "run\n",
                 options.only.c_str());
    std::exit(1);
  }
  return selected;
}

inline void print_header(const char* figure, const char* paper_reference) {
  std::printf("# %s\n", figure);
  std::printf("# paper reference: %s\n", paper_reference);
}

}  // namespace paradet::bench
