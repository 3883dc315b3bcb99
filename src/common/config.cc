#include "common/config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace paradet {

namespace {

[[noreturn]] void bad_flag(const char* arg, const char* expected) {
  std::fprintf(stderr, "invalid argument '%s': expected %s\n", arg, expected);
  std::exit(2);
}

/// strtoull, but rejecting the sign characters strtoull itself accepts (a
/// negative value would silently wrap to a huge unsigned one) and numeric
/// overflow (which strtoull silently saturates to ULLONG_MAX). Failure is
/// signalled the way callers already check: *end left at `text`.
unsigned long long parse_u64(const char* text, char** end) {
  if (*text < '0' || *text > '9') {
    *end = const_cast<char*>(text);
    return 0;
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text, end, 10);
  if (errno == ERANGE) {
    *end = const_cast<char*>(text);
    return 0;
  }
  return value;
}

/// Parses a worker count: 0 (= all cores) .. 65535. `flag` is the full
/// argument, for the error message.
unsigned parse_jobs(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = parse_u64(text, &end);
  if (end == text || *end != '\0' || value > 65535) {
    bad_flag(flag, "a worker count between 0 (all cores) and 65535");
  }
  return static_cast<unsigned>(value);
}

}  // namespace

bool BranchPredictorConfig::valid_table_sizes() const {
  const auto pow2 = [](unsigned n) { return n != 0 && (n & (n - 1)) == 0; };
  return pow2(local_entries) && pow2(global_entries) &&
         pow2(chooser_entries) && pow2(btb_entries) &&
         local_history_bits > 0 && local_history_bits < 16;
}

RuntimeOptions RuntimeOptions::from_args(int argc, char** argv,
                                         bool campaign_flags) {
  RuntimeOptions options;
  const char* checkpoint_every_flag = nullptr;
  const char* checkpoint_flag = nullptr;
  const char* journal_flag = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!campaign_flags && (std::strncmp(arg, "--shard", 7) == 0 ||
                            std::strncmp(arg, "--out", 5) == 0 ||
                            std::strncmp(arg, "--checkpoint", 12) == 0 ||
                            std::strncmp(arg, "--journal=", 10) == 0 ||
                            std::strcmp(arg, "--journal") == 0)) {
      std::fprintf(stderr,
                   "'%s' is not supported by this driver (it does not run as "
                   "a shardable campaign)\n",
                   arg);
      std::exit(2);
    }
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      options.jobs = parse_jobs(arg, arg + 7);
    } else if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 >= argc) bad_flag(arg, "a worker count to follow");
      ++i;
      options.jobs = parse_jobs(argv[i], argv[i]);
    } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
      options.jobs = parse_jobs(arg, arg + 2);
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      const char* spec = arg + 8;
      char* end = nullptr;
      const unsigned long long k = parse_u64(spec, &end);
      if (end == spec || *end != '/') bad_flag(arg, "--shard=K/N");
      const char* n_text = end + 1;
      const unsigned long long n = parse_u64(n_text, &end);
      if (end == n_text || *end != '\0' || n == 0 || k >= n) {
        bad_flag(arg, "--shard=K/N with 0 <= K < N");
      }
      options.shard_index = k;
      options.shard_count = n;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.out_path = arg + 6;
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      options.checkpoint_path = arg + 13;
      checkpoint_flag = arg;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      // Alias: the checkpoint mechanism *is* the append-only journal
      // (+ compacted snapshot); both spellings name the same files.
      options.checkpoint_path = arg + 10;
      journal_flag = arg;
    } else if (std::strncmp(arg, "--checker-threads=", 18) == 0) {
      const char* text = arg + 18;
      char* end = nullptr;
      const unsigned long long value = parse_u64(text, &end);
      if (end == text || *end != '\0' || value > 65535) {
        bad_flag(arg,
                 "a replay thread count between 0 (inline replay) and 65535");
      }
      options.checker_threads = static_cast<unsigned>(value);
    } else if (std::strncmp(arg, "--checker-batch=", 16) == 0) {
      const char* text = arg + 16;
      if (std::strcmp(text, "auto") == 0) {
        options.checker_batch = CheckerExec::kAutoBatch;
      } else {
        char* end = nullptr;
        const unsigned long long value = parse_u64(text, &end);
        if (end == text || *end != '\0' || value == 0 || value > 4096) {
          bad_flag(arg,
                   "--checker-batch=N with 1 <= N <= 4096 segments per "
                   "replay ticket, or --checker-batch=auto");
        }
        options.checker_batch = static_cast<unsigned>(value);
      }
    } else if (std::strncmp(arg, "--checkpoint-every=", 19) == 0) {
      char* end = nullptr;
      const unsigned long long every = parse_u64(arg + 19, &end);
      if (end == arg + 19 || *end != '\0' || every == 0) {
        bad_flag(arg, "--checkpoint-every=M with M >= 1");
      }
      options.checkpoint_every = every;
      checkpoint_every_flag = arg;
    } else if (std::strcmp(arg, "--shard") == 0 ||
               std::strcmp(arg, "--out") == 0 ||
               std::strcmp(arg, "--checkpoint") == 0 ||
               std::strcmp(arg, "--journal") == 0 ||
               std::strcmp(arg, "--checker-threads") == 0 ||
               std::strcmp(arg, "--checker-batch") == 0 ||
               std::strcmp(arg, "--checkpoint-every") == 0) {
      // Only the '=' forms exist; swallowing e.g. `--shard 0/2` would let
      // the next driver's positional parsing misread "0/2".
      bad_flag(arg, "the --flag=value form");
    }
  }
  // Two spellings of the same path: if they disagree, which one wins is
  // anyone's guess — refuse rather than pick.
  if (checkpoint_flag != nullptr && journal_flag != nullptr) {
    bad_flag(journal_flag,
             "only one of --checkpoint/--journal (they are aliases for the "
             "same checkpoint files)");
  }
  // A checkpoint interval without a checkpoint file would silently
  // checkpoint nothing; that is an operator error, not a default.
  if (checkpoint_every_flag != nullptr && options.checkpoint_path.empty()) {
    bad_flag(checkpoint_every_flag,
             "--checkpoint=PATH alongside it (an interval without a "
             "checkpoint file checkpoints nothing)");
  }
  return options;
}

SystemConfig SystemConfig::standard() {
  SystemConfig cfg;
  cfg.l1i = CacheConfig{.name = "L1I",
                        .size_bytes = 32 * 1024,
                        .assoc = 2,
                        .line_bytes = 64,
                        .hit_latency = 2,
                        .mshrs = 6};
  cfg.l1d = CacheConfig{.name = "L1D",
                        .size_bytes = 32 * 1024,
                        .assoc = 2,
                        .line_bytes = 64,
                        .hit_latency = 2,
                        .mshrs = 6};
  cfg.l2 = CacheConfig{.name = "L2",
                       .size_bytes = 1024 * 1024,
                       .assoc = 16,
                       .line_bytes = 64,
                       .hit_latency = 12,
                       .mshrs = 16};
  return cfg;
}

SystemConfig SystemConfig::baseline_unchecked() {
  SystemConfig cfg = standard();
  cfg.detection.enabled = false;
  cfg.detection.simulate_checkers = false;
  cfg.detection.load_forwarding_unit = false;
  return cfg;
}

}  // namespace paradet
