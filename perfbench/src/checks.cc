#include "checks.h"

#include <cstdio>
#include <exception>

#include "runtime/serialize.h"

namespace paradet::perfbench {

namespace {

/// Forwards to a MemoryDataPort and records the address of every access.
class RecordingPort final : public arch::DataPort {
 public:
  RecordingPort(arch::DataPort& inner, std::vector<std::uint64_t>& stream)
      : inner_(inner), stream_(stream) {}
  std::uint64_t load(Addr addr, unsigned size) override {
    stream_.push_back(addr << 1);
    return inner_.load(addr, size);
  }
  void store(Addr addr, std::uint64_t value, unsigned size) override {
    stream_.push_back((addr << 1) | 1);
    inner_.store(addr, value, size);
  }
  std::uint64_t read_cycle() override { return inner_.read_cycle(); }

 private:
  arch::DataPort& inner_;
  std::vector<std::uint64_t>& stream_;
};

std::string hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%#llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

Golden golden_execute(sim::LoadedProgram& program, std::uint64_t budget,
                      std::vector<std::uint64_t>* l1d_stream) {
  Golden golden;
  golden.state.pc = program.entry;
  const std::uint64_t cycle = 0;
  arch::MemoryDataPort memory_port(program.memory, cycle);
  if (l1d_stream != nullptr) {
    RecordingPort port(memory_port, *l1d_stream);
    arch::Machine machine(program.memory, port, &program.predecoded());
    golden.trap = machine.run(golden.state, budget, &golden.executed);
  } else {
    arch::Machine machine(program.memory, memory_port, &program.predecoded());
    golden.trap = machine.run(golden.state, budget, &golden.executed);
  }
  return golden;
}

Golden golden_run(const sim::AssembledImage& image, std::uint64_t budget) {
  sim::LoadedProgram program = sim::load_program(image);
  Golden golden = golden_execute(program, budget);
  golden.mem_digest = program.memory.digest();
  return golden;
}

std::string check_against_golden(const sim::RunResult& result,
                                 const Golden& golden) {
  if (golden.trap != arch::Trap::kHalt) return "golden run did not HALT";
  if (result.exit_trap != arch::Trap::kHalt) return "run did not end in HALT";
  const int reg = arch::first_register_difference(result.final_state,
                                                  golden.state);
  if (reg >= 0) return "register " + std::to_string(reg) + " differs";
  if (result.final_state.pc != golden.state.pc) {
    return "pc " + hex(result.final_state.pc) + " != golden " +
           hex(golden.state.pc);
  }
  if (result.mem_digest != golden.mem_digest) {
    return "memory digest " + hex(result.mem_digest) + " != golden " +
           hex(golden.mem_digest);
  }
  if (result.instructions != golden.executed + 1) {
    return "retired " + std::to_string(result.instructions) +
           " instructions, golden " + std::to_string(golden.executed) +
           " plus HALT";
  }
  if (result.error_detected) return "flagged an error on a fault-free run";
  if (result.all_checked_cycle < result.main_done_cycle) {
    return "terminated before every check finished";
  }
  return {};
}

std::string check_same_as_inline(const sim::RunResult& parallel,
                                 const std::string& inline_json) {
  if (runtime::to_json(parallel) != inline_json) {
    return "parallel replay result differs from inline replay";
  }
  return {};
}

std::string check_strike(const sim::RunResult& clean,
                         const sim::RunResult& faulty) {
  switch (sim::classify_fault_outcome(clean, faulty)) {
    case sim::FaultVerdict::kSilent:
      return "silent data corruption from an in-sphere strike";
    case sim::FaultVerdict::kDetected:
      if (!faulty.first_error.has_value()) {
        return "detected strike carries no first_error";
      }
      return {};
    case sim::FaultVerdict::kMasked:
      return {};
  }
  return "unknown fault verdict";
}

std::string check_fork_matches_full(const sim::RunResult& forked,
                                    const sim::RunResult& full) {
  if (runtime::to_json(forked) != runtime::to_json(full)) {
    return "forked strike differs from its full re-simulation";
  }
  return {};
}

std::string check_merged_artifact(const runtime::CampaignArtifact& merged,
                                  std::uint64_t tasks,
                                  const std::string& merged_json) {
  if (merged.tasks != tasks || !merged.shard.whole()) {
    return "merged artifact does not describe the whole campaign";
  }
  if (merged.runs.size() != tasks) {
    return "merged artifact holds " + std::to_string(merged.runs.size()) +
           " strikes, want " + std::to_string(tasks);
  }
  for (std::uint64_t i = 0; i < tasks; ++i) {
    if (merged.runs[i].index != i) {
      return "strike " + std::to_string(i) + " missing or repeated";
    }
  }
  try {
    if (runtime::to_json(runtime::artifact_from_json(merged_json)) !=
        merged_json) {
      return "artifact JSON does not round-trip byte-identically";
    }
  } catch (const std::exception& error) {
    return std::string("artifact JSON rejected: ") + error.what();
  }
  return {};
}

void CheckTally::record(const std::string& what, const std::string& reason) {
  ++attempted_;
  if (reason.empty()) return;
  ++failed_;
  if (failures_.size() < kKeptFailures) failures_.push_back(what + ": " + reason);
}

}  // namespace paradet::perfbench
