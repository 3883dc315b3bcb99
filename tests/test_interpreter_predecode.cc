// Predecode equivalence: executing through the assembly-time predecoded
// image must be observationally identical to the per-pc DecodeCache path —
// same architectural states, same traps, same memory-access (log-entry)
// streams, and byte-identical RunResult artifacts from the full checked
// system. Plus unit coverage of PredecodedImage lookup edges and the
// ProgramStatics table.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/interpreter.h"
#include "common/rng.h"
#include "isa/assembler.h"
#include "isa/predecode.h"
#include "runtime/serialize.h"
#include "sim/checked_system.h"
#include "sim/uop_info.h"
#include "workloads/workloads.h"

namespace paradet {
namespace {

/// DataPort over a SparseMemory that records every access, so two runs can
/// compare their captured streams entry by entry.
class RecordingPort final : public arch::DataPort {
 public:
  struct Access {
    char kind;  // 'L', 'S', 'C'.
    Addr addr;
    std::uint64_t value;
    unsigned size;
    bool operator==(const Access&) const = default;
  };

  explicit RecordingPort(arch::SparseMemory& memory) : memory_(memory) {}

  std::uint64_t load(Addr addr, unsigned size) override {
    const std::uint64_t value = memory_.read(addr, size);
    accesses_.push_back({'L', addr, value, size});
    return value;
  }
  void store(Addr addr, std::uint64_t value, unsigned size) override {
    memory_.write(addr, value, size);
    accesses_.push_back({'S', addr, value, size});
  }
  std::uint64_t read_cycle() override {
    accesses_.push_back({'C', 0, 0, 0});
    return 0;
  }

  const std::vector<Access>& accesses() const { return accesses_; }

 private:
  arch::SparseMemory& memory_;
  std::vector<Access> accesses_;
};

/// A random but structurally valid program: ALU/fp/memory soup in a
/// counted loop over a private data window, including the LDP/STP
/// macro-ops and forward branches.
std::string random_program(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::string body;
  int label = 0;
  const auto x = [&] {
    return "x" + std::to_string(5 + rng.next_below(12));
  };
  const unsigned ops = 16 + static_cast<unsigned>(rng.next_below(24));
  for (unsigned i = 0; i < ops; ++i) {
    switch (rng.next_below(10)) {
      case 0: body += "  add " + x() + ", " + x() + ", " + x() + "\n"; break;
      case 1: body += "  mul " + x() + ", " + x() + ", " + x() + "\n"; break;
      case 2: body += "  xor " + x() + ", " + x() + ", " + x() + "\n"; break;
      case 3:
        body += "  srli " + x() + ", " + x() + ", " +
                std::to_string(1 + rng.next_below(62)) + "\n";
        break;
      case 4:
        body += "  ld " + x() + ", " + std::to_string(rng.next_below(512) * 8) +
                "(x20)\n";
        break;
      case 5:
        body += "  sd " + x() + ", " + std::to_string(rng.next_below(512) * 8) +
                "(x20)\n";
        break;
      case 6:
        body += "  ldp x22, " + std::to_string(rng.next_below(255) * 16) +
                "(x20)\n";
        break;
      case 7:
        body += "  stp x22, " + std::to_string(rng.next_below(255) * 16) +
                "(x20)\n";
        break;
      case 8:
        body += "  fadd f" + std::to_string(rng.next_below(8)) + ", f" +
                std::to_string(rng.next_below(8)) + ", f" +
                std::to_string(rng.next_below(8)) + "\n";
        break;
      case 9: {
        const std::string skip = "sk" + std::to_string(label++);
        body += "  bne " + x() + ", " + x() + ", " + skip + "\n";
        body += "  addi " + x() + ", " + x() + ", 3\n";
        body += skip + ":\n";
        break;
      }
    }
  }
  std::string setup;
  for (int r = 5; r <= 16; ++r) {
    setup += "  li x" + std::to_string(r) + ", " +
             std::to_string(static_cast<std::int64_t>(rng.next() % 9000) -
                            4500) +
             "\n";
  }
  for (int r = 0; r < 4; ++r) {
    setup += "  fcvt.d.l f" + std::to_string(r) + ", x" +
             std::to_string(5 + r) + "\n";
  }
  return "_start:\n  la x20, data\n" + setup + "  li x28, " +
         std::to_string(6 + rng.next_below(8)) + "\nouter:\n" + body +
         "  addi x28, x28, -1\n  bnez x28, outer\n  halt\n"
         ".org 0x40000\ndata:\n";
}

arch::SparseMemory load_memory(const isa::Assembled& assembled) {
  arch::SparseMemory memory;
  for (const auto& chunk : assembled.chunks) {
    memory.write_block(chunk.base, chunk.bytes);
  }
  return memory;
}

struct GoldenRun {
  arch::Trap trap;
  std::uint64_t executed;
  arch::ArchState state;
  std::vector<RecordingPort::Access> accesses;
  std::uint64_t predecoded_hits;
  std::uint64_t fallback_decodes;
};

GoldenRun run_golden(const isa::Assembled& assembled,
                     const isa::PredecodedImage* image,
                     std::uint64_t budget = 200000) {
  arch::SparseMemory memory = load_memory(assembled);
  RecordingPort port(memory);
  arch::Machine machine(memory, port, image);
  GoldenRun run;
  run.state.pc = assembled.entry;
  run.trap = machine.run(run.state, budget, &run.executed);
  run.accesses = port.accesses();
  run.predecoded_hits = machine.decode_cache().predecoded_hits();
  run.fallback_decodes = machine.decode_cache().fallback_decodes();
  return run;
}

class PredecodeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PredecodeEquivalence,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST_P(PredecodeEquivalence, GoldenRunsIdenticalEitherPath) {
  const isa::Assembled assembled = isa::assemble(random_program(GetParam()));
  ASSERT_TRUE(assembled.ok);
  ASSERT_FALSE(assembled.predecoded.empty());

  const GoldenRun slow = run_golden(assembled, nullptr);
  const GoldenRun fast = run_golden(assembled, &assembled.predecoded);

  EXPECT_EQ(slow.trap, arch::Trap::kHalt);
  EXPECT_EQ(fast.trap, slow.trap);
  EXPECT_EQ(fast.executed, slow.executed);
  EXPECT_EQ(fast.state, slow.state);
  EXPECT_EQ(fast.accesses, slow.accesses);

  // The slow run never touches the image; the fast run never leaves it.
  EXPECT_EQ(slow.predecoded_hits, 0u);
  EXPECT_EQ(fast.fallback_decodes, 0u);
  EXPECT_EQ(fast.predecoded_hits, slow.fallback_decodes);
}

TEST_P(PredecodeEquivalence, CheckedSystemArtifactIdenticalEitherPath) {
  const isa::Assembled assembled = isa::assemble(random_program(GetParam()));
  ASSERT_TRUE(assembled.ok);
  const SystemConfig config = SystemConfig::standard();

  // Fast path: the normal loader (predecoded image + statics + flat
  // memory). Slow path: a hand-built LoadedProgram with none of them.
  sim::LoadedProgram fast = sim::load_program(assembled);
  sim::LoadedProgram slow;
  slow.memory = load_memory(assembled);
  slow.entry = assembled.entry;

  const sim::RunResult fast_result =
      sim::CheckedSystem(config).run(fast, 200000);
  const sim::RunResult slow_result =
      sim::CheckedSystem(config).run(slow, 200000);

  EXPECT_EQ(fast_result.exit_trap, arch::Trap::kHalt);
  // Byte-identical serialized results: same instructions, cycles, traps,
  // detection stats, delay histograms and counters (which include the
  // captured log-entry count).
  EXPECT_EQ(runtime::to_json(fast_result), runtime::to_json(slow_result));
}

TEST(PredecodedImage, LookupEdges) {
  const isa::Assembled assembled =
      isa::assemble("_start:\n  addi x5, x0, 1\n  halt\n");
  ASSERT_TRUE(assembled.ok);
  const isa::PredecodedImage& image = assembled.predecoded;
  ASSERT_FALSE(image.empty());

  ASSERT_NE(image.lookup(assembled.entry), nullptr);
  EXPECT_EQ(image.lookup(assembled.entry)->op, isa::Opcode::kAddi);
  // Misaligned, below base, beyond end: all miss.
  EXPECT_EQ(image.lookup(assembled.entry + 2), nullptr);
  EXPECT_EQ(image.lookup(assembled.entry - 4), nullptr);
  EXPECT_EQ(image.lookup(image.base + 4 * image.insts.size()), nullptr);
}

TEST(PredecodedImage, OutOfImagePcFallsBackIdentically) {
  // A jump to an address outside the image: both paths must agree (here:
  // zero-filled memory decodes as add x0,x0,x0 and runs until the budget).
  const std::string source =
      "_start:\n  la x5, outside\n  jalr x0, x5, 0\n"
      ".org 0x2000\noutside:\n";
  const isa::Assembled assembled = isa::assemble(source);
  ASSERT_TRUE(assembled.ok);

  const GoldenRun slow = run_golden(assembled, nullptr, 64);
  const GoldenRun fast = run_golden(assembled, &assembled.predecoded, 64);
  EXPECT_EQ(fast.trap, slow.trap);
  EXPECT_EQ(fast.executed, slow.executed);
  EXPECT_EQ(fast.state, slow.state);
  EXPECT_GT(fast.fallback_decodes, 0u);
}

TEST(PredecodedImage, WorkloadsPredecodeTheirWholeHotLoop) {
  const auto suite = workloads::standard_suite(workloads::Scale{0.01});
  for (const auto& workload : suite) {
    const isa::Assembled assembled = workloads::assemble_or_die(workload);
    ASSERT_FALSE(assembled.predecoded.empty()) << workload.name;
    const GoldenRun run =
        run_golden(assembled, &assembled.predecoded, 2'000'000);
    EXPECT_EQ(run.trap, arch::Trap::kHalt) << workload.name;
    EXPECT_EQ(run.fallback_decodes, 0u) << workload.name;
    EXPECT_EQ(run.predecoded_hits, run.executed + 1) << workload.name;
  }
}

TEST(ProgramStatics, MatchesOnTheFlyCracking) {
  const isa::Assembled assembled = isa::assemble(random_program(3));
  ASSERT_TRUE(assembled.ok);
  const isa::PredecodedImage& image = assembled.predecoded;
  const sim::ProgramStatics statics(image);

  for (std::size_t i = 0; i < image.insts.size(); ++i) {
    if (image.valid[i] == 0) continue;
    const Addr pc = image.base + 4 * i;
    const sim::InstStatic* cached = statics.lookup(pc);
    ASSERT_NE(cached, nullptr);
    const sim::InstStatic fresh = sim::make_inst_static(image.insts[i]);
    ASSERT_EQ(cached->uop_count, fresh.uop_count);
    EXPECT_EQ(cached->mem_uops, fresh.mem_uops);
    for (unsigned u = 0; u < fresh.uop_count; ++u) {
      EXPECT_EQ(cached->uops[u].inst, fresh.uops[u].inst);
      EXPECT_EQ(cached->uops[u].cls, fresh.uops[u].cls);
      EXPECT_EQ(cached->uops[u].ctrl, fresh.uops[u].ctrl);
      EXPECT_EQ(cached->uops[u].is_load, fresh.uops[u].is_load);
      EXPECT_EQ(cached->uops[u].is_store, fresh.uops[u].is_store);
      EXPECT_EQ(cached->uops[u].is_jump, fresh.uops[u].is_jump);
      EXPECT_EQ(cached->uops[u].consumes_capture,
                fresh.uops[u].consumes_capture);
      EXPECT_EQ(cached->uops[u].regs.dest, fresh.uops[u].regs.dest);
      EXPECT_EQ(cached->uops[u].regs.n_srcs, fresh.uops[u].regs.n_srcs);
      for (unsigned s = 0; s < fresh.uops[u].regs.n_srcs; ++s) {
        EXPECT_EQ(cached->uops[u].regs.srcs[s], fresh.uops[u].regs.srcs[s]);
      }
    }
  }
  // Out-of-image PCs miss.
  EXPECT_EQ(statics.lookup(image.base - 4), nullptr);
  EXPECT_EQ(statics.lookup(image.base + 2), nullptr);
}

TEST(ProgramStatics, SharedCacheReleasesDeadImages) {
  auto image =
      std::make_shared<const isa::Assembled>(isa::assemble(random_program(5)));
  ASSERT_TRUE(image->ok);
  // Allocated while `image` lives, so it cannot take over its address.
  const auto fresh =
      std::make_shared<const isa::Assembled>(isa::assemble(random_program(6)));
  ASSERT_TRUE(fresh->ok);

  std::weak_ptr<const sim::ProgramStatics> statics;
  {
    const sim::LoadedProgram program = sim::load_program(image);
    // Reloading a live image shares its statics rather than rebuilding.
    EXPECT_EQ(sim::load_program(image).statics, program.statics);
    statics = program.statics;
  }
  image.reset();
  // The next load evicts what the dead image left in the cache.
  const sim::LoadedProgram next = sim::load_program(fresh);
  EXPECT_TRUE(statics.expired());
}

}  // namespace
}  // namespace paradet
