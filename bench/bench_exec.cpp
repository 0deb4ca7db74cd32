//===- bench/bench_exec.cpp - Execution-speed baseline --------------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// Measures raw execution speed of the two engines over the full workload
// registry, after the complete optimization pipeline:
//
//   - the interpreter tier (machine semantics, computed-goto dispatch on
//     GNU compilers), reported as wall time and ns/instruction;
//   - the native tier (baseline x86-64 code generator), reported as wall
//     time and its speedup over the interpreter.
//
// Each workload is swept `--repeats` times (default 3, 1 under --smoke)
// and the fastest run of each engine is kept, the usual guard against
// scheduler noise on shared runners. The JSON report carries the
// `exec_interp_ns` / `exec_native_ns` metric family consumed by
// tools/bench_compare; bench/BENCH_baseline_exec.json is the committed
// baseline the CI gate diffs against. Native rows also carry the fastest
// compile's wall time split by codegen phase (compile_ns, lower_ns,
// regalloc_ns, verify_ns, emit_ns); no gate reads those.
//
//===-----------------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "codegen/NativeEngine.h"

#include <algorithm>

using namespace sxe;
using namespace sxe::bench;

namespace {

struct ExecRow {
  std::string Name;
  std::string Suite;
  uint64_t Instructions = 0;
  uint64_t InterpNs = 0; ///< Fastest interpreter wall time.
  uint64_t NativeNs = 0; ///< Fastest native wall time (0 = not run).
  NativeCompileInfo Compile; ///< The fastest native compile, per phase.
  bool NativeExecuted = false;
  bool ChecksumOK = false;
  bool NativeChecksumOK = false;

  double nsPerInst() const {
    return Instructions ? static_cast<double>(InterpNs) /
                              static_cast<double>(Instructions)
                        : 0.0;
  }
  double nativeSpeedup() const {
    return NativeNs ? static_cast<double>(InterpNs) /
                          static_cast<double>(NativeNs)
                    : 0.0;
  }
};

} // namespace

int main(int argc, char **argv) {
  BenchContext Ctx = parseBenchArgs("exec", argc, argv);
  bool Native = NativeModule::hostSupported();
  unsigned Repeats = Ctx.repeats(3);
  std::fprintf(stderr,
               "execution-speed baseline: scale=%u repeats=%u native=%s\n",
               Ctx.scale(), Repeats, Native ? "yes" : "no");

  // Full pipeline only — this bench tracks engine speed, not variant
  // deltas (those are Figures 13/14); the x86-64 target model keeps the
  // interpreter's machine semantics aligned with the emitted code.
  RunnerOptions Options = nativeRunnerOptions(Ctx.scale());
  Options.Native = Native;
  Options.Variants = {Variant::All};

  std::vector<ExecRow> Rows;
  for (const Workload &W : allWorkloads()) {
    ExecRow Row;
    Row.Name = W.Name;
    Row.Suite = W.Suite;
    for (unsigned Rep = 0; Rep < Repeats; ++Rep) {
      WorkloadReport Report = runWorkload(W, Options);
      const VariantRow *All = Report.row(Variant::All);
      Row.Instructions = All->Instructions;
      Row.ChecksumOK = All->ChecksumOK;
      Row.InterpNs = Rep == 0 ? All->InterpWallNanos
                              : std::min(Row.InterpNs, All->InterpWallNanos);
      if (All->NativeExecuted) {
        Row.NativeExecuted = true;
        Row.NativeChecksumOK = All->NativeChecksumOK;
        Row.NativeNs = Row.NativeNs == 0
                           ? All->NativeWallNanos
                           : std::min(Row.NativeNs, All->NativeWallNanos);
        if (Row.Compile.CompileNanos == 0 ||
            All->NativeCompile.CompileNanos < Row.Compile.CompileNanos)
          Row.Compile = All->NativeCompile;
      }
    }
    std::fprintf(stderr, "  %-14s interp %8.3f ms%s\n", W.Name,
                 Row.InterpNs / 1e6,
                 Row.NativeExecuted
                     ? (std::string(", native ") +
                        formatFixed(Row.NativeNs / 1e6, 3) + " ms (" +
                        formatFixed(Row.nativeSpeedup(), 1) + "x)")
                           .c_str()
                     : "");
    Rows.push_back(Row);
  }

  std::printf("\nExecution speed after the full pipeline (fastest of %u)\n",
              Repeats);
  std::printf("%-16s %12s %10s %12s %9s %s\n", "workload", "interp", "ns/inst",
              "native", "speedup", "ok");
  double SpeedupSum = 0.0;
  unsigned NativeRows = 0;
  for (const ExecRow &Row : Rows) {
    std::printf("%-16s %9.3f ms %10.2f", Row.Name.c_str(), Row.InterpNs / 1e6,
                Row.nsPerInst());
    if (Row.NativeExecuted) {
      std::printf(" %9.3f ms %8.1fx", Row.NativeNs / 1e6, Row.nativeSpeedup());
      SpeedupSum += Row.nativeSpeedup();
      ++NativeRows;
    } else {
      std::printf(" %12s %9s", "-", "-");
    }
    std::printf(" %s\n", Row.ChecksumOK &&
                                 (!Row.NativeExecuted || Row.NativeChecksumOK)
                             ? "yes"
                             : "MISMATCH");
  }
  if (NativeRows)
    std::printf("geomean-free average native speedup: %.1fx over %u "
                "workloads\n",
                SpeedupSum / NativeRows, NativeRows);

  JsonWriter J;
  beginBenchReport(J, Ctx);
  J.keyValue("repeats", Repeats);
  J.keyValue("native", Native);
  J.key("results");
  J.beginArray();
  for (const ExecRow &Row : Rows) {
    J.beginObject();
    J.keyValue("workload", Row.Name);
    J.keyValue("suite", Row.Suite);
    J.keyValue("instructions", Row.Instructions);
    J.keyValue("exec_interp_ns", Row.InterpNs);
    if (Row.NativeExecuted) {
      J.keyValue("exec_native_ns", Row.NativeNs);
      J.keyValue("native_speedup", Row.nativeSpeedup());
      emitNativeCompileJson(J, Row.Compile);
    }
    J.keyValue("checksum_ok",
               Row.ChecksumOK && (!Row.NativeExecuted || Row.NativeChecksumOK));
    J.endObject();
  }
  J.endArray();
  finishBenchReport(J, Ctx);

  // Any checksum mismatch is a correctness bug, not a perf datum.
  for (const ExecRow &Row : Rows)
    if (!Row.ChecksumOK || (Row.NativeExecuted && !Row.NativeChecksumOK)) {
      std::fprintf(stderr, "bench_exec: checksum mismatch on %s\n",
                   Row.Name.c_str());
      return 1;
    }
  return 0;
}
