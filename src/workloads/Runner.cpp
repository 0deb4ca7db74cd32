//===- workloads/Runner.cpp - Variant sweep harness ----------------------------===//

#include "workloads/Runner.h"

#include "codegen/NativeEngine.h"
#include "ir/Cloner.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Timer.h"

using namespace sxe;

WorkloadReport sxe::runWorkload(const Workload &W,
                                const RunnerOptions &Options) {
  WorkloadReport Report;
  Report.Name = W.Name;
  Report.Suite = W.Suite;

  std::unique_ptr<Module> Pristine = W.Build(Options.Params);
  verifyModuleOrDie(*Pristine);

  // Oracle + profile run under Java semantics (the interpreter tier).
  ProfileInfo Profile;
  {
    InterpOptions JavaOptions;
    JavaOptions.Target = Options.Target;
    JavaOptions.Semantics = ExecSemantics::Java;
    JavaOptions.MaxArrayLen = Options.MaxArrayLen;
    JavaOptions.Profile = Options.UseProfile ? &Profile : nullptr;
    Interpreter Oracle(*Pristine, JavaOptions);
    ExecResult R = Oracle.run("main");
    if (R.Trap != TrapKind::None)
      reportFatalError(std::string("workload '") + W.Name +
                       "' traps under Java semantics: " + R.TrapMessage);
    Report.OracleChecksum = R.ReturnValue;
  }

  for (Variant V : Options.Variants) {
    std::unique_ptr<Module> Clone = cloneModule(*Pristine);

    PipelineConfig Config = PipelineConfig::forVariant(V, *Options.Target);
    Config.MaxArrayLen = Options.MaxArrayLen;
    Config.Profile = Options.UseProfile ? &Profile : nullptr;

    VariantRow Row;
    Row.V = V;
    Row.Pipeline = runPipeline(*Clone, Config);

    VerifierOptions VOptions;
    VOptions.AllowDummyExtends = false;
    std::vector<std::string> Problems;
    if (!verifyModule(*Clone, Problems, VOptions))
      reportFatalError(std::string("workload '") + W.Name + "', variant '" +
                       variantName(V) +
                       "': post-pipeline verification failed: " +
                       Problems.front());

    Row.StaticSext = countStaticExtensions(*Clone).totalConversions();

    InterpOptions MachineOptions;
    MachineOptions.Target = Options.Target;
    MachineOptions.Semantics = ExecSemantics::Machine;
    MachineOptions.MaxArrayLen = Options.MaxArrayLen;
    Interpreter Interp(*Clone, MachineOptions);
    uint64_t InterpStart = wallNowNanos();
    ExecResult R = Interp.run("main");
    Row.InterpWallNanos = wallNowNanos() - InterpStart;

    // Hardware execution of the same post-pipeline module: compile with
    // the baseline code generator and time the native run.
    if (Options.Native && Options.Target == &TargetInfo::x86_64() &&
        NativeModule::hostSupported()) {
      NativeOptions NOpts;
      NOpts.MaxArrayLen = Options.MaxArrayLen;
      if (auto NM = NativeModule::compile(*Clone, NOpts)) {
        Row.NativeCompile = NM->info();
        uint64_t NativeStart = wallNowNanos();
        ExecResult Native = NM->run("main");
        Row.NativeWallNanos = wallNowNanos() - NativeStart;
        Row.NativeExecuted = true;
        Row.NativeChecksumOK = Native.Trap == TrapKind::None &&
                               Native.ReturnValue == Report.OracleChecksum;
      }
    }

    Row.Trap = R.Trap;
    Row.Checksum = R.ReturnValue;
    Row.ChecksumOK =
        R.Trap == TrapKind::None && R.ReturnValue == Report.OracleChecksum;
    Row.DynamicSext32 = R.ExecutedSext32;
    Row.DynamicSextAll = R.totalExecutedConversions();
    Row.Cycles = R.Cycles;
    Row.Instructions = R.ExecutedInstructions;
    Report.Rows.push_back(Row);
  }
  return Report;
}
