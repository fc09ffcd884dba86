//===- tests/sim/OverlapSimTest.cpp ---------------------------*- C++ -*-===//
//
// Differential suite for early sends (DESIGN.md §11): compiling with
// CompilerOptions::EarlySends changes WHEN messages cost time, never
// WHAT they carry. Early-on and early-off runs must produce identical
// final arrays, identical logical counters (messages, words, flops,
// events), identical transport totals under lossy schedules, and
// identical crash/recovery telemetry — while the clean makespan
// strictly improves. SimOptions::EarlySends=false must reduce a marked
// program to exactly the blocking engine.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>
#include <optional>

using namespace dmcc;

namespace {

Program lu() {
  return parseProgramOrDie(R"(
param N;
array X[N + 1][N + 1];
for i1 = 0 to N {
  for i2 = i1 + 1 to N {
    X[i2][i1] = X[i2][i1] / X[i1][i1];
    for i3 = i1 + 1 to N {
      X[i2][i3] = X[i2][i3] - X[i2][i1] * X[i1][i3];
    }
  }
}
)");
}

CompileSpec luSpec(const Program &P) {
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  return Spec;
}

Program stencil() {
  return parseProgramOrDie(R"(
param T;
param N;
array X[N + 1];
array Y[N + 1];
for t = 0 to T {
  for i = 1 to N - 1 {
    Y[i] = X[i - 1] + X[i] + X[i + 1];
  }
  for i2 = 1 to N - 1 {
    X[i2] = Y[i2];
  }
}
)");
}

CompileSpec stencilSpec(const Program &P) {
  CompileSpec Spec;
  Spec.Stmts.push_back(StmtPlan{0, blockComputation(P, 0, 1, 16)});
  Spec.Stmts.push_back(StmtPlan{1, blockComputation(P, 1, 1, 16)});
  Spec.InitialData.emplace(0, blockData(P, 0, 0, 16, /*OverlapLo=*/1,
                                        /*OverlapHi=*/1));
  Spec.InitialData.emplace(1, blockData(P, 1, 0, 16));
  Spec.FinalData.emplace(0, blockData(P, 0, 0, 16));
  Spec.FinalData.emplace(1, blockData(P, 1, 0, 16));
  return Spec;
}

CompiledProgram compileLeg(const Program &P, const CompileSpec &Spec,
                           bool Early) {
  CompilerOptions Opts;
  Opts.EarlySends = Early;
  return compile(P, Spec, Opts);
}

SimOptions opts(IntT Procs, std::map<std::string, IntT> Params,
                bool Functional, FaultOptions Faults = {},
                CheckpointOptions Checkpoint = {}) {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = std::move(Params);
  SO.Functional = Functional;
  SO.CollapseLoops = !Functional;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  return SO;
}

/// One simulation leg: the full result plus every element of array 0
/// under the final layout (nullopt where nobody holds it).
struct RunOut {
  SimResult R;
  std::vector<std::optional<double>> A0;
};

RunOut runLeg(const Program &P, const CompiledProgram &CP,
              const CompileSpec &Spec, SimOptions SO,
              const std::map<std::string, IntT> &Params) {
  Simulator Sim(P, CP, Spec, std::move(SO));
  RunOut O;
  O.R = Sim.run();
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  std::vector<IntT> Sizes;
  for (const AffineExpr &D : P.array(0).DimSizes)
    Sizes.push_back(D.evaluate(Env));
  std::vector<IntT> Idx(Sizes.size(), 0);
  bool Done = Sizes.empty();
  while (!Done) {
    O.A0.push_back(Sim.finalValue(0, Idx));
    for (unsigned K = Idx.size(); K-- > 0;) {
      if (++Idx[K] < Sizes[K])
        break;
      Idx[K] = 0;
      if (K == 0)
        Done = true;
    }
  }
  return O;
}

/// What early sends must NOT change: array contents, logical cost
/// counters, transport totals, recovery telemetry, diagnostics. Clocks
/// (makespan, busy time) are deliberately excluded — moving latency off
/// the critical path is the whole point.
void expectSameObservables(const RunOut &A, const RunOut &B,
                           const std::string &Tag) {
  EXPECT_EQ(A.R.Ok, B.R.Ok) << Tag;
  EXPECT_EQ(A.R.Error, B.R.Error) << Tag;
  EXPECT_EQ(A.R.Messages, B.R.Messages) << Tag;
  EXPECT_EQ(A.R.IntraMessages, B.R.IntraMessages) << Tag;
  EXPECT_EQ(A.R.Words, B.R.Words) << Tag;
  EXPECT_EQ(A.R.Flops, B.R.Flops) << Tag;
  EXPECT_EQ(A.R.ComputeIterations, B.R.ComputeIterations) << Tag;
  EXPECT_EQ(A.R.TotalEvents, B.R.TotalEvents) << Tag;
  EXPECT_EQ(A.R.Retransmissions, B.R.Retransmissions) << Tag;
  EXPECT_EQ(A.R.DroppedPackets, B.R.DroppedPackets) << Tag;
  EXPECT_EQ(A.R.DuplicatesSuppressed, B.R.DuplicatesSuppressed) << Tag;
  EXPECT_EQ(A.R.AcksSent, B.R.AcksSent) << Tag;
  EXPECT_EQ(A.R.Recovery.CheckpointsTaken, B.R.Recovery.CheckpointsTaken)
      << Tag;
  EXPECT_EQ(A.R.Recovery.CheckpointBytes, B.R.Recovery.CheckpointBytes)
      << Tag;
  EXPECT_EQ(A.R.Recovery.Crashes, B.R.Recovery.Crashes) << Tag;
  EXPECT_EQ(A.R.Recovery.Rollbacks, B.R.Recovery.Rollbacks) << Tag;
  EXPECT_EQ(A.R.Recovery.ReplayedSteps, B.R.Recovery.ReplayedSteps)
      << Tag;
  EXPECT_EQ(A.R.Recovery.ReplayedMessages, B.R.Recovery.ReplayedMessages)
      << Tag;
  ASSERT_EQ(A.A0.size(), B.A0.size()) << Tag;
  unsigned Bad = 0;
  for (unsigned I = 0; I != A.A0.size(); ++I)
    if (A.A0[I] != B.A0[I])
      ++Bad;
  EXPECT_EQ(Bad, 0u) << Tag << ": array contents diverge";
}

/// Bit-identical comparison plus the overlap telemetry: used for the
/// SimOptions::EarlySends=false reduction.
void expectIdentical(const RunOut &A, const RunOut &B,
                     const std::string &Tag) {
  expectSameObservables(A, B, Tag);
  EXPECT_EQ(A.R.MakespanSeconds, B.R.MakespanSeconds) << Tag;
  ASSERT_EQ(A.R.PhysBusy.size(), B.R.PhysBusy.size()) << Tag;
  for (unsigned I = 0; I != A.R.PhysBusy.size(); ++I)
    EXPECT_EQ(A.R.PhysBusy[I], B.R.PhysBusy[I]) << Tag << " phys " << I;
  EXPECT_EQ(A.R.Recovery.ComputeSeconds, B.R.Recovery.ComputeSeconds)
      << Tag;
  EXPECT_EQ(A.R.Recovery.ProtocolSeconds, B.R.Recovery.ProtocolSeconds)
      << Tag;
  EXPECT_EQ(A.R.Recovery.CheckpointSeconds,
            B.R.Recovery.CheckpointSeconds)
      << Tag;
  EXPECT_EQ(A.R.Recovery.RecoverySeconds, B.R.Recovery.RecoverySeconds)
      << Tag;
  EXPECT_EQ(A.R.Overlap.EarlySends, B.R.Overlap.EarlySends) << Tag;
  EXPECT_EQ(A.R.Overlap.DeferredSeconds, B.R.Overlap.DeferredSeconds)
      << Tag;
  EXPECT_EQ(A.R.Overlap.ExposedSeconds, B.R.Overlap.ExposedSeconds)
      << Tag;
}

} // namespace

TEST(OverlapSim, CompilerMarksSafeSendsNonblocking) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  EXPECT_EQ(Off.Stats.NumEarlySends, 0u);
  EXPECT_GT(On.Stats.NumEarlySends, 0u);
  // The analysis is an annotation pass: same comm plans, same fragments
  // modulo the nonblocking marks.
  EXPECT_EQ(Off.Comms.size(), On.Comms.size());
  // LU's pivot-row broadcasts print as imulticast; plain early sends
  // would print as isend.
  EXPECT_NE(On.Spmd.str().find("imulticast"), std::string::npos);
  EXPECT_EQ(Off.Spmd.str().find("imulticast"), std::string::npos);
  EXPECT_EQ(Off.Spmd.str().find("isend"), std::string::npos);
}

TEST(OverlapSim, CleanLUIdenticalArraysFasterMakespan) {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, true), Pv);
  RunOut B = runLeg(P, On, Spec, opts(8, Pv, true), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  // The blocking leg is gold-verified, so observable equality proves
  // the early leg correct too.
  SeqInterpreter Gold(P, Pv);
  Gold.run();
  unsigned Bad = 0, K = 0;
  for (IntT I = 0; I <= 48; ++I)
    for (IntT J = 0; J <= 48; ++J, ++K)
      if (!A.A0[K] || *A.A0[K] != Gold.arrayValue(0, {I, J}))
        ++Bad;
  ASSERT_EQ(Bad, 0u);
  expectSameObservables(A, B, "lu clean");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_EQ(A.R.Overlap.EarlySends, 0u);
  EXPECT_GT(B.R.Overlap.EarlySends, 0u);
  EXPECT_GT(B.R.Overlap.DeferredSeconds, 0.0);
  EXPECT_GE(B.R.Overlap.hiddenSeconds(), 0.0);
}

TEST(OverlapSim, CleanStencilIdenticalArraysFasterMakespan) {
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true), Pv);
  RunOut B = runLeg(P, On, Spec, opts(4, Pv, true), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  expectSameObservables(A, B, "stencil clean");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_GT(B.R.Overlap.EarlySends, 0u);
}

TEST(OverlapSim, PerformanceModeMakespanImproves) {
  // Performance mode collapses loops into closed-form costs; the
  // overlap accounting must hold there too (this is the bench path).
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 96}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, false), Pv);
  RunOut B = runLeg(P, On, Spec, opts(8, Pv, false), Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  expectSameObservables(A, B, "lu perf");
  EXPECT_LT(B.R.MakespanSeconds, A.R.MakespanSeconds);
  EXPECT_GT(B.R.Overlap.DeferredSeconds, 0.0);
}

TEST(OverlapSim, LossyTransportSameTotalsAcrossSeeds) {
  // The fault schedule is keyed by (channel, sequence, attempt) — all
  // unchanged by early issue — so drops, duplicates and retransmission
  // totals must match the blocking engine exactly, per seed.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 32}};
  for (uint64_t Seed : {1u, 2u, 3u}) {
    FaultOptions F;
    F.Seed = Seed;
    F.DropRate = 0.05;
    F.DupRate = 0.05;
    F.MaxDelaySeconds = 2e-4;
    F.MaxSlowdown = 1.5;
    RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, F), Pv);
    RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, F), Pv);
    ASSERT_TRUE(A.R.Ok) << "seed " << Seed << ": " << A.R.Error;
    ASSERT_TRUE(B.R.Ok) << "seed " << Seed << ": " << B.R.Error;
    ASSERT_GT(A.R.Retransmissions + A.R.DuplicatesSuppressed, 0u)
        << "seed " << Seed << " exercised no transport machinery";
    expectSameObservables(A, B, "lu-fault seed=" + std::to_string(Seed));
    EXPECT_GT(B.R.Overlap.EarlySends, 0u) << "seed " << Seed;
  }
  // The stencil pipeline under heavier loss.
  Program SP = stencil();
  CompileSpec SSpec = stencilSpec(SP);
  CompiledProgram SOff = compileLeg(SP, SSpec, false);
  CompiledProgram SOn = compileLeg(SP, SSpec, true);
  std::map<std::string, IntT> SPv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.Seed = 9;
  F.DropRate = 0.08;
  F.DupRate = 0.04;
  F.MaxDelaySeconds = 1e-4;
  RunOut A = runLeg(SP, SOff, SSpec, opts(4, SPv, true, F), SPv);
  RunOut B = runLeg(SP, SOn, SSpec, opts(4, SPv, true, F), SPv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  ASSERT_TRUE(B.R.Ok) << B.R.Error;
  expectSameObservables(A, B, "stencil-fault");
  EXPECT_GT(B.R.Overlap.EarlySends, 0u);
}

TEST(OverlapSim, CrashRecoverySameTelemetryAcrossSeeds) {
  // Crash schedules fire on logical steps and checkpoint lines are
  // drawn at step counts; early sends change neither, so the recovery
  // telemetry (and the recovered arrays) must match the blocking run.
  // In-flight early sends replay through the same sequence-number
  // window after rollback.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 64}};
  for (uint64_t CrashSeed : {11u, 22u}) {
    FaultOptions F;
    F.CrashRate = 4e-5;
    F.CrashSeed = CrashSeed;
    CheckpointOptions CK;
    CK.IntervalSteps = 40000;
    RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, F, CK), Pv);
    RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, F, CK), Pv);
    ASSERT_TRUE(A.R.Ok) << "seed " << CrashSeed << ": " << A.R.Error;
    ASSERT_TRUE(B.R.Ok) << "seed " << CrashSeed << ": " << B.R.Error;
    ASSERT_GE(A.R.Recovery.Crashes, 1u) << "seed " << CrashSeed;
    ASSERT_GE(A.R.Recovery.Rollbacks, 1u) << "seed " << CrashSeed;
    expectSameObservables(A, B,
                          "lu-crash seed=" + std::to_string(CrashSeed));
  }
}

TEST(OverlapSim, UnrecoverableCrashSameDiagnostics) {
  // No checkpointing: the first crash is terminal. The structured
  // diagnostic (dead processors, stuck receivers, buffered-ahead
  // counts) is built from logical state only and must not change.
  Program P = stencil();
  CompileSpec Spec = stencilSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"T", 5}, {"N", 63}};
  FaultOptions F;
  F.CrashRate = 2e-3;
  F.CrashSeed = 5;
  RunOut A = runLeg(P, Off, Spec, opts(4, Pv, true, F), Pv);
  RunOut B = runLeg(P, On, Spec, opts(4, Pv, true, F), Pv);
  ASSERT_FALSE(A.R.Ok);
  ASSERT_FALSE(B.R.Ok);
  ASSERT_GE(A.R.Recovery.Crashes, 1u);
  expectSameObservables(A, B, "stencil-dead");
}

TEST(OverlapSim, SimKnobOffReducesToBlockingEngine) {
  // SimOptions::EarlySends=false on a marked program must be
  // bit-identical — clocks included — to running the unmarked program:
  // the runtime knob fully disables the NIC model.
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram Off = compileLeg(P, Spec, false);
  CompiledProgram On = compileLeg(P, Spec, true);
  std::map<std::string, IntT> Pv = {{"N", 48}};
  RunOut A = runLeg(P, Off, Spec, opts(8, Pv, true), Pv);
  SimOptions SO = opts(8, Pv, true);
  SO.EarlySends = false;
  RunOut B = runLeg(P, On, Spec, SO, Pv);
  ASSERT_TRUE(A.R.Ok) << A.R.Error;
  expectIdentical(A, B, "early-sim-knob-off");
  EXPECT_EQ(B.R.Overlap.EarlySends, 0u);
}
