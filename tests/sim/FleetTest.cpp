//===- tests/sim/FleetTest.cpp --------------------------------*- C++ -*-===//
//
// Supervision tests for the scenario fleet runner (DESIGN.md §12):
// workers that hang (watchdog), abort once (retry then succeed) or
// abort always (retry exhaustion) must each land in the right terminal
// status, every scenario must be accounted for, and surviving scenarios
// must hash bit-identical to the clean sequential run.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Fleet.h"
#include "support/StableStore.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <gtest/gtest.h>
#include <limits>
#include <unistd.h>

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

/// A small test fixture owning one compiled LU instance.
struct FleetEnv {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Params = {{"N", 16}};

  Fleet make(FleetOptions FO) {
    return Fleet(P, CP, Spec, Params, /*Procs=*/4, FO);
  }
};

/// One clean scenario with the given index and fault seed.
FleetScenario cleanScn(unsigned Index, uint64_t Seed = 1) {
  FleetScenario S;
  S.Index = Index;
  S.Faults.Seed = Seed;
  return S;
}

/// A journal path in /tmp removed on destruction.
struct TempJournal {
  std::string Path;
  TempJournal() {
    char Buf[] = "/tmp/dmcc-fleet-journal-XXXXXX";
    int Fd = mkstemp(Buf);
    EXPECT_GE(Fd, 0);
    if (Fd >= 0)
      ::close(Fd);
    ::unlink(Buf); // run() recreates it; keep only the unique name
    Path = Buf;
  }
  ~TempJournal() { ::unlink(Path.c_str()); }
};

/// The supervision-free comparison of two reports (ElapsedSeconds is
/// wall-clock and legitimately differs).
void expectSameOutcomes(const FleetReport &A, const FleetReport &B) {
  EXPECT_EQ(A.GoldenHash, B.GoldenHash);
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size());
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    EXPECT_EQ(A.Outcomes[I].Status, B.Outcomes[I].Status) << I;
    EXPECT_EQ(A.Outcomes[I].MakespanSeconds,
              B.Outcomes[I].MakespanSeconds)
        << I;
    EXPECT_EQ(A.Outcomes[I].Retransmissions,
              B.Outcomes[I].Retransmissions)
        << I;
    EXPECT_EQ(A.Outcomes[I].Crashes, B.Outcomes[I].Crashes) << I;
    EXPECT_EQ(A.Outcomes[I].Rollbacks, B.Outcomes[I].Rollbacks) << I;
    EXPECT_EQ(A.Outcomes[I].ResultHash, B.Outcomes[I].ResultHash) << I;
  }
}

} // namespace

TEST(Fleet, HangingWorkerTripsTheWatchdog) {
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.TimeoutSeconds = 0.3;
  FO.MaxRetries = 0; // verdict is the raw failure, not retry-exhausted
  FO.HangScenarios = {0};
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0)});
  ASSERT_EQ(Rep.Outcomes.size(), 1u);
  EXPECT_EQ(Rep.Outcomes[0].Status, ScenarioStatus::Timeout);
  EXPECT_EQ(Rep.Outcomes[0].Attempts, 1u);
  EXPECT_NE(Rep.Outcomes[0].LastFailure.find("watchdog timeout"),
            std::string::npos)
      << Rep.Outcomes[0].LastFailure;
  EXPECT_EQ(Rep.count(ScenarioStatus::Timeout), 1u);
}

TEST(Fleet, AbortingWorkerIsRetriedAndSucceeds) {
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.MaxRetries = 2;
  FO.RetryBackoffSeconds = 0.01;
  FO.AbortOnceScenarios = {0}; // dies on attempt 1, succeeds on 2
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0)});
  ASSERT_EQ(Rep.Outcomes.size(), 1u);
  EXPECT_EQ(Rep.Outcomes[0].Status, ScenarioStatus::Ok);
  EXPECT_EQ(Rep.Outcomes[0].Attempts, 2u);
  EXPECT_NE(Rep.Outcomes[0].LastFailure.find("signal"),
            std::string::npos)
      << Rep.Outcomes[0].LastFailure;
  EXPECT_EQ(Rep.Outcomes[0].ResultHash, Rep.GoldenHash);
}

TEST(Fleet, PersistentCrasherExhaustsTheRetryBudget) {
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.MaxRetries = 1;
  FO.RetryBackoffSeconds = 0.01;
  FO.AbortScenarios = {0}; // dies on every attempt
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0)});
  ASSERT_EQ(Rep.Outcomes.size(), 1u);
  EXPECT_EQ(Rep.Outcomes[0].Status, ScenarioStatus::RetryExhausted);
  EXPECT_EQ(Rep.Outcomes[0].Attempts, 2u); // initial + 1 retry
  EXPECT_NE(Rep.Outcomes[0].LastFailure.find("signal"),
            std::string::npos)
      << Rep.Outcomes[0].LastFailure;
}

TEST(Fleet, DeterministicSimFailuresAreTerminalWithoutRetry) {
  // A transport that gives up (partition beyond the retry budget) is a
  // deterministic property of the scenario: one attempt, classified as
  // transport-exhausted, never respawned.
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.MaxRetries = 3;
  Fleet F = E.make(FO);
  FleetScenario S = cleanScn(0);
  S.Faults.PartitionRate = 1.0;
  S.Faults.PartitionMaxOutage = 30;
  S.Faults.MaxRetries = 2;
  FleetReport Rep = F.run({S});
  ASSERT_EQ(Rep.Outcomes.size(), 1u);
  EXPECT_EQ(Rep.Outcomes[0].Status, ScenarioStatus::TransportExhausted);
  EXPECT_EQ(Rep.Outcomes[0].Attempts, 1u);
  EXPECT_FALSE(Rep.Outcomes[0].LastFailure.empty());
}

TEST(Fleet, MatrixIsFullyAccountedAndBitExactUnderHostileFaults) {
  // A 12-scenario matrix mixing every hostile mode, both engines and a
  // sabotaged worker: every scenario must reach a terminal status and
  // every survivor must hash identical to the clean sequential run.
  FleetEnv E;
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2, 3};
  MS.CheckpointIntervals = {0, 4096};
  MS.Engines = {SimEngine::Rounds, SimEngine::Event};
  MS.Base.DropRate = 0.04;
  MS.Base.CorruptRate = 0.05;
  MS.Base.PartitionRate = 0.03;
  MS.Base.SlowLinkRate = 0.3;
  MS.Base.SlowLinkMaxFactor = 2.0;
  MS.Base.CrashRate = 5e-4;
  MS.Base.CrashSeed = 7;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  ASSERT_EQ(Matrix.size(), 12u);
  // Cells without checkpointing must have been scrubbed of crashes.
  for (const FleetScenario &S : Matrix)
    if (S.CheckpointInterval == 0)
      EXPECT_EQ(S.Faults.CrashRate, 0.0);

  FleetOptions FO;
  FO.Jobs = 4;
  FO.TimeoutSeconds = 60;
  FO.MaxRetries = 2;
  FO.RetryBackoffSeconds = 0.01;
  FO.AbortOnceScenarios = {5}; // one hostile worker in the middle
  Fleet F = E.make(FO);
  FleetReport Rep = F.run(Matrix);
  ASSERT_EQ(Rep.Outcomes.size(), Matrix.size());
  ASSERT_NE(Rep.GoldenHash, 0u);
  for (size_t I = 0; I != Rep.Outcomes.size(); ++I) {
    const ScenarioOutcome &O = Rep.Outcomes[I];
    EXPECT_EQ(O.Scn.Index, static_cast<unsigned>(I));
    if (O.ok())
      EXPECT_EQ(O.ResultHash, Rep.GoldenHash)
          << "scenario " << O.Scn.Index << " diverged";
  }
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), Matrix.size());
  // The sabotaged scenario recovered via retry.
  EXPECT_EQ(Rep.Outcomes[5].Attempts, 2u);
}

TEST(Fleet, JsonReportAccountsForEveryScenarioAndStatus) {
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 2;
  FO.MaxRetries = 1;
  FO.RetryBackoffSeconds = 0.01;
  FO.AbortScenarios = {1};
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0, 1), cleanScn(1, 2)});
  std::string J = Rep.json();
  EXPECT_NE(J.find("\"scenarios_total\": 2"), std::string::npos) << J;
  EXPECT_NE(J.find("\"ok\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"retry-exhausted\": 1"), std::string::npos) << J;
  EXPECT_NE(J.find("\"status\": \"ok\""), std::string::npos) << J;
  EXPECT_NE(J.find("\"status\": \"retry-exhausted\""), std::string::npos)
      << J;
  EXPECT_NE(J.find("\"hash_match\": true"), std::string::npos) << J;
  EXPECT_NE(J.find("\"golden_hash\": \"0x"), std::string::npos) << J;
}

TEST(Fleet, GroupedJsonNestsPerProgramReportsAndAggregatesTotals) {
  // The dmcc-fleet --programs axis renders one grouped document: each
  // program's complete report under its file name, plus cross-program
  // totals. Pin the shape with two real (tiny) runs.
  FleetEnv E;
  FleetOptions FO;
  FO.Jobs = 2;
  FO.MaxRetries = 1;
  FO.RetryBackoffSeconds = 0.01;
  Fleet F1 = E.make(FO);
  FleetReport R1 = F1.run({cleanScn(0, 1)});
  FO.AbortScenarios = {0};
  Fleet F2 = E.make(FO);
  FleetReport R2 = F2.run({cleanScn(0, 1)});
  std::string J = groupedFleetJson(
      {NamedFleetReport{"examples/a.dm", R1},
       NamedFleetReport{"examples/b.dm", R2}});
  EXPECT_NE(J.find("\"programs\": ["), std::string::npos) << J;
  EXPECT_NE(J.find("\"file\": \"examples/a.dm\""), std::string::npos)
      << J;
  EXPECT_NE(J.find("\"file\": \"examples/b.dm\""), std::string::npos)
      << J;
  // Each nested report keeps its own full shape...
  EXPECT_NE(J.find("\"report\": {"), std::string::npos) << J;
  EXPECT_NE(J.find("\"golden_hash\": \"0x"), std::string::npos) << J;
  // ...and the totals aggregate across programs.
  EXPECT_NE(J.find("\"totals\": {\"programs\": 2, "
                   "\"scenarios_total\": 2"),
            std::string::npos)
      << J;
  EXPECT_NE(J.find("\"retry-exhausted\": 1}}"), std::string::npos) << J;
}

TEST(Fleet, JournaledSweepResumesWithoutRerunningVerdicts) {
  // First sweep journals every verdict. The resumed sweep must restore
  // them all and re-run nothing: scenario 1 is sabotaged to abort on
  // EVERY attempt, so if it were re-run it could not come back Ok.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 2;
  FO.RetryBackoffSeconds = 0.01;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2),
                                       cleanScn(2, 3)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  EXPECT_EQ(A.count(ScenarioStatus::Ok), 3u);
  EXPECT_EQ(A.ResumedFromJournal, 0u);

  FO.Resume = true;
  FO.AbortScenarios = {0, 1, 2}; // any re-run would end retry-exhausted
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 3u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 3u);
  expectSameOutcomes(A, B);
}

TEST(Fleet, ResumeRequeuesScenariosWithoutAVerdict) {
  // A journal holding verdicts for only part of the matrix (what a
  // SIGKILL mid-sweep leaves behind): the resumed run must re-run
  // exactly the unjournaled scenarios and produce the full report.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2),
                                       cleanScn(2, 3), cleanScn(3, 4)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;
  EXPECT_EQ(A.count(ScenarioStatus::Ok), 4u);

  // Rewrite the journal keeping the meta record and the first two
  // verdicts — scenarios 2 and 3 are left with at most a start record.
  stable::ReadFramesResult RF = stable::readFrames(J.Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  std::vector<uint8_t> Cut;
  unsigned Verdicts = 0;
  constexpr uint32_t VerdictType = 0x464C5644u; // "FLVD"
  for (const stable::Frame &Fr : RF.Frames) {
    if (Fr.Type == VerdictType && Verdicts == 2)
      continue;
    if (Fr.Type == VerdictType)
      ++Verdicts;
    std::vector<uint8_t> Enc = stable::encodeFrame(Fr.Type, Fr.Payload);
    Cut.insert(Cut.end(), Enc.begin(), Enc.end());
  }
  std::string Err;
  ASSERT_TRUE(stable::atomicWriteFile(J.Path, Cut, Err)) << Err;

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 2u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 4u);
  expectSameOutcomes(A, B);
}

TEST(Fleet, TornJournalTailIsDiscardedOnResume) {
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  std::vector<FleetScenario> Matrix = {cleanScn(0, 1), cleanScn(1, 2)};
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run(Matrix);
  ASSERT_TRUE(A.Error.empty()) << A.Error;

  // Tear the last record like a SIGKILL mid-append: its verdict is
  // lost, so that scenario re-runs; the report still converges.
  FILE *Fp = std::fopen(J.Path.c_str(), "rb");
  ASSERT_NE(Fp, nullptr);
  std::fseek(Fp, 0, SEEK_END);
  long Size = std::ftell(Fp);
  std::fclose(Fp);
  ASSERT_GT(Size, 4);
  ASSERT_EQ(truncate(J.Path.c_str(), Size - 4), 0);

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run(Matrix);
  ASSERT_TRUE(B.Error.empty()) << B.Error;
  EXPECT_EQ(B.ResumedFromJournal, 1u);
  EXPECT_EQ(B.count(ScenarioStatus::Ok), 2u);
  expectSameOutcomes(A, B);
}

TEST(Fleet, ForeignJournalIsRejectedNotSilentlyTrusted) {
  // A journal written for a different matrix (different scenario count)
  // must abort the sweep with a usage error instead of resuming bogus
  // verdicts into the report.
  FleetEnv E;
  TempJournal J;
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  Fleet F1 = E.make(FO);
  FleetReport A = F1.run({cleanScn(0, 1)});
  ASSERT_TRUE(A.Error.empty()) << A.Error;

  FO.Resume = true;
  Fleet F2 = E.make(FO);
  FleetReport B = F2.run({cleanScn(0, 1), cleanScn(1, 2)});
  EXPECT_FALSE(B.Error.empty());
  EXPECT_FALSE(B.ErrorIsIo);
  EXPECT_NE(B.Error.find("does not belong"), std::string::npos)
      << B.Error;
}

TEST(Fleet, ResumeFromMissingJournalIsAFreshSweep) {
  FleetEnv E;
  TempJournal J; // never written: the path does not exist
  FleetOptions FO;
  FO.Jobs = 1;
  FO.JournalPath = J.Path;
  FO.Resume = true;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run({cleanScn(0, 1)});
  ASSERT_TRUE(Rep.Error.empty()) << Rep.Error;
  EXPECT_EQ(Rep.ResumedFromJournal, 0u);
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), 1u);
}

TEST(Fleet, BuildMatrixDefaultsToOneCleanCell) {
  std::vector<FleetScenario> M = buildMatrix(FleetMatrixSpec());
  ASSERT_EQ(M.size(), 1u);
  EXPECT_EQ(M[0].Index, 0u);
  EXPECT_EQ(M[0].CheckpointInterval, 0u);
  EXPECT_EQ(M[0].Engine, SimEngine::Rounds);
  EXPECT_FALSE(M[0].Faults.faulty());
}

TEST(Fleet, BuildMatrixCrossesTheEnginesAxis) {
  // The engines axis multiplies the matrix, and indices stay
  // contiguous.
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2};
  MS.Engines = {SimEngine::Rounds, SimEngine::Event};
  std::vector<FleetScenario> M = buildMatrix(MS);
  // 2 seeds x 2 engines = 4.
  ASSERT_EQ(M.size(), 4u);
  unsigned EventCells = 0;
  for (size_t I = 0; I != M.size(); ++I) {
    EXPECT_EQ(M[I].Index, static_cast<unsigned>(I));
    if (M[I].Engine == SimEngine::Event)
      ++EventCells;
  }
  EXPECT_EQ(EventCells, 2u);
}

TEST(Fleet, EventEngineScenariosHashIdenticalToTheCleanRun) {
  // Event-engine cells through the full fork/supervise/hash pipeline:
  // every survivor must be bit-identical to the clean sequential run.
  FleetEnv E;
  FleetMatrixSpec MS;
  MS.FaultSeeds = {1, 2};
  MS.CheckpointIntervals = {0, 4096};
  MS.Engines = {SimEngine::Event};
  MS.Base.DropRate = 0.05;
  MS.Base.CrashRate = 5e-4;
  MS.Base.CrashSeed = 7;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);
  ASSERT_EQ(Matrix.size(), 4u);
  FleetOptions FO;
  FO.Jobs = 2;
  FO.TimeoutSeconds = 60;
  Fleet F = E.make(FO);
  FleetReport Rep = F.run(Matrix);
  ASSERT_EQ(Rep.Outcomes.size(), 4u);
  EXPECT_EQ(Rep.count(ScenarioStatus::Ok), 4u);
  for (const ScenarioOutcome &O : Rep.Outcomes)
    EXPECT_EQ(O.ResultHash, Rep.GoldenHash)
        << "scenario " << O.Scn.Index << " diverged";
  EXPECT_NE(Rep.json().find("\"engine\": \"event\""), std::string::npos);
}

TEST(Fleet, BackoffAndDeadlineArithmeticIsClamped) {
  // Regression: the respawn backoff doubled unboundedly (2^attempt
  // overflows any clock for large budgets) and the watchdog deadline
  // cast an unchecked double into steady_clock ticks — UB past 63 bits
  // of nanoseconds. Both paths are now saturating and pinned here.
  EXPECT_EQ(clampedBackoffSeconds(0.05, 0), 0.05);
  EXPECT_EQ(clampedBackoffSeconds(0.05, 1), 0.05);
  EXPECT_EQ(clampedBackoffSeconds(0.05, 2), 0.10);
  EXPECT_EQ(clampedBackoffSeconds(0.05, 3), 0.20);
  EXPECT_EQ(clampedBackoffSeconds(0.05, 64), 60.0);
  EXPECT_EQ(clampedBackoffSeconds(0.05, UINT_MAX), 60.0);
  EXPECT_EQ(clampedBackoffSeconds(1e300, 2), 60.0);

  using Dur = std::chrono::steady_clock::duration;
  EXPECT_EQ(boundedSeconds(0.0), Dur::zero());
  EXPECT_EQ(boundedSeconds(-5.0), Dur::zero());
  EXPECT_EQ(boundedSeconds(std::nan("")), Dur::zero());
  EXPECT_EQ(boundedSeconds(1.5),
            std::chrono::duration_cast<Dur>(
                std::chrono::milliseconds(1500)));
  // Anything huge pins at the ~31-year cap instead of overflowing the
  // 63-bit tick range (1e18 s would be ~2^93 ns).
  Dur Cap = boundedSeconds(1e9);
  EXPECT_EQ(boundedSeconds(1e18), Cap);
  EXPECT_EQ(boundedSeconds(std::numeric_limits<double>::infinity()),
            Cap);
  EXPECT_GT(Cap, Dur::zero());
}
