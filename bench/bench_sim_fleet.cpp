//===- bench/bench_sim_fleet.cpp ------------------------------*- C++ -*-===//
//
// Fleet-runner throughput and survival study: LU decomposition swept
// through a hostile scenario matrix (fault seed x crash seed x
// checkpoint interval) under the fork-based orchestrator, with every
// hostile mode engaged (loss, duplication, corruption, transient
// partitions, straggler links, crash-stop with checkpoint/restart).
// Reports scenario throughput, per-status survival counts and aggregate
// transport telemetry as one JSON object.
//
// Every surviving scenario is hash-verified bit-identical to the clean
// sequential run inside the fleet itself; any mismatch fails the
// benchmark.
//
// Set DMCC_FAULT_BENCH_SMALL=1 to run at reduced scale.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Fleet.h"

#include <cstdio>
#include <cstdlib>

using namespace dmcc;

namespace {

const char *LUSource = R"(
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
)";

} // namespace

int main() {
  bool Small = std::getenv("DMCC_FAULT_BENCH_SMALL") != nullptr;
  const IntT N = Small ? 16 : 24;
  const IntT Procs = 4;

  Program P = parseProgramOrDie(LUSource);
  CompileSpec Spec;
  Decomposition D = cyclicData(P, 0, 0);
  Spec.Stmts.push_back(StmtPlan{0, ownerComputes(P, 0, D)});
  Spec.Stmts.push_back(StmtPlan{1, ownerComputes(P, 1, D)});
  Spec.InitialData.emplace(0, D);
  Spec.FinalData.emplace(0, D);
  CompiledProgram CP = compile(P, Spec);

  FleetMatrixSpec MS;
  for (uint64_t S = 1; S <= (Small ? 4u : 8u); ++S)
    MS.FaultSeeds.push_back(S);
  MS.CrashSeeds = {1, 2};
  MS.CheckpointIntervals = {0, 4096};
  MS.Base.DropRate = 0.04;
  MS.Base.DupRate = 0.02;
  MS.Base.CorruptRate = 0.05;
  MS.Base.PartitionRate = 0.03;
  MS.Base.PartitionMaxOutage = 3;
  MS.Base.SlowLinkRate = 0.3;
  MS.Base.SlowLinkMaxFactor = 2.5;
  MS.Base.CrashRate = 5e-4;
  std::vector<FleetScenario> Matrix = buildMatrix(MS);

  FleetOptions FO;
  FO.Jobs = 4;
  FO.TimeoutSeconds = 120;
  FO.MaxRetries = 2;
  Fleet F(P, CP, Spec, {{"N", N}}, Procs, FO);
  FleetReport Rep = F.run(Matrix);

  uint64_t Retrans = 0, Crashes = 0, Rollbacks = 0;
  unsigned TotalAttempts = 0;
  for (const ScenarioOutcome &O : Rep.Outcomes) {
    Retrans += O.Retransmissions;
    Crashes += O.Crashes;
    Rollbacks += O.Rollbacks;
    TotalAttempts += O.Attempts;
  }
  unsigned Ok = Rep.count(ScenarioStatus::Ok);
  unsigned Mismatch = Rep.count(ScenarioStatus::Mismatch);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"sim_fleet\",\n");
  std::printf("  \"case\": \"lu\",\n");
  std::printf("  \"n\": %lld,\n  \"procs\": %lld,\n  \"jobs\": %u,\n",
              static_cast<long long>(N), static_cast<long long>(Procs),
              FO.Jobs);
  std::printf("  \"scenarios\": %zu,\n", Matrix.size());
  std::printf("  \"elapsed_seconds\": %.3f,\n", Rep.ElapsedSeconds);
  std::printf("  \"scenarios_per_second\": %.2f,\n",
              Rep.ElapsedSeconds > 0
                  ? static_cast<double>(Matrix.size()) / Rep.ElapsedSeconds
                  : 0.0);
  std::printf("  \"worker_attempts\": %u,\n", TotalAttempts);
  std::printf(
      "  \"counts\": {\"ok\": %u, \"mismatch\": %u, \"deadlock\": %u, "
      "\"transport_exhausted\": %u, \"timeout\": %u, \"worker_crash\": "
      "%u, \"retry_exhausted\": %u},\n",
      Ok, Mismatch, Rep.count(ScenarioStatus::Deadlock),
      Rep.count(ScenarioStatus::TransportExhausted),
      Rep.count(ScenarioStatus::Timeout),
      Rep.count(ScenarioStatus::WorkerCrash),
      Rep.count(ScenarioStatus::RetryExhausted));
  std::printf("  \"retransmissions\": %llu,\n"
              "  \"crashes\": %llu,\n  \"rollbacks\": %llu,\n",
              static_cast<unsigned long long>(Retrans),
              static_cast<unsigned long long>(Crashes),
              static_cast<unsigned long long>(Rollbacks));
  std::printf("  \"notes\": \"every ok scenario hash-verified "
              "bit-identical to the clean sequential run; drop/dup/"
              "corrupt/partition/slow-link/crash modes all engaged\"\n");
  std::printf("}\n");

  if (Mismatch || Ok != Matrix.size()) {
    std::fprintf(stderr,
                 "bench_sim_fleet: %u of %zu scenarios not ok "
                 "(%u mismatch)\n",
                 static_cast<unsigned>(Matrix.size()) - Ok, Matrix.size(),
                 Mismatch);
    return 1;
  }
  return 0;
}
