//===- sim/Fleet.cpp ------------------------------------------*- C++ -*-===//

#include "sim/Fleet.h"

#include "support/StableStore.h"

#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dmcc;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// SplitMix64 finalizer, as in FaultModel.cpp: the fleet's final-array
/// hash must be a pure function of the array contents so parent and
/// child agree without shipping the arrays over the pipe.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

uint64_t combine(uint64_t H, uint64_t X) { return mix64(H ^ mix64(X)); }

/// Hashes every final-data array of a completed functional run, in
/// array-id order, element by element (bit pattern of the double, or a
/// sentinel for missing elements). Both the parent's clean run and each
/// child's scenario run sweep through this same code, so equal hashes
/// mean bit-identical final arrays.
uint64_t hashFinalArrays(Simulator &Sim, const Program &P,
                         const CompileSpec &Spec,
                         const std::map<std::string, IntT> &Params) {
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  uint64_t H = mix64(0xF1EE7ull);
  for (const auto &[AId, FD] : Spec.FinalData) {
    (void)FD;
    H = combine(H, AId + 1);
    const ArrayDecl &AD = P.array(AId);
    std::vector<IntT> Sizes;
    for (const AffineExpr &D : AD.DimSizes)
      Sizes.push_back(D.evaluate(Env));
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = Sizes.empty();
    for (IntT S : Sizes)
      if (S <= 0)
        Done = true;
    while (!Done) {
      auto Got = Sim.finalValue(AId, Idx);
      if (Got) {
        uint64_t Bits;
        double V = *Got;
        std::memcpy(&Bits, &V, sizeof Bits);
        H = combine(H, Bits);
      } else {
        H = combine(H, 0xDEADull); // distinct mark for a missing element
      }
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
  return H;
}

/// Child-side terminal classification, shipped through the pipe.
enum ChildStatus : int32_t {
  ChildOk = 0,
  ChildMismatch = 1,
  ChildDeadlock = 2,
  ChildTransportExhausted = 3,
};

/// Fixed-size result record a worker writes to its pipe in one atomic
/// write (well under PIPE_BUF). Anything short of a full record with
/// the right magic is treated as a worker crash.
struct WireResult {
  uint32_t Magic = 0;
  int32_t Status = 0;
  double Makespan = 0;
  uint64_t Retrans = 0;
  uint64_t Crashes = 0;
  uint64_t Rollbacks = 0;
  uint64_t Hash = 0;
  char Error[96] = {};
};

constexpr uint32_t WireMagic = 0x464C5452; // "FLTR"

/// Resume-journal frame types (DESIGN.md §13) and payload version.
constexpr uint32_t JrnlMetaType = 0x464C4D54;    // "FLMT"
constexpr uint32_t JrnlStartType = 0x464C5354;   // "FLST"
constexpr uint32_t JrnlVerdictType = 0x464C5644; // "FLVD"
constexpr uint32_t JournalVersion = 1;

/// Number of ScenarioStatus values, for validating journaled verdicts.
constexpr uint32_t NumScenarioStatuses = 7;

/// Appends minimally-escaped JSON string content.
void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
}

} // namespace

const char *dmcc::scenarioStatusName(ScenarioStatus S) {
  switch (S) {
  case ScenarioStatus::Ok:
    return "ok";
  case ScenarioStatus::Mismatch:
    return "mismatch";
  case ScenarioStatus::Deadlock:
    return "deadlock";
  case ScenarioStatus::TransportExhausted:
    return "transport-exhausted";
  case ScenarioStatus::Timeout:
    return "timeout";
  case ScenarioStatus::WorkerCrash:
    return "worker-crash";
  case ScenarioStatus::RetryExhausted:
    return "retry-exhausted";
  }
  return "unknown";
}

unsigned FleetReport::count(ScenarioStatus S) const {
  unsigned N = 0;
  for (const ScenarioOutcome &O : Outcomes)
    N += O.Status == S;
  return N;
}

std::string FleetReport::json() const {
  std::string Out;
  char Buf[512];
  std::snprintf(Buf, sizeof Buf,
                "{\n  \"golden_hash\": \"0x%016" PRIx64 "\",\n"
                "  \"elapsed_seconds\": %.3f,\n  \"jobs\": %u,\n"
                "  \"scenarios_total\": %zu,\n  \"counts\": {",
                GoldenHash, ElapsedSeconds, Jobs, Outcomes.size());
  Out += Buf;
  static const ScenarioStatus All[] = {
      ScenarioStatus::Ok,       ScenarioStatus::Mismatch,
      ScenarioStatus::Deadlock, ScenarioStatus::TransportExhausted,
      ScenarioStatus::Timeout,  ScenarioStatus::WorkerCrash,
      ScenarioStatus::RetryExhausted};
  for (unsigned I = 0; I != 7; ++I) {
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": %u", I ? ", " : "",
                  scenarioStatusName(All[I]), count(All[I]));
    Out += Buf;
  }
  Out += "},\n  \"scenarios\": [\n";
  for (size_t I = 0; I != Outcomes.size(); ++I) {
    const ScenarioOutcome &O = Outcomes[I];
    const FaultOptions &F = O.Scn.Faults;
    std::snprintf(
        Buf, sizeof Buf,
        "    {\"index\": %u, \"fault_seed\": %" PRIu64
        ", \"crash_seed\": %" PRIu64 ", \"checkpoint_interval\": %" PRIu64
        ", \"engine\": \"%s\", \"drop_rate\": %g, "
        "\"corrupt_rate\": %g, "
        "\"partition_rate\": %g, \"slow_link_rate\": %g, "
        "\"crash_rate\": %g, \"status\": \"%s\", \"attempts\": %u, "
        "\"makespan_seconds\": %.9f, \"retransmissions\": %" PRIu64
        ", \"crashes\": %" PRIu64 ", \"rollbacks\": %" PRIu64
        ", \"hash\": \"0x%016" PRIx64 "\", \"hash_match\": %s, "
        "\"last_failure\": \"",
        O.Scn.Index, F.Seed, F.CrashSeed, O.Scn.CheckpointInterval,
        O.Scn.Engine == SimEngine::Event ? "event" : "rounds",
        F.DropRate, F.CorruptRate, F.PartitionRate,
        F.SlowLinkRate, F.CrashRate, scenarioStatusName(O.Status),
        O.Attempts, O.MakespanSeconds, O.Retransmissions, O.Crashes,
        O.Rollbacks, O.ResultHash,
        O.ok() && O.ResultHash == GoldenHash ? "true" : "false");
    Out += Buf;
    appendEscaped(Out, O.LastFailure);
    Out += "\"}";
    Out += I + 1 != Outcomes.size() ? ",\n" : "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

std::string
dmcc::groupedFleetJson(const std::vector<NamedFleetReport> &Reports) {
  size_t Total = 0;
  double Elapsed = 0;
  unsigned Counts[7] = {};
  static const ScenarioStatus All[] = {
      ScenarioStatus::Ok,       ScenarioStatus::Mismatch,
      ScenarioStatus::Deadlock, ScenarioStatus::TransportExhausted,
      ScenarioStatus::Timeout,  ScenarioStatus::WorkerCrash,
      ScenarioStatus::RetryExhausted};
  for (const NamedFleetReport &R : Reports) {
    Total += R.Report.Outcomes.size();
    Elapsed += R.Report.ElapsedSeconds;
    for (unsigned I = 0; I != 7; ++I)
      Counts[I] += R.Report.count(All[I]);
  }

  std::string Out = "{\n  \"programs\": [\n";
  char Buf[256];
  for (size_t I = 0; I != Reports.size(); ++I) {
    Out += "    {\"file\": \"";
    appendEscaped(Out, Reports[I].File);
    Out += "\",\n     \"report\": ";
    std::string Rep = Reports[I].Report.json();
    while (!Rep.empty() && Rep.back() == '\n')
      Rep.pop_back();
    Out += Rep;
    Out += I + 1 != Reports.size() ? "},\n" : "}\n";
  }
  std::snprintf(Buf, sizeof Buf,
                "  ],\n  \"totals\": {\"programs\": %zu, "
                "\"scenarios_total\": %zu, \"elapsed_seconds\": %.3f, "
                "\"counts\": {",
                Reports.size(), Total, Elapsed);
  Out += Buf;
  for (unsigned I = 0; I != 7; ++I) {
    std::snprintf(Buf, sizeof Buf, "%s\"%s\": %u", I ? ", " : "",
                  scenarioStatusName(All[I]), Counts[I]);
    Out += Buf;
  }
  Out += "}}\n}\n";
  return Out;
}

std::vector<FleetScenario> dmcc::buildMatrix(const FleetMatrixSpec &MS) {
  auto OrDefault = [](std::vector<uint64_t> V,
                      uint64_t D) -> std::vector<uint64_t> {
    return V.empty() ? std::vector<uint64_t>{D} : V;
  };
  std::vector<uint64_t> FSeeds = OrDefault(MS.FaultSeeds, 1);
  std::vector<uint64_t> CSeeds = OrDefault(MS.CrashSeeds, 0);
  std::vector<uint64_t> Intervals = OrDefault(MS.CheckpointIntervals, 0);
  std::vector<SimEngine> Engines =
      MS.Engines.empty() ? std::vector<SimEngine>{SimEngine::Rounds}
                         : MS.Engines;

  std::vector<FleetScenario> Out;
  for (uint64_t FS : FSeeds)
    for (uint64_t CS : CSeeds)
      for (uint64_t IV : Intervals)
        for (SimEngine Eng : Engines) {
          FleetScenario S;
          S.Index = static_cast<unsigned>(Out.size());
          S.Faults = MS.Base;
          S.Faults.Seed = FS;
          S.Faults.CrashSeed = CS;
          // A crash without checkpointing is unrecoverable by
          // construction; keep those cells crash-free instead of
          // polluting the matrix with guaranteed losses.
          if (IV == 0)
            S.Faults.CrashRate = 0;
          S.CheckpointInterval = IV;
          S.Engine = Eng;
          Out.push_back(std::move(S));
        }
  return Out;
}

std::chrono::steady_clock::duration dmcc::boundedSeconds(double Seconds) {
  // NaN fails every comparison, so `!(Seconds > 0)` also catches it.
  if (!(Seconds > 0))
    return {};
  // steady_clock counts nanoseconds in 63 bits (~292 years); casting a
  // double beyond that range is undefined behavior, not a saturated
  // deadline. ~31 years is far past any plausible watchdog or backoff.
  constexpr double MaxSeconds = 1e9;
  if (Seconds > MaxSeconds)
    Seconds = MaxSeconds;
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(Seconds));
}

double dmcc::clampedBackoffSeconds(double FirstSeconds, unsigned Attempt) {
  constexpr double MaxBackoffSeconds = 60;
  double Back = FirstSeconds;
  for (unsigned K = 1; K < Attempt && Back < MaxBackoffSeconds; ++K)
    Back *= 2;
  return Back < MaxBackoffSeconds ? Back : MaxBackoffSeconds;
}

Fleet::Fleet(const Program &Prog, const CompiledProgram &Comp,
             const CompileSpec &Sp, std::map<std::string, IntT> Par,
             IntT Pr, FleetOptions Opt)
    : P(Prog), CP(Comp), Spec(Sp), Params(std::move(Par)), Procs(Pr),
      FO(Opt) {
  if (FO.Jobs == 0)
    FO.Jobs = 1;
}

SimOptions Fleet::scenarioOptions(const FleetScenario &S) const {
  SimOptions SO;
  SO.PhysGrid = {Procs};
  SO.ParamValues = Params;
  SO.Functional = true;
  SO.CollapseLoops = false;
  SO.Faults = S.Faults;
  SO.Checkpoint.IntervalSteps = S.CheckpointInterval;
  SO.Engine = S.Engine;
  return SO;
}

uint64_t Fleet::goldenHash() {
  if (!GoldenComputed) {
    FleetScenario Clean; // all fault knobs at defaults, sequential
    Simulator Sim(P, CP, Spec, scenarioOptions(Clean));
    SimResult R = Sim.run();
    Golden = R.Ok ? hashFinalArrays(Sim, P, Spec, Params) : 0;
    GoldenComputed = true;
  }
  return Golden;
}

/// Per-shard supervision state. Shard k owns scenarios k, k+Jobs,
/// k+2*Jobs, ... and runs them in order, one child at a time.
struct Fleet::Shard {
  std::deque<unsigned> Queue; ///< matrix positions still to run
  bool HasCur = false;
  unsigned Cur = 0;      ///< scenario currently being supervised
  unsigned Attempt = 0;  ///< spawns consumed for Cur
  pid_t Pid = -1;        ///< active child, or -1
  int Fd = -1;           ///< read end of the child's result pipe
  Clock::time_point Deadline;  ///< watchdog expiry for the child
  Clock::time_point NextSpawn; ///< earliest respawn (backoff)
};

FleetReport Fleet::run(const std::vector<FleetScenario> &Matrix) {
  Clock::time_point T0 = Clock::now();
  FleetReport Rep;
  Rep.Jobs = FO.Jobs;
  Rep.GoldenHash = goldenHash();
  Rep.Outcomes.resize(Matrix.size());
  for (size_t I = 0; I != Matrix.size(); ++I)
    Rep.Outcomes[I].Scn = Matrix[I];

  // Resume journal (DESIGN.md §13): replay verdicts already on disk,
  // then open for appending with any torn tail cut off.
  stable::JournalWriter Jrnl;
  std::vector<char> Done(Matrix.size(), 0);
  bool MetaOnDisk = false;
  if (!FO.JournalPath.empty()) {
    uint64_t TruncateTo = 0;
    if (FO.Resume) {
      stable::ReadFramesResult RF = stable::readFrames(FO.JournalPath);
      // A missing/unreadable journal resumes as a fresh sweep — the
      // kill may have landed before the journal was even created.
      if (RF.Error.empty()) {
        TruncateTo = RF.ValidBytes;
        for (const stable::Frame &F : RF.Frames) {
          stable::ByteReader Rd(F.Payload);
          if (F.Type == JrnlMetaType) {
            uint32_t Ver = Rd.u32();
            uint64_t Count = Rd.u64(), Golden = Rd.u64();
            if (Ver != JournalVersion || Count != Matrix.size() ||
                Golden != Rep.GoldenHash || !Rd.ok()) {
              Rep.Error = "resume journal does not belong to this "
                          "matrix (scenario count, golden hash or "
                          "version differ): " +
                          FO.JournalPath;
              return Rep;
            }
            MetaOnDisk = true;
          } else if (F.Type == JrnlVerdictType) {
            uint32_t Index = Rd.u32(), Status = Rd.u32(),
                     Attempts = Rd.u32();
            double Makespan = Rd.f64();
            uint64_t Retrans = Rd.u64(), Crashes = Rd.u64(),
                     Rollbacks = Rd.u64(), Hash = Rd.u64();
            std::string LastFailure = Rd.str();
            // Verdicts are trusted only under an intact, matching meta
            // record; anything malformed is ignored rather than fatal.
            if (!MetaOnDisk || !Rd.ok() || Index >= Matrix.size() ||
                Status >= NumScenarioStatuses)
              continue;
            ScenarioOutcome &O = Rep.Outcomes[Index];
            O.Status = static_cast<ScenarioStatus>(Status);
            O.Attempts = Attempts;
            O.MakespanSeconds = Makespan;
            O.Retransmissions = Retrans;
            O.Crashes = Crashes;
            O.Rollbacks = Rollbacks;
            O.ResultHash = Hash;
            O.LastFailure = std::move(LastFailure);
            if (!Done[Index]) {
              Done[Index] = 1;
              ++Rep.ResumedFromJournal;
            }
          }
          // Start records carry no verdict: a started-but-unverdicted
          // scenario was in flight at the kill and is simply re-queued.
        }
      }
    }
    std::string Err;
    if (!Jrnl.open(FO.JournalPath, TruncateTo, Err)) {
      Rep.Error = "resume journal: " + Err;
      Rep.ErrorIsIo = true;
      return Rep;
    }
  }
  // Any journal I/O failure after this point aborts the sweep: a fleet
  // asked to be durable must not silently run without its journal.
  auto JournalAppend = [&](uint32_t Type,
                           const stable::ByteWriter &W) -> bool {
    if (!Jrnl.isOpen())
      return true;
    std::string Err;
    if (Jrnl.append(Type, W.bytes(), Err))
      return true;
    Rep.Error = "resume journal: " + Err;
    Rep.ErrorIsIo = true;
    return false;
  };
  if (Jrnl.isOpen() && !MetaOnDisk) {
    stable::ByteWriter W;
    W.u32(JournalVersion);
    W.u64(Matrix.size());
    W.u64(Rep.GoldenHash);
    if (!JournalAppend(JrnlMetaType, W))
      return Rep;
  }

  std::vector<Shard> Shards(FO.Jobs);
  for (size_t I = 0; I != Matrix.size(); ++I)
    if (!Done[I])
      Shards[I % FO.Jobs].Queue.push_back(static_cast<unsigned>(I));

  // SIGPIPE would kill the orchestrator if a child's pipe went away
  // mid-write; the supervisor only reads, but be explicit.
  signal(SIGPIPE, SIG_IGN);

  auto Spawn = [&](Shard &Sh) {
    const FleetScenario &S = Matrix[Sh.Cur];
    int Fds[2];
    if (pipe(Fds) != 0) {
      Sh.NextSpawn = Clock::now() + std::chrono::milliseconds(10);
      return;
    }
    ++Sh.Attempt;
    pid_t Pid = fork();
    if (Pid == 0) {
      // --- child ---
      close(Fds[0]);
      if (FO.HangScenarios.count(S.Index))
        for (;;)
          pause(); // sabotage: wedge until the watchdog fires
      if (FO.AbortScenarios.count(S.Index) ||
          (FO.AbortOnceScenarios.count(S.Index) && Sh.Attempt == 1)) {
        struct rlimit RL = {0, 0};
        setrlimit(RLIMIT_CORE, &RL); // no core file for the sabotage
        std::abort();
      }
      WireResult W;
      W.Magic = WireMagic;
      Simulator Sim(P, CP, Spec, scenarioOptions(S));
      SimResult R = Sim.run();
      W.Makespan = R.MakespanSeconds;
      W.Retrans = R.Retransmissions;
      W.Crashes = R.Recovery.Crashes;
      W.Rollbacks = R.Recovery.Rollbacks;
      if (!R.Ok) {
        W.Status = R.Diag.RetryExhausted.empty()
                       ? ChildDeadlock
                       : ChildTransportExhausted;
        std::snprintf(W.Error, sizeof W.Error, "%s", R.Error.c_str());
      } else {
        W.Hash = hashFinalArrays(Sim, P, Spec, Params);
        W.Status = W.Hash == Golden ? ChildOk : ChildMismatch;
      }
      ssize_t N = write(Fds[1], &W, sizeof W);
      (void)N;
      _exit(0); // no stdio flush: the parent owns the terminal
    }
    // --- parent ---
    close(Fds[1]);
    if (Pid < 0) {
      close(Fds[0]);
      --Sh.Attempt;
      Sh.NextSpawn = Clock::now() + std::chrono::milliseconds(10);
      return;
    }
    Sh.Pid = Pid;
    Sh.Fd = Fds[0];
    Sh.Deadline = Clock::now() + boundedSeconds(FO.TimeoutSeconds);
  };

  unsigned Remaining =
      static_cast<unsigned>(Matrix.size()) - Rep.ResumedFromJournal;

  // Terminal bookkeeping for the shard's current scenario.
  auto Finish = [&](Shard &Sh, ScenarioOutcome O) {
    // Keep the failure trail of earlier retried attempts even when a
    // respawn eventually succeeded.
    if (O.LastFailure.empty())
      O.LastFailure = Rep.Outcomes[Sh.Cur].LastFailure;
    O.Scn = Matrix[Sh.Cur];
    O.Attempts = Sh.Attempt;
    Rep.Outcomes[Sh.Cur] = std::move(O);
    Sh.HasCur = false;
    Sh.Attempt = 0;
    --Remaining;
    // The verdict hits stable storage before the scenario is considered
    // done, so a resumed sweep never re-runs a verified scenario.
    const ScenarioOutcome &Fin = Rep.Outcomes[Sh.Cur];
    stable::ByteWriter W;
    W.u32(Fin.Scn.Index);
    W.u32(static_cast<uint32_t>(Fin.Status));
    W.u32(Fin.Attempts);
    W.f64(Fin.MakespanSeconds);
    W.u64(Fin.Retransmissions);
    W.u64(Fin.Crashes);
    W.u64(Fin.Rollbacks);
    W.u64(Fin.ResultHash);
    W.str(Fin.LastFailure);
    (void)JournalAppend(JrnlVerdictType, W);
  };

  // A retryable failure (timeout / worker crash): respawn with
  // exponential backoff until the budget runs out.
  auto FailRetryable = [&](Shard &Sh, ScenarioStatus Kind,
                           std::string Why) {
    ScenarioOutcome &O = Rep.Outcomes[Sh.Cur];
    O.LastFailure = std::move(Why);
    if (Sh.Attempt <= FO.MaxRetries) {
      Sh.NextSpawn =
          Clock::now() + boundedSeconds(clampedBackoffSeconds(
                             FO.RetryBackoffSeconds, Sh.Attempt));
      return;
    }
    ScenarioOutcome Fin;
    Fin.LastFailure = O.LastFailure;
    // With no retry budget the raw failure is the verdict; once
    // retries were attempted and spent, the scenario is classified as
    // retry-exhausted with the last failure recorded.
    Fin.Status = FO.MaxRetries == 0 ? Kind : ScenarioStatus::RetryExhausted;
    Finish(Sh, std::move(Fin));
  };

  // Reap one finished child (already waited on) and classify it.
  auto Classify = [&](Shard &Sh, int WaitStatus, bool Timedout) {
    WireResult W;
    ssize_t N = 0;
    if (!Timedout) {
      // Drain the (at most record-sized, atomic) result write.
      char *Dst = reinterpret_cast<char *>(&W);
      while (N < static_cast<ssize_t>(sizeof W)) {
        ssize_t Got = read(Sh.Fd, Dst + N, sizeof W - N);
        if (Got <= 0)
          break;
        N += Got;
      }
    }
    close(Sh.Fd);
    Sh.Fd = -1;
    Sh.Pid = -1;
    if (Timedout) {
      char Buf[96];
      std::snprintf(Buf, sizeof Buf,
                    "watchdog timeout after %.3f s (attempt %u)",
                    FO.TimeoutSeconds, Sh.Attempt);
      FailRetryable(Sh, ScenarioStatus::Timeout, Buf);
      return;
    }
    bool Structured = N == static_cast<ssize_t>(sizeof W) &&
                      W.Magic == WireMagic && WIFEXITED(WaitStatus) &&
                      WEXITSTATUS(WaitStatus) == 0;
    if (!Structured) {
      char Buf[96];
      if (WIFSIGNALED(WaitStatus))
        std::snprintf(Buf, sizeof Buf,
                      "worker killed by signal %d (attempt %u)",
                      WTERMSIG(WaitStatus), Sh.Attempt);
      else
        std::snprintf(Buf, sizeof Buf,
                      "worker exited with status %d (attempt %u)",
                      WIFEXITED(WaitStatus) ? WEXITSTATUS(WaitStatus)
                                            : -1,
                      Sh.Attempt);
      FailRetryable(Sh, ScenarioStatus::WorkerCrash, Buf);
      return;
    }
    ScenarioOutcome O;
    O.MakespanSeconds = W.Makespan;
    O.Retransmissions = W.Retrans;
    O.Crashes = W.Crashes;
    O.Rollbacks = W.Rollbacks;
    O.ResultHash = W.Hash;
    switch (W.Status) {
    case ChildOk:
      O.Status = ScenarioStatus::Ok;
      break;
    case ChildMismatch:
      O.Status = ScenarioStatus::Mismatch;
      break;
    case ChildTransportExhausted:
      O.Status = ScenarioStatus::TransportExhausted;
      O.LastFailure = W.Error;
      break;
    default:
      O.Status = ScenarioStatus::Deadlock;
      O.LastFailure = W.Error;
      break;
    }
    Finish(Sh, std::move(O));
  };

  while (Remaining) {
    bool Progress = false;
    for (Shard &Sh : Shards) {
      if (Sh.Pid < 0) {
        if (!Sh.HasCur) {
          if (Sh.Queue.empty())
            continue;
          Sh.Cur = Sh.Queue.front();
          Sh.Queue.pop_front();
          Sh.HasCur = true;
          Sh.Attempt = 0;
          Sh.NextSpawn = Clock::now();
          // Journal the take-up: a kill between here and the verdict
          // leaves a started-but-unverdicted record, which resume
          // re-queues.
          stable::ByteWriter W;
          W.u32(Matrix[Sh.Cur].Index);
          (void)JournalAppend(JrnlStartType, W);
        }
        if (Clock::now() >= Sh.NextSpawn) {
          Spawn(Sh);
          Progress = true;
        }
        continue;
      }
      int WaitStatus = 0;
      pid_t Got = waitpid(Sh.Pid, &WaitStatus, WNOHANG);
      if (Got == Sh.Pid) {
        Classify(Sh, WaitStatus, /*Timedout=*/false);
        Progress = true;
      } else if (Got == 0 && Clock::now() > Sh.Deadline) {
        kill(Sh.Pid, SIGKILL);
        waitpid(Sh.Pid, &WaitStatus, 0);
        Classify(Sh, WaitStatus, /*Timedout=*/true);
        Progress = true;
      }
    }
    if (!Rep.Error.empty()) {
      // A journal append failed: the durability contract is broken, so
      // stop the sweep instead of running on without it. Reap every
      // outstanding child first.
      for (Shard &Sh : Shards)
        if (Sh.Pid > 0) {
          kill(Sh.Pid, SIGKILL);
          int WS = 0;
          waitpid(Sh.Pid, &WS, 0);
          if (Sh.Fd >= 0)
            close(Sh.Fd);
          Sh.Pid = -1;
          Sh.Fd = -1;
        }
      break;
    }
    if (!Progress && Remaining) {
      struct timespec TS = {0, 2 * 1000 * 1000}; // 2 ms sweep
      nanosleep(&TS, nullptr);
    }
  }

  Rep.ElapsedSeconds = secondsSince(T0);
  return Rep;
}
