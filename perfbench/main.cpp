//===- perfbench/main.cpp - The dmcc benchmark harness ---------*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one named workload for a fixed time and prints one JSON object.
/// An operation is one program taken from `.dm` text to a makespan and,
/// in functional mode, to arrays verified by the program's own
/// SeqInterpreter -- what `dmcc-cli FILE --simulate P [--functional]`
/// does -- followed by the benchmark's independent checks
/// (Reference.h). A round runs every operation of the workload once;
/// runs repeat whole rounds and report per-round medians.
///
/// With --trace 1, rounds alternate untraced and traced. Traced rounds
/// record a span around each call into the program, keep the spans in
/// memory, write them as Chrome trace-event JSON when the run ends, and
/// give the per-layer metrics; the untraced rounds give the baseline for
/// the tracing overhead. See README.md for the metric map.
///
//===----------------------------------------------------------------------===//

#include "Reference.h"
#include "core/SpecParser.h"
#include "ir/Interp.h"
#include "math/Projection.h"
#include "sim/Simulator.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dmcc;
using namespace dmcc::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Each span notes the span open when it began
/// (its parent) and the operation it belongs to.
class Tracer {
public:
  struct Event {
    std::string Name;
    double Start = 0, End = 0; ///< seconds since the run began
    int Parent = -1;
    unsigned Op = 0;
  };

  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {}

  int open(const char *Name) {
    Events.push_back({Name, now(), 0, Open.empty() ? -1 : Open.back(), Op});
    Open.push_back(static_cast<int>(Events.size()) - 1);
    return Open.back();
  }
  void close(int I) {
    Events[static_cast<size_t>(I)].End = now();
    Open.pop_back();
  }
  void beginOp() { ++Op; }
  const std::vector<Event> &events() const { return Events; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "{\"traceEvents\":[";
    for (size_t I = 0; I != Events.size(); ++I) {
      const Event &E = Events[I];
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d}}",
                    E.Start * 1e6, (E.End - E.Start) * 1e6, E.Op, E.Parent);
      Out << (I ? ",\n" : "\n") << "{\"name\":\"" << E.Name << "\"," << Buf;
    }
    Out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(Out);
  }

private:
  double now() const { return secondsSince(Epoch); }

  Clock::time_point Epoch;
  std::vector<Event> Events;
  std::vector<int> Open;
  unsigned Op = 0;
};

/// RAII span; a no-op without a tracer, so untraced rounds pay nothing.
class Span {
public:
  Span(Tracer *T, const char *Name) : T(T) {
    if (T)
      I = T->open(Name);
  }
  ~Span() {
    if (T)
      T->close(I);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  int I = -1;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One program of a workload: a spec under examples/, parameter
/// overrides (the rest keep the file's defaults) and a machine.
struct Case {
  std::string Spec;
  Params Overrides;
  IntT Procs = 4;
  bool Functional = true;
};

struct Workload {
  std::string Name;
  std::vector<Case> Cases;
  bool Hostile = false;
};

std::optional<Workload> makeWorkload(const std::string &Name, bool Quick) {
  Workload W{Name, {}, false};
  if (Name == "lu-functional")
    W.Cases = {{"lu", {{"N", Quick ? 24 : 160}}, Quick ? 4 : 16, true}};
  else if (Name == "lu-scale")
    W.Cases = {{"lu", {{"N", Quick ? 64 : 1024}}, Quick ? 16 : 256, false}};
  else if (Name == "suite-compile") {
    // The specs' own parameter defaults are the small sizes.
    for (const char *S : {"adi", "cholesky", "floyd", "jacobi2d", "jacobi3d",
                          "lu", "stencil"})
      W.Cases.push_back({S, {}, 4, true});
  } else if (Name == "lu-hostile") {
    W.Cases = {{"lu", {{"N", Quick ? 24 : 96}}, Quick ? 4 : 8, true}};
    W.Hostile = true;
  } else
    return std::nullopt;
  return W;
}

/// lu-hostile's lossy, corrupting network and crash-stop schedule; the
/// seeds are set per operation. The crash rate gives about twenty
/// crashes per run at full size, so every schedule crashes at least once.
FaultOptions hostileFaults(bool Quick) {
  FaultOptions F;
  F.DropRate = 0.05;
  F.CorruptRate = 0.02;
  F.CrashRate = Quick ? 2e-3 : 5e-5;
  return F;
}

/// In-memory coordinated checkpoints. Durable (fsync) checkpoints are
/// left out: disk flush time measures the machine, not the program.
CheckpointOptions hostileCheckpoints(bool Quick) {
  CheckpointOptions C;
  C.IntervalSteps = Quick ? 500 : 20000;
  return C;
}

/// splitmix64: the benchmark's only source of seeded randomness.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The machine is an input too: the seed draws each iPSC/860-class cost
/// constant within +-1% of its default, so makespan_s is a function of
/// the seed while the generated code and the host work stay the same.
CostModel seededCost(uint64_t Seed) {
  CostModel C;
  uint64_t S = mix(Seed ^ 0xc057c057ull);
  auto Jitter = [&S](double &V) {
    S = mix(S);
    V *= 1.0 + 0.02 * (static_cast<double>(S >> 11) * 0x1p-53 - 0.5);
  };
  for (double *V : {&C.FlopTime, &C.IterOverhead, &C.MsgLatency,
                    &C.SendPerWord, &C.RecvPerWord, &C.WireTimePerWord,
                    &C.MulticastExtraDest, &C.SendIssueOverhead})
    Jitter(*V);
  return C;
}

//===----------------------------------------------------------------------===//
// References (computed once per run, apart from the program)
//===----------------------------------------------------------------------===//

struct Prepared {
  const Case *C = nullptr;
  std::string Text;     ///< the .dm source
  Params Pm;            ///< file defaults plus overrides
  std::map<unsigned, std::vector<double>> RefArrays; ///< by array id
  uint64_t MinWords = 0;
  std::optional<uint64_t> Flops; ///< closed form, where one exists
  /// lu-hostile: logical traffic of a fault-free run over the same
  /// reliable transport.
  uint64_t ReliableMessages = 0, ReliableWords = 0;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

//===----------------------------------------------------------------------===//
// One operation
//===----------------------------------------------------------------------===//

struct OpOut {
  bool Ok = false; ///< the program reported success
  std::string Error;
  /// Wall times of the calls behind the end-to-end metrics; the other
  /// layers are timed by their spans in traced rounds.
  double Parse = 0, Compile = 0, Ctor = 0, Run = 0;
  /// Benchmark-only probing inside the operation (SPMD text size, cache
  /// entry count), excluded from Total.
  double Probe = 0;
  double Total = 0;
  CompileStats Stats;
  uint64_t SpmdBytes = 0, CacheEntries = 0;
  SimResult R;
  std::map<unsigned, std::vector<double>> Final; ///< readout, row-major
};

/// dmcc-cli's path from .dm text to a makespan and verified arrays,
/// with each call into the program timed.
OpOut runOp(const Prepared &Pc, const SimOptions &SO, Tracer *Tr) {
  OpOut O;
  // A cold compile, as in a fresh dmcc-cli process.
  clearProjectionCaches();
  Span Root(Tr, Pc.C->Spec.c_str());
  const Clock::time_point T0 = Clock::now();
  auto finish = [&]() { O.Total = secondsSince(T0) - O.Probe; };

  std::optional<SpecParseOutput> SP;
  {
    Span S(Tr, "frontend.parse");
    auto A = Clock::now();
    SP.emplace(parseWithSpec(Pc.Text));
    O.Parse = secondsSince(A);
  }
  if (!SP->ok()) {
    O.Error = "parse error: " + SP->Error;
    finish();
    return O;
  }
  const Program &P = *SP->Prog;
  std::optional<CompiledProgram> CP;
  {
    Span S(Tr, "compile");
    auto A = Clock::now();
    CP.emplace(compile(P, SP->Spec));
    O.Compile = secondsSince(A);
  }
  if (!CP->Ok) {
    O.Error = "compile error: " + CP->ErrorMessage;
    finish();
    return O;
  }
  {
    Span S(Tr, "bench.probe");
    auto A = Clock::now();
    O.Stats = CP->Stats;
    O.SpmdBytes = CP->Spmd.str().size();
    O.CacheEntries = projectionCacheEntries();
    O.Probe = secondsSince(A);
  }
  std::optional<Simulator> Sim;
  {
    Span S(Tr, "sim.ctor");
    auto A = Clock::now();
    Sim.emplace(P, *CP, SP->Spec, SO);
    O.Ctor = secondsSince(A);
  }
  {
    Span S(Tr, "sim.run");
    auto A = Clock::now();
    O.R = Sim->run();
    O.Run = secondsSince(A);
  }
  O.Ok = O.R.Ok;
  if (!O.R.Ok)
    O.Error = "simulation failed: " + O.R.Error;
  std::optional<SeqInterpreter> Gold;
  if (O.R.Ok && SO.Functional) {
    {
      Span S(Tr, "ir.interp");
      Gold.emplace(P, Pc.Pm);
      Gold->run();
    }
    Span S(Tr, "sim.readout");
    std::vector<IntT> Env(P.space().size(), 0);
    for (unsigned I = 0; I != P.space().size(); ++I)
      if (P.space().kind(I) == VarKind::Param)
        Env[I] = Pc.Pm.at(P.space().name(I));
    uint64_t Missing = 0, Wrong = 0;
    for (const auto &[AId, FD] : SP->Spec.FinalData) {
      (void)FD;
      std::vector<IntT> Sizes;
      for (const AffineExpr &D : P.array(AId).DimSizes)
        Sizes.push_back(D.evaluate(Env));
      std::vector<double> &Out = O.Final[AId];
      std::vector<IntT> Idx(Sizes.size(), 0);
      bool Done = Sizes.empty();
      for (IntT Sz : Sizes)
        Done = Done || Sz <= 0;
      while (!Done) {
        std::optional<double> V = Sim->finalValue(AId, Idx);
        if (!V)
          ++Missing;
        else if (*V != Gold->arrayValue(AId, Idx))
          ++Wrong;
        Out.push_back(V ? *V : std::numeric_limits<double>::quiet_NaN());
        for (unsigned K = Idx.size(); K-- > 0;) {
          if (++Idx[K] < Sizes[K])
            break;
          Idx[K] = 0;
          Done = K == 0;
        }
      }
    }
    if (Missing || Wrong) {
      O.Ok = false;
      O.Error = "verification: " + std::to_string(Missing) + " missing, " +
                std::to_string(Wrong) + " wrong";
    }
  }
  {
    Span S(Tr, "sim.teardown");
    Gold.reset();
    Sim.reset();
    CP.reset();
    SP.reset();
  }
  finish();
  return O;
}

/// The benchmark's own checks of one successful operation against the
/// independent references. Returns one line per violated check.
std::vector<std::string> checkOp(const Prepared &Pc, const OpOut &O,
                                 const SimOptions &SO, bool Hostile) {
  std::vector<std::string> Bad;
  auto fail = [&](std::string Why) {
    Bad.push_back(Pc.C->Spec + ": " + std::move(Why));
  };
  const SimResult &R = O.R;
  if (SO.Functional)
    for (const auto &[AId, Ref] : Pc.RefArrays) {
      auto It = O.Final.find(AId);
      if (It == O.Final.end() || It->second.size() != Ref.size()) {
        fail("array " + std::to_string(AId) + " missing from the readout");
        continue;
      }
      size_t Diff = 0;
      for (size_t I = 0; I != Ref.size(); ++I)
        Diff += std::bit_cast<uint64_t>(It->second[I]) !=
                std::bit_cast<uint64_t>(Ref[I]);
      if (Diff)
        fail("array " + std::to_string(AId) + ": " + std::to_string(Diff) +
             " of " + std::to_string(Ref.size()) +
             " elements differ from the reference kernel");
    }
  if (R.Words < Pc.MinWords)
    fail("words " + std::to_string(R.Words) + " below the minimum " +
         std::to_string(Pc.MinWords));
  if (Pc.Flops && R.Flops != *Pc.Flops)
    fail("flops " + std::to_string(R.Flops) + " != closed form " +
         std::to_string(*Pc.Flops));
  const double Work = static_cast<double>(R.Flops) * SO.Cost.FlopTime /
                      static_cast<double>(Pc.C->Procs);
  if (!(R.MakespanSeconds >= Work))
    fail("makespan below the work bound flops * FlopTime / P");
  if (Hostile) {
    if (R.Recovery.Crashes < 1 || R.Recovery.Rollbacks < 1)
      fail("the fault schedule caused no crash and rollback");
    if (R.Messages != Pc.ReliableMessages || R.Words != Pc.ReliableWords)
      fail("logical traffic " + std::to_string(R.Messages) + " messages / " +
           std::to_string(R.Words) + " words differs from the fault-free "
           "reliable run's " + std::to_string(Pc.ReliableMessages) + " / " +
           std::to_string(Pc.ReliableWords));
  }
  return Bad;
}

/// A check that cannot fail proves nothing: feed the checker a copy of
/// a passing operation with one array element moved by one ulp, and one
/// with its words undercounted below the minimum; both must be caught.
std::vector<std::string> selfCheck(const Prepared &Pc, const OpOut &O,
                                   const SimOptions &SO, bool Hostile) {
  std::vector<std::string> Bad;
  if (SO.Functional && !O.Final.empty()) {
    OpOut Perturbed = O;
    std::vector<double> &A = Perturbed.Final.begin()->second;
    double &V = A[A.size() / 2];
    V = std::nextafter(V, std::numeric_limits<double>::infinity());
    if (checkOp(Pc, Perturbed, SO, Hostile).empty())
      Bad.push_back("a perturbed array element passed the checks");
  }
  if (Pc.MinWords > 0) {
    OpOut Under = O;
    Under.R.Words = Pc.MinWords - 1;
    if (checkOp(Pc, Under, SO, Hostile).empty())
      Bad.push_back("an undercounted words figure passed the checks");
  } else {
    Bad.push_back(Pc.C->Spec + ": minimum words is 0, so the words check "
                               "cannot fail");
  }
  return Bad;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},     {"compile_s", "s"},      {"simulate_s", "s"},
    {"total_s", "s"},     {"makespan_s", "sim_s"}, {"messages", "count"},
    {"words", "count"},   {"peak_rss_mb", "MB"},
};

const MetricDef PerLayer[] = {
    {"frontend.parse_s", "s"},
    {"math.lexopt_s", "s"},
    {"math.feas_queries", "count"},
    {"math.feas_cache_lookups", "count"},
    {"math.feas_cache_hit_ratio", "ratio"},
    {"math.fm_elims", "count"},
    {"math.unknown_verdicts", "count"},
    {"math.cache_entries", "count"},
    {"dataflow.lwt_s", "s"},
    {"dataflow.lwt_contexts", "count"},
    {"comm.commsets_s", "s"},
    {"comm.finalize_s", "s"},
    {"comm.sets", "count"},
    {"comm.multicast_sets", "count"},
    {"comm.channels", "count"},
    {"comm.min_words", "count"},
    {"comm.words_over_min", "ratio"},
    {"codegen.scan_s", "s"},
    {"codegen.emit_s", "s"},
    {"codegen.split_s", "s"},
    {"codegen.spmd_bytes", "bytes"},
    {"codegen.guards_eliminated", "count"},
    {"compile.unattributed_s", "s"},
    {"compile.partition_gap_s", "s"},
    {"sim.ctor_s", "s"},
    {"sim.run_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.compute_iters", "count"},
    {"sim.busy_imbalance", "ratio"},
    {"sim.retransmissions", "count"},
    {"sim.checkpoints", "count"},
    {"sim.checkpoint_bytes", "bytes"},
    {"sim.rollbacks", "count"},
    {"sim.replayed_steps", "count"},
    {"sim.model_compute_s", "sim_s"},
    {"sim.model_protocol_s", "sim_s"},
    {"sim.model_checkpoint_s", "sim_s"},
    {"sim.model_recovery_s", "sim_s"},
    {"sim.readout_s", "s"},
    {"sim.teardown_s", "s"},
    {"ir.interp_s", "s"},
    {"bench.check_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.unaccounted_s", "s"},
};

/// Compile phases that have a per-layer row of their own.
const char *const PhaseRows[] = {"math.lexopt",    "dataflow.lwt",
                                 "comm.commsets",  "comm.finalize",
                                 "codegen.scan",   "codegen.emit",
                                 "codegen.split"};

/// Spans whose durations are per-layer times ("<name>_s").
const char *const LayerSpans[] = {"frontend.parse", "sim.ctor",
                                  "sim.run",        "ir.interp",
                                  "sim.readout",    "sim.teardown"};

/// What one round adds up over its operations: the end-to-end sums,
/// and in traced rounds the per-layer sums too.
using Sums = std::map<std::string, double>;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

double medianOf(const std::vector<Sums> &Rounds, const std::string &Key) {
  std::vector<double> V;
  for (const Sums &R : Rounds) {
    auto It = R.find(Key);
    V.push_back(It == R.end() ? 0.0 : It->second);
  }
  return median(V);
}

void addEndToEnd(Sums &M, const OpOut &O) {
  M["setup_s"] += O.Parse + O.Ctor;
  M["compile_s"] += O.Compile;
  M["simulate_s"] += O.Run;
  M["total_s"] += O.Total;
  M["makespan_s"] += O.R.MakespanSeconds;
  M["messages"] += static_cast<double>(O.R.Messages);
  M["words"] += static_cast<double>(O.R.Words);
}

/// Per-layer sums of one operation that do not come from its spans.
void addLayers(Sums &M, const OpOut &O, const Prepared &Pc) {
  const CompileStats &St = O.Stats;
  double PhaseSum = 0;
  for (const PhaseProfile &Ph : St.Phases) {
    PhaseSum += Ph.Seconds;
    for (const char *Row : PhaseRows)
      if (Ph.Name == Row)
        M[Ph.Name + "_s"] += Ph.Seconds;
  }
  const double Unattributed = St.CompileSeconds - PhaseSum;
  M["compile.unattributed_s"] += Unattributed;
  M["compile.partition_gap_s"] += O.Compile - (PhaseSum + Unattributed);
  const ProjectionStats &PS = St.Proj;
  M["math.feas_queries"] += static_cast<double>(PS.FeasQueries);
  M["math.feas_cache_hits"] += static_cast<double>(PS.FeasCacheHits);
  M["math.feas_cache_lookups"] +=
      static_cast<double>(PS.FeasCacheHits + PS.FeasCacheMisses);
  M["math.fm_elims"] += static_cast<double>(PS.FmEliminations);
  M["math.unknown_verdicts"] += static_cast<double>(PS.FeasUnknown);
  M["math.cache_entries"] += static_cast<double>(O.CacheEntries);
  M["dataflow.lwt_contexts"] += St.NumLWTContexts;
  M["comm.sets"] += St.NumCommSetsAfterSelfReuse + St.NumFinalizationSets;
  M["comm.multicast_sets"] += St.NumMulticastSets;
  M["comm.channels"] += St.NumCommChannels;
  M["comm.min_words"] += static_cast<double>(Pc.MinWords);
  M["codegen.spmd_bytes"] += static_cast<double>(O.SpmdBytes);
  M["codegen.guards_eliminated"] += St.GuardsEliminated;
  const SimResult &R = O.R;
  M["sim.events"] += static_cast<double>(R.TotalEvents);
  M["sim.compute_iters"] += static_cast<double>(R.ComputeIterations);
  if (!R.PhysBusy.empty()) {
    double Max = 0, Sum = 0;
    for (double B : R.PhysBusy) {
      Max = std::max(Max, B);
      Sum += B;
    }
    M["sim.busy_max"] += Max;
    M["sim.busy_mean"] += Sum / static_cast<double>(R.PhysBusy.size());
  }
  M["sim.retransmissions"] += static_cast<double>(R.Retransmissions);
  M["sim.checkpoints"] += static_cast<double>(R.Recovery.CheckpointsTaken);
  M["sim.checkpoint_bytes"] += static_cast<double>(R.Recovery.CheckpointBytes);
  M["sim.rollbacks"] += static_cast<double>(R.Recovery.Rollbacks);
  M["sim.replayed_steps"] += static_cast<double>(R.Recovery.ReplayedSteps);
  M["sim.model_compute_s"] += R.Recovery.ComputeSeconds;
  M["sim.model_protocol_s"] += R.Recovery.ProtocolSeconds;
  M["sim.model_checkpoint_s"] += R.Recovery.CheckpointSeconds;
  M["sim.model_recovery_s"] += R.Recovery.RecoverySeconds;
}

/// Ratios of a round's sums, each over its own base.
void finishLayers(Sums &M) {
  auto ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  M["math.feas_cache_hit_ratio"] =
      ratio(M["math.feas_cache_hits"], M["math.feas_cache_lookups"]);
  M["comm.words_over_min"] = ratio(M["words"], M["comm.min_words"]);
  M["sim.events_per_s"] = ratio(M["sim.events"], M["sim.run_s"]);
  M["sim.busy_imbalance"] = ratio(M["sim.busy_max"], M["sim.busy_mean"]);
}

void printMetric(bool &First, const char *Name, double V, const char *Unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              First ? "" : ", ", Name, V, Unit);
  First = false;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload, Root = ".", TraceOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, Quick = false;
  /// lu-hostile's network (drop and corruption) and crash-stop seeds.
  uint64_t FaultSeed = 1, CrashSeed = 1;
  SimEngine Engine = SimEngine::Rounds;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "                 [--root DIR] [--trace-out FILE] [--quick]\n"
               "                 [--fault-seed N] [--crash-seed N] "
               "[--engine rounds|event]\n"
               "workloads: lu-functional lu-scale suite-compile "
               "lu-hostile\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    if (F == "--quick") {
      A.Quick = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (F == "--workload")
      A.Workload = V;
    else if (F == "--root")
      A.Root = V;
    else if (F == "--trace-out")
      A.TraceOut = V;
    else if (F == "--seed")
      A.Seed = std::strtoull(V, &End, 10);
    else if (F == "--fault-seed")
      A.FaultSeed = std::strtoull(V, &End, 10);
    else if (F == "--crash-seed")
      A.CrashSeed = std::strtoull(V, &End, 10);
    else if (F == "--seconds")
      A.Seconds = std::strtod(V, &End);
    else if (F == "--trace")
      A.Trace = std::strtol(V, &End, 10) != 0;
    else if (F == "--engine") {
      if (std::strcmp(V, "event") == 0)
        A.Engine = SimEngine::Event;
      else if (std::strcmp(V, "rounds") != 0)
        return false;
    } else
      return false;
    if (End && *End)
      return false;
  }
  return !A.Workload.empty() && A.Seconds >= 0;
}

/// Reads, parses and computes every reference of one case.
bool prepare(const Args &A, const Workload &W, const Case &C, Prepared &Pc) {
  Pc.C = &C;
  const std::string Path = A.Root + "/examples/" + C.Spec + ".dm";
  if (!readFile(Path, Pc.Text)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    return false;
  }
  SpecParseOutput SP = parseWithSpec(Pc.Text);
  if (!SP.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", Path.c_str(),
                 SP.Error.c_str());
    return false;
  }
  Pc.Pm = C.Overrides;
  for (const auto &[Name, V] : SP.ParamDefaults)
    Pc.Pm.emplace(Name, V);
  // Performance mode computes no values, so it has no arrays to check.
  for (auto &[Name, Contents] :
       C.Functional ? referenceArrays(C.Spec, Pc.Pm)
                    : std::map<std::string, std::vector<double>>()) {
    int Id = SP.Prog->arrayIdOf(Name);
    if (Id < 0) {
      std::fprintf(stderr, "perfbench: %s has no array %s\n", Path.c_str(),
                   Name.c_str());
      return false;
    }
    Pc.RefArrays[static_cast<unsigned>(Id)] = std::move(Contents);
  }
  if (C.Functional && Pc.RefArrays.empty()) {
    std::fprintf(stderr, "perfbench: no reference kernel for %s\n",
                 C.Spec.c_str());
    return false;
  }
  if (C.Spec == "lu") {
    const IntT N = Pc.Pm.at("N");
    Pc.Flops = luFlops(N);
    Pc.MinWords = luMinWords(N, C.Procs);
    // Where the pass fits in memory, it must agree with the closed form.
    if ((N + 1) * (N + 1) * C.Procs <= (IntT(1) << 26) &&
        minWords("lu", Pc.Pm, C.Procs) != Pc.MinWords) {
      std::fprintf(stderr, "perfbench: LU minimum-words pass and closed "
                           "form disagree\n");
      return false;
    }
  } else {
    Pc.MinWords = minWords(C.Spec, Pc.Pm, C.Procs);
  }
  if (W.Hostile) {
    // Fault-free, over the reliable transport the faults switch on.
    CompiledProgram CP = compile(*SP.Prog, SP.Spec);
    SimOptions SO;
    SO.PhysGrid = {C.Procs};
    SO.ParamValues = Pc.Pm;
    SO.Faults.AlwaysReliable = true;
    SimResult R = Simulator(*SP.Prog, CP, SP.Spec, SO).run();
    if (!R.Ok) {
      std::fprintf(stderr, "perfbench: fault-free reliable run failed: %s\n",
                   R.Error.c_str());
      return false;
    }
    Pc.ReliableMessages = R.Messages;
    Pc.ReliableWords = R.Words;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return usage();
  std::optional<Workload> W = makeWorkload(A.Workload, A.Quick);
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return usage();
  }
  const Clock::time_point Start = Clock::now();
  std::vector<Prepared> Cases(W->Cases.size());
  for (size_t I = 0; I != Cases.size(); ++I)
    if (!prepare(A, *W, W->Cases[I], Cases[I]))
      return 1;
  const double RefSeconds = secondsSince(Start);
  const Clock::time_point MeasureStart = Clock::now();

  // One SimOptions per case, fixed for the whole run.
  std::vector<SimOptions> Opts;
  for (const Prepared &Pc : Cases) {
    SimOptions SO;
    SO.PhysGrid = {Pc.C->Procs};
    SO.ParamValues = Pc.Pm;
    SO.Functional = Pc.C->Functional;
    SO.CollapseLoops = !Pc.C->Functional;
    SO.Cost = seededCost(A.Seed);
    SO.Engine = A.Engine;
    if (W->Hostile) {
      SO.Faults = hostileFaults(A.Quick);
      SO.Faults.Seed = A.FaultSeed;
      SO.Faults.CrashSeed = A.CrashSeed;
      SO.Checkpoint = hostileCheckpoints(A.Quick);
    }
    Opts.push_back(SO);
  }

  Tracer Tr(Start);
  std::vector<Sums> Plain, Traced;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true, SelfChecked = false;
  std::vector<uint64_t> CaseWords(Cases.size()); // for the stderr summary
  double MaxUnaccounted = 0, MaxGap = 0;
  auto report = [&Correct](const std::vector<std::string> &Bad) {
    for (const std::string &B : Bad)
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", B.c_str());
    Correct = Correct && Bad.empty();
  };

  for (unsigned RoundNo = 0;; ++RoundNo) {
    const bool Tracing = A.Trace && RoundNo % 2 == 1;
    Sums Rd;
    double RoundCheck = 0;
    const size_t FirstEvent = Tr.events().size();
    const Clock::time_point RoundStart = Clock::now();
    for (size_t I = 0; I != Cases.size(); ++I) {
      const Prepared &Pc = Cases[I];
      const SimOptions &SO = Opts[I];
      Tr.beginOp();
      OpOut O = runOp(Pc, SO, Tracing ? &Tr : nullptr);
      ++Attempted;
      RoundCheck += O.Probe;
      if (!O.Ok) {
        ++Failed;
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     Pc.C->Spec.c_str(), O.Error.c_str());
        continue;
      }
      auto T = Clock::now();
      report(checkOp(Pc, O, SO, W->Hostile));
      if (!SelfChecked) {
        report(selfCheck(Pc, O, SO, W->Hostile));
        SelfChecked = true;
      }
      RoundCheck += secondsSince(T);
      addEndToEnd(Rd, O);
      CaseWords[I] = O.R.Words;
      if (Tracing) {
        addLayers(Rd, O, Pc);
        // Partition check: the phase rows plus the unattributed rest
        // make up the compile call's wall time.
        double Gap = O.Compile - O.Stats.CompileSeconds;
        MaxGap = std::max(MaxGap, std::abs(Gap));
        if (std::abs(Gap) > 1e-3 + 0.01 * O.Compile)
          report({Pc.C->Spec + ": compile phase rows miss " +
                  std::to_string(Gap) + " s of compile_s"});
      }
    }
    if (Tracing) {
      // Per-layer times from the spans, and the span partition check:
      // the children of each operation's root span account for its
      // total apart from the benchmark's probe.
      const auto &Ev = Tr.events();
      std::map<int, double> ChildSum, Probe;
      for (size_t E = FirstEvent; E != Ev.size(); ++E) {
        const Tracer::Event &X = Ev[E];
        const double D = X.End - X.Start;
        if (X.Parent >= 0 && Ev[static_cast<size_t>(X.Parent)].Parent < 0)
          (X.Name == "bench.probe" ? Probe : ChildSum)[X.Parent] += D;
        for (const char *L : LayerSpans)
          if (X.Name == L)
            Rd[X.Name + "_s"] += D;
      }
      for (size_t E = FirstEvent; E != Ev.size(); ++E) {
        const Tracer::Event &X = Ev[E];
        if (X.Parent >= 0)
          continue;
        const double Total = X.End - X.Start - Probe[static_cast<int>(E)];
        const double Un = Total - ChildSum[static_cast<int>(E)];
        Rd["trace.unaccounted_s"] += Un;
        MaxUnaccounted = std::max(MaxUnaccounted, std::abs(Un));
        if (std::abs(Un) > 1e-3 + 0.01 * Total)
          report({X.Name + ": layer spans miss " + std::to_string(Un) +
                  " s of the operation"});
      }
      Rd["bench.check_s"] = RoundCheck;
      finishLayers(Rd);
    }
    std::fprintf(stderr,
                 "perfbench: round %u%s: compile %.4f s, simulate %.4f s, "
                 "total %.4f s\n",
                 RoundNo, Tracing ? " (traced)" : "", Rd["compile_s"],
                 Rd["simulate_s"], Rd["total_s"]);
    (Tracing ? Traced : Plain).push_back(std::move(Rd));
    // Stop before a round that would overrun the measuring time; trace
    // runs stop only after a traced round, so both kinds are equal in
    // number. Every run has at least one round of each kind it needs.
    const double Last = secondsSince(RoundStart);
    const double Next = A.Trace ? 2 * Last : Last;
    if ((!A.Trace || Tracing) &&
        secondsSince(MeasureStart) + Next > A.Seconds)
      break;
  }

  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  const double PeakMb = static_cast<double>(RU.ru_maxrss) / 1024.0;

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu untraced + %zu traced rounds, "
               "%llu operations, references %.3f s, max partition gaps "
               "%.2e s (compile) %.2e s (spans)\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               Plain.size(), Traced.size(),
               static_cast<unsigned long long>(Attempted), RefSeconds,
               MaxGap, MaxUnaccounted);
  for (size_t I = 0; I != Cases.size(); ++I)
    std::fprintf(stderr, "perfbench:   %-9s words %llu, minimum %llu\n",
                 Cases[I].C->Spec.c_str(),
                 static_cast<unsigned long long>(CaseWords[I]),
                 static_cast<unsigned long long>(Cases[I].MinWords));
  if (A.Trace && !A.TraceOut.empty() && !Tr.write(A.TraceOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", A.TraceOut.c_str());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  bool First = true;
  if (!A.Trace) {
    for (const MetricDef &M : EndToEnd)
      printMetric(First, M.Name,
                  std::strcmp(M.Name, "peak_rss_mb") == 0
                      ? PeakMb
                      : medianOf(Plain, M.Name),
                  M.Unit);
  } else {
    for (const MetricDef &M : PerLayer) {
      double V = std::strcmp(M.Name, "trace.overhead_s") == 0
                     ? medianOf(Traced, "total_s") - medianOf(Plain, "total_s")
                     : medianOf(Traced, M.Name);
      printMetric(First, M.Name, V, M.Unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
