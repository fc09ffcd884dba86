//===- sim/Simulator.cpp --------------------------------------*- C++ -*-===//

#include "sim/Simulator.h"

#include "ir/Interp.h"
#include "support/StableStore.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <unordered_map>

using namespace dmcc;

namespace {

/// Checked parameter lookup: a missing binding is a usage error, not UB.
dmcc::IntT paramValue(const std::map<std::string, dmcc::IntT> &Params,
                      const std::string &Name) {
  auto It = Params.find(Name);
  if (It == Params.end()) {
    std::string Msg = "Simulator: missing value for parameter '" + Name +
                      "'";
    dmcc::fatalError(Msg.c_str());
  }
  return It->second;
}

/// Number of floating-point operations in a statement's right-hand side.
unsigned countFlops(const Statement &S) {
  unsigned N = 0;
  for (const RVal &R : S.RPool)
    if (R.K == RVal::Kind::Add || R.K == RVal::Kind::Sub ||
        R.K == RVal::Kind::Mul || R.K == RVal::Kind::Div ||
        R.K == RVal::Kind::Select)
      ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Internal structures
//===----------------------------------------------------------------------===//

struct Simulator::Message {
  std::vector<double> Data; ///< functional payload
  uint64_t WordCount = 0;
  double ReadyTime = 0;
  /// Multicast content is consumed directly from the communication
  /// buffer (Section 5.5), so the receiver pays no per-word copy.
  bool FromMulticast = false;
  /// Reliable-transport sequence number on this channel (0 when the
  /// transport is bypassed).
  uint64_t Seq = 0;
};

struct Simulator::Frame {
  const std::vector<SpmdStmt> *List = nullptr;
  unsigned Pos = 0;
  const SpmdStmt *LoopStmt = nullptr; ///< non-null for loop body frames
  IntT LoopCur = 0, LoopHi = 0;
};

/// The part of a virtual processor a coordinated checkpoint snapshots
/// and a rollback (or durable resume) restores, as one unit.
struct Simulator::ProcState {
  std::vector<IntT> Env;
  std::vector<IntT> ProgEnv;
  std::vector<Frame> Stack;
  bool Finished = false;
  /// Logical time: statements this incarnation has executed. Restored on
  /// rollback, so replay passes through the same (proc, step) points.
  uint64_t Steps = 0;
  std::map<std::pair<unsigned, IntT>, double> Store;
  int LastMulticastComm = -1;
  /// Physical destinations already served within the current multicast
  /// burst (one wire message per physical processor, Section 6.1.3).
  std::set<unsigned> BurstPhys;
  double BurstReady = 0;
  /// Cached packed content of the current multicast burst (the content is
  /// receiver-independent, so it is packed once per burst).
  int CachedPackComm = -1;
  std::vector<double> CachedData;
  uint64_t CachedCount = 0;
};

struct Simulator::VirtProc : Simulator::ProcState {
  std::vector<IntT> Coord;
  unsigned Id = 0;   ///< flat index in Procs: crash-schedule identity
  unsigned Phys = 0;
  bool Blocked = false;
  /// Killed by the crash-stop schedule and not yet rolled back: executes
  /// nothing, and its volatile state is considered lost.
  bool Crashed = false;
  /// What this processor was waiting for the last time it blocked; the
  /// deadlock detector reads it to build the structured diagnostic.
  PendingRecv LastBlock;

  ProcState &state() { return *this; }
  const ProcState &state() const { return *this; }
};

/// One coordinated checkpoint in the stable store: everything a rollback
/// must restore. Taken at statement boundaries between scheduler rounds,
/// so it is a consistent cut by construction; the receive queues stand in
/// for the channel state a distributed protocol would record with
/// markers. Clocks and the monotonic overhead counters are deliberately
/// not restored — wall-model time and wasted wire traffic never rewind.
struct Simulator::Checkpoint {
  std::vector<ProcState> Procs;
  std::map<std::vector<IntT>, std::vector<Message>> Queues;
  std::map<std::vector<IntT>, uint64_t> SendSeq, RecvSeq;
  std::vector<TransportFailure> Failures;
  /// Counters at the checkpoint line; a rollback rewinds the logical
  /// ones to these so recovered runs report the same logical traffic as
  /// fault-free ones.
  SimCounters Ctr;
  /// Useful-work bucket values at the line; the delta at rollback is the
  /// undone work that moves into the recovery bucket.
  std::vector<double> BusyCompute, BusyProtocol, BusyCheckpoint;
  uint64_t EventsAtTaken = 0;
  /// Snapshot size per physical processor in 8-byte words, charged again
  /// as the stable-store read on restore.
  std::vector<uint64_t> WordsPerPhys;
};

/// The discrete-event scheduler (DESIGN.md §14). The rounds engine
/// sweeps every virtual processor every round; at P >= 1024 most of
/// those slices are blocked receive attempts — pure no-ops that rewind
/// their own step counters and touch nothing else. This engine executes
/// the exact same statement sequence while skipping the provable
/// no-ops: a blocked receiver parks in a per-channel hash bucket
/// (WaitTable) and only the send that pushes onto its channel can make
/// its next attempt differ, so the push wakes it in O(1) and nothing
/// else ever reschedules it. Ascending-index pops plus the wake rule
/// below reproduce the sequential intra-round visibility exactly, which
/// is what makes the results — clocks, counters, arrays, diagnostics —
/// bit-identical (the determinism argument is spelled out in §14).
struct Simulator::EventEngine {
  Simulator &S;

  /// SplitMix64-style hash over a channel key, for the wait buckets.
  /// The durable Queues map stays an ordered std::map (serialization
  /// order is part of the on-disk format); this hash is auxiliary.
  struct KeyHash {
    size_t operator()(const std::vector<IntT> &K) const {
      uint64_t H = 0x9e3779b97f4a7c15ull;
      for (IntT X : K) {
        uint64_t V = static_cast<uint64_t>(X) + 0x9e3779b97f4a7c15ull;
        V = (V ^ (V >> 30)) * 0xbf58476d1ce4e5b9ull;
        V = (V ^ (V >> 27)) * 0x94d049bb133111ebull;
        H ^= (V ^ (V >> 31)) + (H << 6) + (H >> 2);
      }
      return static_cast<size_t>(H);
    }
  };

  /// Processors runnable this round / next round. Ordered sets: the
  /// round drains RunQ in ascending flat index, which IS the sequential
  /// sweep order restricted to non-skippable slices.
  std::set<unsigned> RunQ, NextQ;
  /// Channel key -> the one processor blocked receiving on it (a key
  /// names its receiver coordinate, so at most one waiter per key).
  std::unordered_map<std::vector<IntT>, unsigned, KeyHash> WaitTable;
  /// Inverse of WaitTable for cleanup; empty when the proc is not
  /// parked. Every live unfinished processor is in exactly one of
  /// RunQ, NextQ or WaitTable.
  std::vector<std::vector<IntT>> WaitKeyOf;
  unsigned Running = 0; ///< proc whose slice is executing
  bool InRound = false;
  uint64_t FinishedCount = 0, DeadCount = 0;

  explicit EventEngine(Simulator &S) : S(S) { reset(); }

  /// Rebuild the scheduler state from the processor flags — at
  /// construction (possibly after a durable resume) and after a
  /// rollback, which reincarnates dead processors and unblocks all.
  void reset() {
    RunQ.clear();
    NextQ.clear();
    WaitTable.clear();
    WaitKeyOf.assign(S.Procs.size(), {});
    FinishedCount = DeadCount = 0;
    InRound = false;
    for (const VirtProc &V : S.Procs) {
      if (V.Finished)
        ++FinishedCount;
      else
        RunQ.insert(V.Id);
    }
  }

  /// A message landed on \p Key: if its receiver is parked, its next
  /// attempt is no longer a provable no-op — reschedule it. A waiter
  /// with an index above the running processor re-enters the CURRENT
  /// round (ascending pops have not reached it, exactly as the
  /// sequential sweep had not); at or below, it sees the message next
  /// round, matching the rounds engine's intra-round visibility.
  void notifyPush(const std::vector<IntT> &Key) {
    auto It = WaitTable.find(Key);
    if (It == WaitTable.end())
      return;
    unsigned W = It->second;
    WaitTable.erase(It);
    WaitKeyOf[W].clear();
    if (InRound && W > Running)
      RunQ.insert(W);
    else
      NextQ.insert(W);
  }

  /// Visits \p Id's processor with the checkpoint gate already crossed,
  /// exactly as the sequential sweep does: the slice performs only
  /// frame maintenance (popping exhausted frames, advancing loop
  /// cursors) before gate-returning with zero executed statements. It
  /// cannot block or crash (the gate check precedes both), but it CAN
  /// finish — and it trims the stack, which checkpoint snapshots
  /// serialize, so skipping the visit would change CheckpointBytes and
  /// the per-phys checkpoint cost.
  void gateVisit(unsigned Id) {
    VirtProc &V = S.Procs[Id];
    V.Blocked = false;
    S.stepProc(V, this); // executes nothing past the gate
    if (V.Finished)
      ++FinishedCount;
  }

  /// One scheduler round: the sequential round with the skippable
  /// slices skipped. Flags are computed from the standing counts so
  /// the boundary logic in run() is shared verbatim across engines.
  RoundFlags runRound() {
    RoundFlags F;
    // A round starting with the checkpoint gate already tripped (a dead
    // processor made run() skip the boundary checkpoint): every slice
    // of the sequential sweep gate-returns after frame maintenance.
    // Replicate the visits for the runnable processors; parked ones
    // have no pending maintenance (their cursor rests on the receive
    // statement) and must keep Blocked — reportStall reads the flag if
    // the rollback budget later runs out, and a parked processor is
    // never revisited to set it back.
    if (S.NextCheckpointEvents != 0 && S.Events >= S.NextCheckpointEvents) {
      std::vector<unsigned> Runnable(RunQ.begin(), RunQ.end());
      for (unsigned Id : Runnable) {
        gateVisit(Id);
        if (S.Procs[Id].Finished)
          RunQ.erase(Id);
      }
      F.Progress = false;
      F.AllDone = FinishedCount == S.Procs.size();
      F.AnyDead = DeadCount > 0;
      return F;
    }
    InRound = true;
    bool GateCut = false;
    while (!RunQ.empty()) {
      Running = *RunQ.begin();
      RunQ.erase(RunQ.begin());
      VirtProc &V = S.Procs[Running];
      V.Blocked = false;
      if (S.stepProc(V, this))
        F.Progress = true;
      if (V.Crashed) {
        ++DeadCount; // parked nowhere until the rollback reset
      } else if (V.Finished) {
        ++FinishedCount;
      } else if (V.Blocked) {
        // Park on the channel the receive is stuck on; the key layout
        // matches the one the Recv path builds (comm id, sender coord,
        // own coord).
        std::vector<IntT> Key;
        Key.reserve(1 + V.LastBlock.Peer.size() + V.Coord.size());
        Key.push_back(static_cast<IntT>(V.LastBlock.CommId));
        Key.insert(Key.end(), V.LastBlock.Peer.begin(),
                   V.LastBlock.Peer.end());
        Key.insert(Key.end(), V.Coord.begin(), V.Coord.end());
        WaitKeyOf[Running] = Key;
        WaitTable.emplace(std::move(Key), Running);
      } else {
        NextQ.insert(Running); // slice budget spent, still runnable
      }
      // Checkpoint gate: once the trigger is reached, every remaining
      // slice of the sequential round gate-returns without executing a
      // statement — but still does frame maintenance. Stop the drain
      // and fall through to the gate sweep below.
      if (S.NextCheckpointEvents != 0 &&
          S.Events >= S.NextCheckpointEvents) {
        GateCut = true;
        break;
      }
    }
    InRound = false;
    if (GateCut) {
      // The sequential sweep still visits the processors above the cut
      // point (RunQ drains in ascending index, so the remnant is
      // exactly those). Each visit trims the stack and may finish the
      // processor; survivors run for real next round. Parked
      // processors' gated visits are no-ops beyond the Blocked flag,
      // which must stay set (see the gated-start branch above).
      std::vector<unsigned> Remnant(RunQ.begin(), RunQ.end());
      RunQ.clear();
      for (unsigned Id : Remnant) {
        gateVisit(Id);
        if (!S.Procs[Id].Finished)
          NextQ.insert(Id);
      }
    }
    std::swap(RunQ, NextQ); // NextQ is empty after the drain
    F.AllDone = FinishedCount == S.Procs.size();
    F.AnyDead = DeadCount > 0;
    return F;
  }
};

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

Simulator::~Simulator() = default;

Simulator::Simulator(const Program &P, const CompiledProgram &CP,
                     const CompileSpec &Spec, SimOptions Opts)
    : P(P), CP(CP), Spec(Spec), Opts(std::move(Opts)),
      Faults(this->Opts.Faults) {
  assert(this->Opts.PhysGrid.size() == CP.Spmd.GridDims &&
         "physical grid arity mismatch");
  for (IntT G : this->Opts.PhysGrid)
    if (G < 1)
      fatalError("Simulator: physical grid dimensions must be >= 1");
  computeVirtualGrid();

  // Parameter values aligned to the SPMD space.
  ParamEnv.assign(CP.Spmd.Sp.size(), 0);
  for (unsigned I = 0, E = CP.Spmd.Sp.size(); I != E; ++I) {
    if (CP.Spmd.Sp.kind(I) != VarKind::Param)
      continue;
    auto It = this->Opts.ParamValues.find(CP.Spmd.Sp.name(I));
    if (It == this->Opts.ParamValues.end())
      fatalError("Simulator: missing parameter value");
    ParamEnv[I] = It->second;
  }

  // Instantiate the virtual processors.
  unsigned Dims = CP.Spmd.GridDims;
  std::vector<IntT> Coord = VirtLo;
  bool Done = false;
  while (!Done) {
    VirtProc V;
    V.Coord = Coord;
    V.Id = static_cast<unsigned>(Procs.size());
    V.Phys = physOf(Coord);
    V.Env = ParamEnv;
    for (unsigned D = 0; D != Dims; ++D)
      V.Env[CP.Spmd.MyProcVars[D]] = Coord[D];
    V.ProgEnv.assign(P.space().size(), 0);
    for (unsigned I = 0, E = P.space().size(); I != E; ++I)
      if (P.space().kind(I) == VarKind::Param)
        V.ProgEnv[I] = paramValue(this->Opts.ParamValues, P.space().name(I));
    Frame F;
    F.List = &CP.Spmd.Top;
    V.Stack.push_back(F);
    Procs.push_back(std::move(V));
    // Advance the coordinate odometer.
    for (unsigned D = Dims; D-- > 0;) {
      if (++Coord[D] <= VirtHi[D])
        break;
      Coord[D] = VirtLo[D];
      if (D == 0)
        Done = true;
    }
  }

  IntT PhysCount = 1;
  for (IntT G : this->Opts.PhysGrid)
    PhysCount = mulChk(PhysCount, G);
  if (PhysCount > static_cast<IntT>(std::numeric_limits<unsigned>::max()))
    fatalError("Simulator: physical processor count overflows unsigned");
  PhysClock.assign(PhysCount, 0.0);
  PhysBusy.assign(PhysCount, 0.0);
  BusyCompute.assign(PhysCount, 0.0);
  BusyProtocol.assign(PhysCount, 0.0);
  BusyCheckpoint.assign(PhysCount, 0.0);
  NetFree.assign(PhysCount, 0.0);
  NetDeferred.assign(PhysCount, 0.0);
  NetExposed.assign(PhysCount, 0.0);
  HasCrashed.assign(Procs.size(), 0);
  SlowFactor.assign(PhysCount, 1.0);
  if (this->Opts.Faults.MaxSlowdown > 1.0)
    for (unsigned Ph = 0; Ph != static_cast<unsigned>(PhysCount); ++Ph)
      SlowFactor[Ph] = Faults.slowdown(Ph);

  if (this->Opts.Functional)
    initLocalStores();
}

unsigned Simulator::physOf(const std::vector<IntT> &VirtCoord) const {
  // pi(v) = v mod P per dimension, row-major flattened. The fold and
  // the flattening run in checked IntT; the constructor verified the
  // physical processor count fits an unsigned, and the result is always
  // below that count, so the final narrowing is value-preserving.
  IntT Phys = 0;
  for (unsigned D = 0, E = VirtCoord.size(); D != E; ++D) {
    IntT F = floorMod(VirtCoord[D], Opts.PhysGrid[D]);
    Phys = addChk(mulChk(Phys, Opts.PhysGrid[D]), F);
  }
  return static_cast<unsigned>(Phys);
}

unsigned Simulator::sliceBudget() const {
  // Short slices when crashes or checkpoints are in play: both trigger
  // at round boundaries, so the boundary spacing bounds how stale a
  // crash detection or a checkpoint line can be.
  return (Opts.Faults.CrashRate > 0 || Opts.Checkpoint.enabled())
             ? 512
             : 200000;
}

void Simulator::flushCounters(SimResult &R) const {
  R.Messages = Ctr.Messages;
  R.IntraMessages = Ctr.IntraMessages;
  R.Words = Ctr.Words;
  R.Flops = Ctr.Flops;
  R.ComputeIterations = Ctr.ComputeIterations;
  R.Retransmissions = Ctr.Retransmissions;
  R.DroppedPackets = Ctr.DroppedPackets;
  R.DuplicatesSuppressed = Ctr.DuplicatesSuppressed;
  R.AcksSent = Ctr.AcksSent;
  R.CorruptedPackets = Ctr.CorruptedPackets;
  R.NacksSent = Ctr.NacksSent;
  R.PartitionDrops = Ctr.PartitionDrops;
  R.SlowLinkMessages = Ctr.SlowLinkMessages;
  R.Recovery.Crashes = Ctr.Crashes;
  fillOverlap(R);
}

void Simulator::fillOverlap(SimResult &R) const {
  R.Overlap.EarlySends = Ctr.EarlySends;
  R.Overlap.DeferredSeconds = 0;
  R.Overlap.ExposedSeconds = 0;
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
    R.Overlap.DeferredSeconds += NetDeferred[Ph];
    R.Overlap.ExposedSeconds += NetExposed[Ph];
  }
}

void Simulator::computeVirtualGrid() {
  unsigned Dims = CP.Spmd.GridDims;
  VirtLo.assign(Dims, 0);
  VirtHi.assign(Dims, -1);
  bool Any = false;

  auto Widen = [&](const Decomposition &D, System Dom) {
    // Pin parameters, attach grid variables, take per-dim bounds.
    for (unsigned I = 0; I != Dom.space().size(); ++I) {
      if (Dom.space().kind(I) != VarKind::Param)
        continue;
      Dom.addEQ(Dom.varExpr(I).plusConst(
          -paramValue(Opts.ParamValues, Dom.space().name(I))));
    }
    std::vector<unsigned> PVs;
    for (unsigned Dd = 0; Dd != Dims; ++Dd)
      PVs.push_back(Dom.addVar(Dom.space().freshName("@grid"),
                               VarKind::Proc));
    D.addConstraintsByName(Dom, PVs);
    for (unsigned Dd = 0; Dd != Dims; ++Dd) {
      if (D.dim(Dd).Replicated)
        continue;
      System Proj = Dom;
      // Parameters are pinned by equalities above, so eliminating them is
      // an exact substitution; the resulting bounds are constants.
      for (unsigned I = 0; I != Proj.space().size(); ++I)
        if (I != PVs[Dd] && Proj.involves(I))
          Proj = Proj.fmEliminated(I);
      std::vector<VarBound> Lo, Hi;
      Proj.normalize();
      Proj.boundsOf(PVs[Dd], Lo, Hi);
      if (Lo.empty() || Hi.empty())
        fatalError("Simulator: unbounded virtual processor grid");
      IntT L = 0, H = 0;
      bool First = true;
      std::vector<IntT> Zero(Proj.space().size(), 0);
      for (const VarBound &B : Lo) {
        IntT V = ceilDiv(B.Num.evaluate(Zero), B.Den);
        L = First ? V : std::max(L, V);
        First = false;
      }
      First = true;
      for (const VarBound &B : Hi) {
        IntT V = floorDiv(B.Num.evaluate(Zero), B.Den);
        H = First ? V : std::min(H, V);
        First = false;
      }
      if (H < L)
        return; // empty source: contributes nothing
      if (!Any || L < VirtLo[Dd])
        VirtLo[Dd] = L;
      if (!Any || H > VirtHi[Dd])
        VirtHi[Dd] = H;
    }
    Any = true;
  };

  for (const StmtPlan &SP : Spec.Stmts)
    Widen(SP.Comp, P.domainOf(SP.StmtId));

  auto ArrayDomain = [&](unsigned ArrayId) {
    Space Sp = arraySourceSpace(P, ArrayId);
    System Dom(Sp);
    unsigned K = 0;
    for (unsigned I = 0; I != Sp.size(); ++I) {
      if (Sp.kind(I) != VarKind::Data)
        continue;
      Dom.addGE(Dom.varExpr(I));
      Dom.addGE(mapExpr(P.array(ArrayId).DimSizes[K], P.space(), Sp)
                    .plusConst(-1) -
                Dom.varExpr(I));
      ++K;
    }
    return Dom;
  };
  for (const auto &[ArrayId, D] : Spec.InitialData)
    Widen(D, ArrayDomain(ArrayId));
  for (const auto &[ArrayId, D] : Spec.FinalData)
    Widen(D, ArrayDomain(ArrayId));

  for (unsigned Dd = 0; Dd != Dims; ++Dd)
    if (VirtHi[Dd] < VirtLo[Dd])
      fatalError("Simulator: empty virtual processor grid");
}

IntT Simulator::flatIndex(unsigned ArrayId,
                          const std::vector<IntT> &Idx) const {
  const ArrayDecl &D = P.array(ArrayId);
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = paramValue(Opts.ParamValues, P.space().name(I));
  IntT Flat = 0;
  for (unsigned K = 0, E = Idx.size(); K != E; ++K)
    Flat = addChk(mulChk(Flat, D.DimSizes[K].evaluate(Env)), Idx[K]);
  return Flat;
}

void Simulator::initLocalStores() {
  for (const auto &[ArrayId, D] : Spec.InitialData) {
    const ArrayDecl &AD = P.array(ArrayId);
    std::vector<IntT> Sizes;
    for (const AffineExpr &S : AD.DimSizes) {
      std::vector<IntT> Env(P.space().size(), 0);
      for (unsigned I = 0; I != P.space().size(); ++I)
        if (P.space().kind(I) == VarKind::Param)
          Env[I] = paramValue(Opts.ParamValues, P.space().name(I));
      Sizes.push_back(S.evaluate(Env));
    }
    // Source values for ownership tests: element indices then params in
    // the decomposition's source-space order.
    std::vector<IntT> Src(D.sourceSpace().size(), 0);
    std::vector<int> DataPos, ParamPos;
    for (unsigned I = 0; I != D.sourceSpace().size(); ++I) {
      if (D.sourceSpace().kind(I) == VarKind::Param)
        Src[I] = paramValue(Opts.ParamValues, D.sourceSpace().name(I));
      else
        DataPos.push_back(static_cast<int>(I));
    }
    std::vector<IntT> Idx(Sizes.size(), 0);
    bool Done = Sizes.empty();
    for (IntT S : Sizes)
      if (S <= 0)
        Done = true;
    while (!Done) {
      for (unsigned K = 0; K != Idx.size(); ++K)
        Src[DataPos[K]] = Idx[K];
      IntT Flat = flatIndex(ArrayId, Idx);
      for (VirtProc &V : Procs)
        if (D.owns(Src, V.Coord))
          V.Store[{ArrayId, Flat}] = initialArrayValue(ArrayId, Flat);
      for (unsigned K = Idx.size(); K-- > 0;) {
        if (++Idx[K] < Sizes[K])
          break;
        Idx[K] = 0;
        if (K == 0)
          Done = true;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

IntT evalBoundList(const std::vector<SpmdBound> &Bs,
                   const std::vector<IntT> &Env, bool IsLower) {
  IntT R = 0;
  bool First = true;
  for (const SpmdBound &B : Bs) {
    IntT V = IsLower ? ceilDiv(B.Num.evaluate(Env), B.Den)
                     : floorDiv(B.Num.evaluate(Env), B.Den);
    if (First)
      R = V;
    else
      R = IsLower ? std::max(R, V) : std::min(R, V);
    First = false;
  }
  return R;
}

bool condsHold(const std::vector<Constraint> &Cs,
               const std::vector<IntT> &Env) {
  for (const Constraint &C : Cs) {
    IntT V = C.Expr.evaluate(Env);
    if (C.isEquality() ? V != 0 : V < 0)
      return false;
  }
  return true;
}

/// True if the loop body is free of communication and control that could
/// block, making it collapsible in performance mode.
bool isCollapsible(const SpmdStmt &For) {
  for (const SpmdStmt &S : For.Body)
    if (S.K != SpmdStmt::Kind::Compute && S.K != SpmdStmt::Kind::SetVar)
      return false;
  return !For.Body.empty();
}

} // namespace

double Simulator::statementCost(const Statement &S) const {
  return Opts.Cost.IterOverhead + countFlops(S) * Opts.Cost.FlopTime;
}

void Simulator::execComputeIter(VirtProc &V, const SpmdStmt &St) {
  const Statement &S = P.statement(St.StmtId);
  if (!Opts.Functional)
    return;
  for (unsigned K = 0, E = S.Loops.size(); K != E; ++K)
    V.ProgEnv[P.loop(S.Loops[K]).VarIndex] =
        St.IterExprs[K].evaluate(V.Env);

  // Evaluate the right-hand side against the local store.
  std::function<double(int)> Eval = [&](int Node) -> double {
    const RVal &R = S.RPool[Node];
    switch (R.K) {
    case RVal::Kind::ReadRef: {
      const Access &A = S.Reads[R.ReadIdx];
      std::vector<IntT> Idx;
      for (const AffineExpr &E : A.Indices)
        Idx.push_back(E.evaluate(V.ProgEnv));
      IntT Flat = flatIndex(A.ArrayId, Idx);
      auto It = V.Store.find({A.ArrayId, Flat});
      if (It == V.Store.end()) {
        std::string Msg = "locality violation: processor reads " +
                          P.array(A.ArrayId).Name + " element it never " +
                          "owned, wrote, or received";
        fatalError(Msg.c_str());
      }
      return It->second;
    }
    case RVal::Kind::ConstF:
      return R.Const;
    case RVal::Kind::AffineVal:
      return static_cast<double>(R.Aff.evaluate(V.ProgEnv));
    case RVal::Kind::Add:
      return Eval(R.Lhs) + Eval(R.Rhs);
    case RVal::Kind::Sub:
      return Eval(R.Lhs) - Eval(R.Rhs);
    case RVal::Kind::Mul:
      return Eval(R.Lhs) * Eval(R.Rhs);
    case RVal::Kind::Div:
      return Eval(R.Lhs) / Eval(R.Rhs);
    case RVal::Kind::Select:
      return Eval(R.Cond) >= 0 ? Eval(R.Lhs) : Eval(R.Rhs);
    }
    return 0;
  };
  double Val = Eval(S.RRoot);
  std::vector<IntT> WIdx;
  for (const AffineExpr &E : S.Write.Indices)
    WIdx.push_back(E.evaluate(V.ProgEnv));
  V.Store[{S.Write.ArrayId, flatIndex(S.Write.ArrayId, WIdx)}] = Val;
}

bool Simulator::stepProc(VirtProc &V, EventEngine *EE) {
  bool Ran = false;
  const bool CrashActive = Opts.Faults.CrashRate > 0;
  unsigned Slice = sliceBudget();
  // Every queue push goes through here so the event scheduler can wake
  // a receiver parked on the channel.
  auto Enqueue = [&](const std::vector<IntT> &Key, Message M) {
    Queues[Key].push_back(std::move(M));
    if (EE)
      EE->notifyPush(Key);
  };
  double &Clock = PhysClock[V.Phys];
  double &Busy = PhysBusy[V.Phys];
  // Injected per-processor slowdown; exactly 1.0 (cost-neutral) unless
  // fault injection is configured.
  const double SF = SlowFactor[V.Phys];

  // Inline executor for pack/unpack bodies (never blocks).
  std::function<void(const std::vector<SpmdStmt> &,
                     std::vector<double> *, const std::vector<double> *,
                     uint64_t &, uint64_t &)>
      RunItems = [&](const std::vector<SpmdStmt> &List,
                     std::vector<double> *PackOut,
                     const std::vector<double> *UnpackIn, uint64_t &Cursor,
                     uint64_t &Count) {
        for (const SpmdStmt &S : List) {
          switch (S.K) {
          case SpmdStmt::Kind::Seq:
            RunItems(S.Body, PackOut, UnpackIn, Cursor, Count);
            break;
          case SpmdStmt::Kind::SetVar:
            V.Env[S.Var] = S.ValueDen == 1
                               ? S.Value.evaluate(V.Env)
                               : floorDiv(S.Value.evaluate(V.Env),
                                          S.ValueDen);
            break;
          case SpmdStmt::Kind::If:
            if (condsHold(S.Conds, V.Env))
              RunItems(S.Body, PackOut, UnpackIn, Cursor, Count);
            break;
          case SpmdStmt::Kind::For: {
            IntT Lo = evalBoundList(S.Lower, V.Env, true);
            IntT Hi = evalBoundList(S.Upper, V.Env, false);
            if (!Opts.Functional && Opts.CollapseLoops && Hi >= Lo) {
              // Collapsible when each iteration contributes exactly one
              // item unconditionally.
              unsigned Items = 0;
              bool Simple = true;
              for (const SpmdStmt &B : S.Body) {
                if (B.K == SpmdStmt::Kind::PackElem ||
                    B.K == SpmdStmt::Kind::UnpackElem)
                  ++Items;
                else if (B.K != SpmdStmt::Kind::SetVar)
                  Simple = false;
              }
              if (Simple && Items == 1) {
                uint64_t Trip =
                    static_cast<uint64_t>(addChk(subChk(Hi, Lo), 1));
                Count += Trip;
                Cursor += Trip;
                break;
              }
            }
            for (IntT I = Lo; I <= Hi; ++I) {
              V.Env[S.Var] = I;
              RunItems(S.Body, PackOut, UnpackIn, Cursor, Count);
            }
            break;
          }
          case SpmdStmt::Kind::PackElem: {
            ++Count;
            if (PackOut && Opts.Functional) {
              std::vector<IntT> Idx;
              for (const AffineExpr &E : S.Indices)
                Idx.push_back(E.evaluate(V.Env));
              IntT Flat = flatIndex(S.ArrayId, Idx);
              auto It = V.Store.find({S.ArrayId, Flat});
              if (It == V.Store.end())
                fatalError("locality violation: sending a value the "
                           "processor does not hold");
              PackOut->push_back(It->second);
            }
            break;
          }
          case SpmdStmt::Kind::UnpackElem: {
            ++Count;
            if (UnpackIn && Opts.Functional) {
              if (Cursor >= UnpackIn->size())
                fatalError("message shorter than the receiver expects");
              std::vector<IntT> Idx;
              for (const AffineExpr &E : S.Indices)
                Idx.push_back(E.evaluate(V.Env));
              V.Store[{S.ArrayId, flatIndex(S.ArrayId, Idx)}] =
                  (*UnpackIn)[Cursor];
            }
            ++Cursor;
            break;
          }
          default:
            fatalError("communication inside a message body");
          }
        }
      };

  while (!V.Stack.empty() && Slice-- > 0) {
    Frame &F = V.Stack.back();
    if (F.Pos >= F.List->size()) {
      if (F.LoopStmt && ++F.LoopCur <= F.LoopHi) {
        V.Env[F.LoopStmt->Var] = F.LoopCur;
        F.Pos = 0;
        continue;
      }
      V.Stack.pop_back();
      continue;
    }
    const SpmdStmt &St = (*F.List)[F.Pos];
    if (NextCheckpointEvents != 0 && Events >= NextCheckpointEvents)
      // A checkpoint is due: pause at this statement boundary so the
      // scheduler can draw the line once every processor has yielded.
      return Ran;
    if (CrashActive && !HasCrashed[V.Id] && Faults.crashAt(V.Id, V.Steps)) {
      // Crash-stop failure: the processor dies immediately before this
      // statement and executes nothing further. HasCrashed survives the
      // rollback, so the restarted incarnation replays through this
      // point unharmed — one crash per processor, which bounds the
      // number of rollbacks by the processor count.
      HasCrashed[V.Id] = 1;
      V.Crashed = true;
      CrashLog.push_back(CrashEvent{V.Coord, V.Phys, V.Steps, Clock});
      ++Ctr.Crashes;
      return Ran;
    }
    if (++Events > Opts.MaxEvents)
      fatalError("simulation event budget exhausted");
    ++V.Steps;
    switch (St.K) {
    case SpmdStmt::Kind::Seq: {
      ++F.Pos;
      Frame NF;
      NF.List = &St.Body;
      V.Stack.push_back(NF);
      break;
    }
    case SpmdStmt::Kind::For: {
      ++F.Pos;
      IntT Lo = evalBoundList(St.Lower, V.Env, true);
      IntT Hi = evalBoundList(St.Upper, V.Env, false);
      if (Lo > Hi)
        break;
      if (!Opts.Functional && Opts.CollapseLoops && isCollapsible(St)) {
        uint64_t Trip = static_cast<uint64_t>(addChk(subChk(Hi, Lo), 1));
        double C = 0;
        for (const SpmdStmt &B : St.Body)
          if (B.K == SpmdStmt::Kind::Compute) {
            C += statementCost(P.statement(B.StmtId));
            Ctr.Flops += Trip * countFlops(P.statement(B.StmtId));
            Ctr.ComputeIterations += Trip;
          }
        Clock += Trip * C * SF;
        Busy += Trip * C * SF;
        BusyCompute[V.Phys] += Trip * C * SF;
        break;
      }
      V.Env[St.Var] = Lo;
      Frame NF;
      NF.List = &St.Body;
      NF.LoopStmt = &St;
      NF.LoopCur = Lo;
      NF.LoopHi = Hi;
      V.Stack.push_back(NF);
      break;
    }
    case SpmdStmt::Kind::If: {
      ++F.Pos;
      if (condsHold(St.Conds, V.Env)) {
        Frame NF;
        NF.List = &St.Body;
        V.Stack.push_back(NF);
      }
      break;
    }
    case SpmdStmt::Kind::SetVar:
      V.Env[St.Var] = St.ValueDen == 1
                          ? St.Value.evaluate(V.Env)
                          : floorDiv(St.Value.evaluate(V.Env),
                                     St.ValueDen);
      ++F.Pos;
      break;
    case SpmdStmt::Kind::Compute: {
      execComputeIter(V, St);
      double C = statementCost(P.statement(St.StmtId)) * SF;
      Clock += C;
      Busy += C;
      BusyCompute[V.Phys] += C;
      Ctr.Flops += countFlops(P.statement(St.StmtId));
      ++Ctr.ComputeIterations;
      V.LastMulticastComm = -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::Send: {
      std::vector<IntT> Dst;
      for (const AffineExpr &E : St.Peer)
        Dst.push_back(E.evaluate(V.Env));
      Message M;
      if (St.IsMulticast &&
          V.CachedPackComm == static_cast<int>(St.CommId) &&
          V.LastMulticastComm == static_cast<int>(St.CommId)) {
        // Multicast content is receiver-independent (Section 6.2.1):
        // reuse the packing from the burst's first destination.
        M.Data = V.CachedData;
        M.WordCount = V.CachedCount;
      } else {
        uint64_t Cursor = 0, Count = 0;
        std::vector<double> Data;
        RunItems(St.Body, &Data, nullptr, Cursor, Count);
        M.Data = std::move(Data);
        M.WordCount = Count;
        if (St.IsMulticast) {
          V.CachedPackComm = static_cast<int>(St.CommId);
          V.CachedData = M.Data;
          V.CachedCount = M.WordCount;
        } else {
          V.CachedPackComm = -1;
        }
      }
      unsigned DstPhys = physOf(Dst);
      bool Intra = DstPhys == V.Phys;
      // Straggler-link latency multiplier for this directed physical
      // link: exactly 1.0 (cost-neutral) unless slow-link injection is
      // configured. Pure in (seed, src phys, dst phys), so the factor is
      // identical across engines and scheduler interleavings.
      const double LinkF =
          Opts.Faults.slowLinks() ? Faults.linkFactor(V.Phys, DstPhys)
                                  : 1.0;
      bool InBurst = St.IsMulticast &&
                     V.LastMulticastComm == static_cast<int>(St.CommId);
      if (!InBurst)
        V.BurstPhys.clear();
      // Nonblocking (early) send: the CPU pays only the issue/pack
      // cost, the per-physical NIC carries the fixed latency (and any
      // retransmission work) while the processor keeps computing
      // (DESIGN.md §11). Message contents, sequence numbers and queue
      // order are untouched — only clocks move.
      const bool Early = Opts.EarlySends && St.Nonblocking;
      M.FromMulticast = St.IsMulticast;
      std::vector<IntT> Key;
      Key.push_back(static_cast<IntT>(St.CommId));
      for (IntT C2 : V.Coord)
        Key.push_back(C2);
      for (IntT C2 : Dst)
        Key.push_back(C2);
      if (Intra && Opts.FreeIntraPhysical) {
        // A local memory move: never exposed to network faults, but
        // still sequenced when the transport is engaged — the receive
        // path matches sequence numbers on every channel, and the
        // rollback line is defined by a uniform per-channel cursor.
        ++Ctr.IntraMessages;
        M.ReadyTime = Clock;
        if (Faults.active())
          M.Seq = SendSeq[Key]++;
        if (Faults.active() && M.Seq < RecvSeq[Key])
          // Replay of a send the receiver consumed before the rollback
          // line: suppressed on arrival.
          ++Ctr.DuplicatesSuppressed;
        else
          Enqueue(Key, std::move(M));
      } else if (Faults.active()) {
        // Reliable transport: stop-and-wait per packet with acks and
        // bounded exponential-backoff retransmission. Every receiver is
        // its own acknowledged channel, so the multicast burst
        // wire-sharing shortcut does not apply here.
        uint64_t Chan = FaultModel::channelId(St.CommId, V.Coord, Dst);
        uint64_t Seq = SendSeq[Key]++;
        M.Seq = Seq;
        // During post-rollback replay the receiver may already be past
        // this sequence number (it consumed the original before the
        // checkpoint line): deliveries are then acknowledged but
        // suppressed on arrival, never enqueued. Impossible outside
        // replay — a fresh sequence number is never below the window.
        const bool BelowWindow = Seq < RecvSeq[Key];
        double SendCost =
            (Opts.Cost.MsgLatency + M.WordCount * Opts.Cost.SendPerWord) *
            SF;
        double IssueCost =
            (Opts.Cost.SendIssueOverhead +
             M.WordCount * Opts.Cost.SendPerWord) *
            SF;
        double Start;
        if (Early) {
          // Issue: the CPU hands the packet to the NIC and moves on;
          // the stop-and-wait attempts below run on the NIC, which
          // serializes this physical processor's in-flight sends.
          Clock += IssueCost;
          Busy += IssueCost;
          BusyProtocol[V.Phys] += IssueCost;
          Start = std::max(Clock, NetFree[V.Phys]);
        } else {
          Start = Clock;
        }
        double DeliverLat =
            (Opts.Cost.MsgLatency +
             static_cast<double>(M.WordCount) *
                 Opts.Cost.WireTimePerWord) *
            LinkF;
        // Widened: MaxRetries == UINT_MAX must mean "retry forever",
        // not wrap MaxAttempts to 0 (which skipped the attempt loop,
        // silently dropped the packet, and underflowed Made - 1 below).
        const uint64_t MaxAttempts =
            static_cast<uint64_t>(Opts.Faults.MaxRetries) + 1;
        unsigned Made = 0;
        bool Delivered = false, Acked = false;
        double Offset = 0; // accumulated backoff before each attempt
        for (uint64_t A = 0; A != MaxAttempts && !Acked; ++A) {
          Offset += Faults.backoffDelay(A);
          ++Made;
          if (Faults.partitioned(Chan, Seq, A)) {
            // Transient partition: the link blackholes this attempt
            // (and would its ack); the sender's exponential backoff
            // eventually spans the seeded outage.
            ++Ctr.PartitionDrops;
            continue;
          }
          if (Faults.dropData(Chan, Seq, A)) {
            ++Ctr.DroppedPackets;
            continue;
          }
          if (Faults.corruptData(Chan, Seq, A)) {
            // Checksum failure at the receiver: the corrupted copy is
            // discarded and a NACK triggers the next retransmission.
            ++Ctr.CorruptedPackets;
            ++Ctr.NacksSent;
            continue;
          }
          Delivered = true;
          if (BelowWindow) {
            ++Ctr.DuplicatesSuppressed;
          } else {
            Message Copy = M;
            Copy.ReadyTime = Start + Offset + SendCost + DeliverLat +
                             Faults.deliveryDelay(Chan, Seq, A, 0);
            Enqueue(Key, std::move(Copy));
          }
          ++Ctr.AcksSent; // the receiver acknowledges this copy
          if (Faults.duplicate(Chan, Seq, A)) {
            if (BelowWindow) {
              ++Ctr.DuplicatesSuppressed;
            } else {
              Message Dup = M;
              Dup.ReadyTime = Start + Offset + SendCost + DeliverLat +
                              Faults.deliveryDelay(Chan, Seq, A, 1);
              Enqueue(Key, std::move(Dup));
            }
            ++Ctr.AcksSent;
          }
          if (!Faults.dropAck(Chan, Seq, A))
            Acked = true;
        }
        Ctr.Retransmissions += Made - 1;
        // Messages/Words stay logical (one per app-level send) so the
        // counters remain comparable across fault schedules; the wire
        // overhead shows up in Retransmissions and the clocks.
        ++Ctr.Messages;
        Ctr.Words += M.WordCount;
        if (LinkF > 1.0)
          ++Ctr.SlowLinkMessages;
        if (Early) {
          // The NIC is busy through every attempt's backoff plus the
          // final transmission; the CPU already paid IssueCost and
          // keeps computing. Only the not-also-on-CPU share counts as
          // deferred.
          NetFree[V.Phys] = Start + Offset + SendCost;
          NetDeferred[V.Phys] += SendCost - IssueCost;
          ++Ctr.EarlySends;
        } else {
          Clock += SendCost;
          Busy += SendCost * Made;
          BusyProtocol[V.Phys] += SendCost * Made;
        }
        if (!Delivered)
          Failures.push_back(
              TransportFailure{St.CommId, V.Coord, Dst, Seq, Made});
      } else if (InBurst && V.BurstPhys.count(DstPhys)) {
        // Same physical processor already got this content in the burst:
        // one wire message serves every folded virtual processor.
        ++Ctr.IntraMessages;
        M.ReadyTime = V.BurstReady;
        Enqueue(Key, std::move(M));
      } else {
        const bool ExtraDest = InBurst && !V.BurstPhys.empty();
        double C;
        if (ExtraDest)
          C = Opts.Cost.MulticastExtraDest;
        else
          C = Opts.Cost.MsgLatency + M.WordCount * Opts.Cost.SendPerWord;
        ++Ctr.Messages;
        Ctr.Words += M.WordCount;
        if (LinkF > 1.0)
          ++Ctr.SlowLinkMessages;
        if (Early) {
          // The CPU pays only the pack + issue overhead; the fixed
          // per-message latency runs on the NIC, which serializes this
          // physical processor's outstanding sends. The NIC cuts
          // through — protocol processing pipelines into the flight —
          // so the consumer-visible path carries one MsgLatency where
          // the blocking rendezvous pays it twice (sender software,
          // then wire).
          double CpuC =
              Opts.Cost.SendIssueOverhead +
              (ExtraDest ? 0.0 : M.WordCount * Opts.Cost.SendPerWord);
          double NicC = ExtraDest ? Opts.Cost.MulticastExtraDest
                                  : Opts.Cost.MsgLatency;
          Clock += CpuC;
          Busy += CpuC;
          BusyProtocol[V.Phys] += CpuC;
          double Done = std::max(Clock, NetFree[V.Phys]) + NicC;
          NetFree[V.Phys] = Done;
          NetDeferred[V.Phys] += C - CpuC;
          ++Ctr.EarlySends;
          M.ReadyTime = Done + static_cast<double>(M.WordCount) *
                                   Opts.Cost.WireTimePerWord * LinkF;
        } else {
          Clock += C;
          Busy += C;
          BusyProtocol[V.Phys] += C;
          M.ReadyTime = Clock + (Opts.Cost.MsgLatency +
                                 static_cast<double>(M.WordCount) *
                                     Opts.Cost.WireTimePerWord) *
                                    LinkF;
        }
        V.BurstPhys.insert(DstPhys);
        V.BurstReady = M.ReadyTime;
        Enqueue(Key, std::move(M));
      }
      V.LastMulticastComm = St.IsMulticast ? static_cast<int>(St.CommId)
                                           : -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::Recv: {
      std::vector<IntT> Src;
      for (const AffineExpr &E : St.Peer)
        Src.push_back(E.evaluate(V.Env));
      std::vector<IntT> Key;
      Key.push_back(static_cast<IntT>(St.CommId));
      for (IntT C2 : Src)
        Key.push_back(C2);
      for (IntT C2 : V.Coord)
        Key.push_back(C2);
      const bool Transport = Faults.active();
      auto It = Queues.find(Key);
      const uint64_t Expect = Transport ? RecvSeq[Key] : 0;
      const uint64_t Queued = It == Queues.end() ? 0 : It->second.size();
      // Which queued message can this receive consume? Without the
      // transport: the front (FIFO). With it: the earliest-arriving copy
      // carrying exactly the expected sequence number; later sequence
      // numbers may already be buffered (reordered delivery) but must
      // wait their turn.
      int Pick = !Transport && Queued != 0 ? 0 : -1;
      if (Transport)
        for (unsigned I = 0; I != Queued; ++I) {
          const Message &Cand = It->second[I];
          if (Cand.Seq == Expect &&
              (Pick < 0 || Cand.ReadyTime <
                               It->second[static_cast<unsigned>(Pick)]
                                   .ReadyTime))
            Pick = static_cast<int>(I);
        }
      if (Pick < 0) {
        // A blocked receive attempt is NOT progress: if every processor
        // ends up here, the scheduler must report deadlock rather than
        // spin retrying. Record what we were waiting for so the
        // detector can name it.
        V.Blocked = true;
        V.LastBlock.Coord = V.Coord;
        V.LastBlock.Phys = V.Phys;
        V.LastBlock.CommId = St.CommId;
        V.LastBlock.Peer = Src;
        V.LastBlock.ExpectedSeq = Expect;
        V.LastBlock.BufferedAhead = Queued;
        --Events;
        --V.Steps;
        return Ran;
      }
      Message M = std::move(It->second[static_cast<unsigned>(Pick)]);
      It->second.erase(It->second.begin() + Pick);
      if (Transport) {
        // Suppress every other copy of this packet (wire duplicates and
        // retransmissions whose ack was lost).
        for (unsigned I = 0; I != It->second.size();) {
          if (It->second[I].Seq == Expect) {
            It->second.erase(It->second.begin() + I);
            ++Ctr.DuplicatesSuppressed;
          } else {
            ++I;
          }
        }
        RecvSeq[Key] = Expect + 1;
      }
      Ran = true;
      if (M.ReadyTime > Clock)
        Clock = M.ReadyTime; // waiting, not busy
      uint64_t Cursor = 0, Count = 0;
      RunItems(St.Body, nullptr, &M.Data, Cursor, Count);
      if (Count != M.WordCount)
        fatalError("message length mismatch between sender and receiver");
      double C = M.FromMulticast
                     ? 0.0
                     : static_cast<double>(Count) * Opts.Cost.RecvPerWord;
      if (Transport)
        C += Opts.Cost.MsgLatency; // acknowledgement transmission
      C *= SF;
      Clock += C;
      Busy += C;
      BusyProtocol[V.Phys] += C;
      V.LastMulticastComm = -1;
      ++F.Pos;
      break;
    }
    case SpmdStmt::Kind::PackElem:
    case SpmdStmt::Kind::UnpackElem:
      fatalError("pack/unpack outside a message body");
    }
    Ran = true;
  }
  if (V.Stack.empty())
    V.Finished = true;
  return Ran;
}

void Simulator::fillRecoverySplit(SimResult &R) const {
  R.Recovery.ComputeSeconds = 0;
  R.Recovery.ProtocolSeconds = 0;
  R.Recovery.CheckpointSeconds = 0;
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
    R.Recovery.ComputeSeconds += BusyCompute[Ph];
    R.Recovery.ProtocolSeconds += BusyProtocol[Ph];
    R.Recovery.CheckpointSeconds += BusyCheckpoint[Ph];
  }
  R.Recovery.RecoverySeconds = RecoveryExtraSeconds;
}

Simulator::RoundFlags Simulator::runRoundSequential() {
  RoundFlags F;
  for (VirtProc &V : Procs) {
    if (V.Crashed) {
      // Dead until a rollback reincarnates it.
      F.AllDone = false;
      F.AnyDead = true;
      continue;
    }
    if (V.Finished)
      continue;
    V.Blocked = false;
    if (stepProc(V, nullptr))
      F.Progress = true;
    if (V.Crashed)
      F.AnyDead = true;
    if (!V.Finished)
      F.AllDone = false;
  }
  return F;
}

SimResult Simulator::run() {
  SimResult R;
  const bool Recovery = Opts.Checkpoint.enabled();
  if (Recovery) {
    // Free initial checkpoint: the staged input state itself is the
    // rollback line until the first interval elapses. In durable-resume
    // mode the newest intact on-disk image replaces it — the restored
    // line already exists on disk, so no fresh initial snapshot is
    // taken and replay continues bit-identically to the uninterrupted
    // run. With no usable image the run starts (and persists) fresh.
    NextCheckpointEvents = Opts.Checkpoint.IntervalSteps;
    if (!(Opts.Checkpoint.Resume && Opts.Checkpoint.durable() &&
          resumeFromDurable(R)))
      takeCheckpoint(R, /*Initial=*/true);
  }
  // Built after the prologue: a durable resume changes which processors
  // are already finished, and reset() reads those flags.
  std::unique_ptr<EventEngine> EE;
  if (Opts.Engine == SimEngine::Event)
    EE = std::make_unique<EventEngine>(*this);
  while (true) {
    RoundFlags F = EE ? EE->runRound() : runRoundSequential();
    if (F.AllDone) {
      R.Ok = true;
      break;
    }
    // Coordinated checkpoint at the round boundary — a consistent cut
    // by construction (every processor paused at a statement boundary
    // once the interval elapsed). Never snapshot while a processor is
    // dead: its volatile state is gone, and the pre-crash line must
    // stay available for rollback.
    if (Recovery && !F.AnyDead && Events >= NextCheckpointEvents) {
      takeCheckpoint(R, /*Initial=*/false);
      continue;
    }
    if (!F.Progress) {
      // Machine stalled. With dead processors and a rollback line this
      // is the (abstracted) failure detection point: roll back and
      // replay. Anything else is terminal.
      if (F.AnyDead && Recovery &&
          R.Recovery.Rollbacks < Opts.Checkpoint.MaxRollbacks) {
        restoreCheckpoint(R);
        if (EE)
          EE->reset(); // everyone reincarnated and unblocked
        continue;
      }
      reportStall(R);
      fillRecoverySplit(R);
      flushCounters(R);
      return R;
    }
  }
  // Undelivered messages indicate a send/receive mismatch.
  uint64_t Leftover = 0;
  for (const auto &[Key, Q] : Queues)
    Leftover += Q.size();
  if (Leftover != 0) {
    R.Ok = false;
    R.Diag.InFlightMessages = Leftover;
    R.Diag.RetryExhausted = Failures;
    R.Diag.TotalProcs = Procs.size();
    R.Diag.FinishedProcs = Procs.size();
    R.Error = "unconsumed messages remain in the network (" +
              std::to_string(Leftover) + " copies)";
    fillRecoverySplit(R);
    flushCounters(R);
    return R;
  }
  if (!Failures.empty()) {
    // Every processor finished yet some packet exhausted its retries:
    // the program never waited for it, which is a compilation bug.
    R.Ok = false;
    R.Diag.RetryExhausted = Failures;
    R.Diag.TotalProcs = Procs.size();
    R.Diag.FinishedProcs = Procs.size();
    R.Error = "transport gave up on " +
              std::to_string(Failures.size()) +
              " packet(s) nobody was waiting for";
    fillRecoverySplit(R);
    flushCounters(R);
    return R;
  }
  R.TotalEvents = Events;
  // Drain the NICs: a processor whose network interface is still
  // pushing out an early send is finished computing but not done — the
  // remaining occupancy is exposed (un-overlapped) latency and counts
  // toward the makespan, though not toward busy time.
  for (unsigned Ph = 0, E2 = static_cast<unsigned>(PhysClock.size());
       Ph != E2; ++Ph)
    if (NetFree[Ph] > PhysClock[Ph]) {
      NetExposed[Ph] += NetFree[Ph] - PhysClock[Ph];
      PhysClock[Ph] = NetFree[Ph];
    }
  R.MakespanSeconds = 0;
  for (double C : PhysClock)
    R.MakespanSeconds = std::max(R.MakespanSeconds, C);
  R.PhysBusy = PhysBusy;
  fillRecoverySplit(R);
  flushCounters(R);
  return R;
}

//===----------------------------------------------------------------------===//
// Checkpoint / restart
//===----------------------------------------------------------------------===//

void Simulator::takeCheckpoint(SimResult &R, bool Initial) {
  const unsigned Dims = CP.Spmd.GridDims;
  auto CK = std::make_unique<Checkpoint>();
  CK->Procs.reserve(Procs.size());
  std::vector<uint64_t> WordsPerPhys(PhysClock.size(), 0);
  for (const VirtProc &V : Procs) {
    CK->Procs.push_back(V.state());
    // Snapshot footprint: array partition + environments + loop cursors
    // (4 words per live frame) + the cached multicast packing.
    WordsPerPhys[V.Phys] += V.Store.size() + V.Env.size() +
                            V.ProgEnv.size() + 4 * V.Stack.size() +
                            V.CachedData.size();
  }
  CK->Queues = Queues;
  for (const auto &[Key, Q] : Queues) {
    // Receive buffers are part of the channel state; they are
    // checkpointed where they live, on the receiver.
    std::vector<IntT> DstCoord(Key.end() - Dims, Key.end());
    unsigned Ph = physOf(DstCoord);
    for (const Message &M : Q)
      WordsPerPhys[Ph] += M.WordCount + 2; // payload + header
  }
  CK->SendSeq = SendSeq;
  CK->RecvSeq = RecvSeq;
  CK->Failures = Failures;
  CK->Ctr = Ctr;
  CK->EventsAtTaken = Events;
  CK->WordsPerPhys = WordsPerPhys;

  uint64_t TotalWords = 0;
  for (uint64_t W : WordsPerPhys)
    TotalWords = addSat(TotalWords, W);
  ++R.Recovery.CheckpointsTaken;
  R.Recovery.CheckpointBytes =
      addSat(R.Recovery.CheckpointBytes, mulSat(TotalWords, 8));

  if (!Initial) {
    // Coordinated: every processor synchronizes at the line, then
    // writes its state to the stable store.
    double Line = 0;
    for (double C : PhysClock)
      Line = std::max(Line, C);
    for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
      double C = Opts.Checkpoint.LatencySeconds +
                 static_cast<double>(WordsPerPhys[Ph]) *
                     Opts.Checkpoint.PerWordSeconds;
      PhysClock[Ph] = Line + C;
      PhysBusy[Ph] += C;
      BusyCheckpoint[Ph] += C;
    }
  }
  // Bucket snapshot taken after charging: the checkpoint's own cost is
  // inside its line and is never treated as undone work.
  CK->BusyCompute = BusyCompute;
  CK->BusyProtocol = BusyProtocol;
  CK->BusyCheckpoint = BusyCheckpoint;

  Stable = std::move(CK);
  // Saturating: an interval near 2^64 must disable further triggers,
  // not wrap the trigger behind Events (a permanently-armed gate turns
  // every subsequent round into a checkpoint livelock).
  NextCheckpointEvents = addSat(Events, Opts.Checkpoint.IntervalSteps);
  ReplayBaseEvents = Events;

  // Durable mode (DESIGN.md §13): the line just drawn also goes to the
  // host filesystem, so a SIGKILL of this process loses at most the
  // work since this checkpoint.
  if (Opts.Checkpoint.durable())
    persistDurable(R);
}

void Simulator::restoreCheckpoint(SimResult &R) {
  const Checkpoint &CK = *Stable;
  ++R.Recovery.Rollbacks;
  R.Recovery.ReplayedSteps += Events - ReplayBaseEvents;
  R.Recovery.ReplayedMessages +=
      (Ctr.Messages + Ctr.IntraMessages) -
      (CK.Ctr.Messages + CK.Ctr.IntraMessages);

  // Work done past the line is undone: move it into the recovery bucket
  // so Compute/Protocol/Checkpoint keep charging each useful unit once.
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph)
    RecoveryExtraSeconds += (BusyCompute[Ph] - CK.BusyCompute[Ph]) +
                            (BusyProtocol[Ph] - CK.BusyProtocol[Ph]) +
                            (BusyCheckpoint[Ph] - CK.BusyCheckpoint[Ph]);
  BusyCompute = CK.BusyCompute;
  BusyProtocol = CK.BusyProtocol;
  BusyCheckpoint = CK.BusyCheckpoint;

  // Rewind the logical counters: a recovered run reports the same
  // logical traffic and arithmetic as a fault-free one. The wire-level
  // transport counters stay monotonic.
  Ctr.Messages = CK.Ctr.Messages;
  Ctr.IntraMessages = CK.Ctr.IntraMessages;
  Ctr.Words = CK.Ctr.Words;
  Ctr.Flops = CK.Ctr.Flops;
  Ctr.ComputeIterations = CK.Ctr.ComputeIterations;
  Failures = CK.Failures;

  // Reincarnate every processor from its snapshot. HasCrashed is NOT
  // restored: a processor's one scheduled crash stays spent, so replay
  // passes through the crash point unharmed.
  for (unsigned I = 0, E = Procs.size(); I != E; ++I) {
    VirtProc &V = Procs[I];
    V.state() = CK.Procs[I];
    V.Crashed = false;
    V.Blocked = false;
  }

  // Channel state: the checkpointed receive buffers, plus whatever was
  // still in flight from sends made after the line (sequence number at
  // or past the checkpointed sender cursor — those sends will NOT be
  // replayed from a pre-line sender state, so their copies must
  // survive). Copies below the line are replaced by the snapshot's own
  // queue contents; replayed sends that the receiver already consumed
  // are suppressed on arrival by the sequence-number window.
  std::map<std::vector<IntT>, std::vector<Message>> Merged = CK.Queues;
  for (auto &[Key, Q] : Queues) {
    auto It = CK.SendSeq.find(Key);
    uint64_t Line = It == CK.SendSeq.end() ? 0 : It->second;
    for (Message &M : Q)
      if (M.Seq >= Line)
        Merged[Key].push_back(std::move(M));
  }
  Queues = std::move(Merged);
  SendSeq = CK.SendSeq;
  RecvSeq = CK.RecvSeq;

  // Clocks never rewind: survivors sit through the failure-detection
  // window, then every processor reads the checkpoint back from the
  // stable store.
  double Line = 0;
  for (double C : PhysClock)
    Line = std::max(Line, C);
  Line += Opts.Checkpoint.DetectSeconds;
  RecoveryExtraSeconds += Opts.Checkpoint.DetectSeconds;
  for (unsigned Ph = 0, E = PhysClock.size(); Ph != E; ++Ph) {
    double C = Opts.Checkpoint.RestoreLatencySeconds +
               static_cast<double>(CK.WordsPerPhys[Ph]) *
                   Opts.Checkpoint.RestorePerWordSeconds;
    PhysClock[Ph] = Line + C;
    PhysBusy[Ph] += C;
    RecoveryExtraSeconds += C;
  }
  ReplayBaseEvents = Events;
  NextCheckpointEvents = addSat(Events, Opts.Checkpoint.IntervalSteps);
}

//===----------------------------------------------------------------------===//
// Durable stable store (DESIGN.md §13)
//===----------------------------------------------------------------------===//
//
// A durable image is one stable-store frame (type "CKPT") whose payload
// is a versioned, self-validating serialization of the FULL machine
// state at a checkpoint line — not just the logical Checkpoint contents:
// clocks, busy buckets, NIC state, monotonic counters, crash history and
// the partial SimResult accumulators all ride along, because a resumed
// process must report telemetry bit-identical to the uninterrupted run.
// Doubles travel as IEEE-754 bit patterns; call-stack frames are encoded
// as (is-loop, position, loop cursor/bound) paths and re-anchored onto
// the resumed process's deterministically recompiled SPMD tree.
//
// What is deliberately NOT serialized:
//  - SlowFactor and the fault schedule: recomputed from the seed.
//  - NextCheckpointEvents/ReplayBaseEvents: recomputed from Events.

namespace {

using stable::ByteReader;
using stable::ByteWriter;

/// Frame type tag of a checkpoint image ("CKPT").
constexpr uint32_t CkptFrameType = 0x434B5054u;
/// Bumped whenever the image payload layout changes; a mismatch makes
/// the resume scan skip the file as incompatible.
constexpr uint32_t CkptImageVersion = 1;

void writeI64Vec(ByteWriter &W, const std::vector<IntT> &V) {
  W.u64(V.size());
  for (IntT X : V)
    W.i64(X);
}

bool readI64Vec(ByteReader &Rd, std::vector<IntT> &V) {
  uint64_t N = Rd.u64();
  if (!Rd.ok() || N > Rd.remaining() / 8)
    return false;
  V.resize(N);
  for (uint64_t I = 0; I != N; ++I)
    V[I] = Rd.i64();
  return Rd.ok();
}

void writeF64Vec(ByteWriter &W, const std::vector<double> &V) {
  W.u64(V.size());
  for (double X : V)
    W.f64(X);
}

bool readF64Vec(ByteReader &Rd, std::vector<double> &V) {
  uint64_t N = Rd.u64();
  if (!Rd.ok() || N > Rd.remaining() / 8)
    return false;
  V.resize(N);
  for (uint64_t I = 0; I != N; ++I)
    V[I] = Rd.f64();
  return Rd.ok();
}

void writeFailure(ByteWriter &W, const TransportFailure &F) {
  W.u32(F.CommId);
  writeI64Vec(W, F.Src);
  writeI64Vec(W, F.Dst);
  W.u64(F.Seq);
  W.u32(F.Attempts);
}

bool readFailure(ByteReader &Rd, TransportFailure &F) {
  F.CommId = Rd.u32();
  if (!readI64Vec(Rd, F.Src) || !readI64Vec(Rd, F.Dst))
    return false;
  F.Seq = Rd.u64();
  F.Attempts = Rd.u32();
  return Rd.ok();
}

/// The on-disk filename of the image at global step \p Events,
/// zero-padded so lexicographic directory order is numeric order.
std::string ckptFileName(uint64_t Events) {
  char Name[48];
  std::snprintf(Name, sizeof(Name), "ckpt-%020llu.dmc",
                static_cast<unsigned long long>(Events));
  return Name;
}

} // namespace

void Simulator::persistDurable(const SimResult &R) {
  const Checkpoint &CK = *Stable;
  ByteWriter W;
  W.u32(CkptImageVersion);
  // Identity: a resumed process must be running the same deterministic
  // compilation with the same grid and parameters, or the encoded
  // call-stack paths and environments are meaningless.
  W.u64(Procs.size());
  W.u64(PhysClock.size());
  W.u32(CP.Spmd.GridDims);
  writeI64Vec(W, ParamEnv);

  // Machine position and counters.
  W.u64(Events);
  W.u64(Ctr.Messages);
  W.u64(Ctr.IntraMessages);
  W.u64(Ctr.Words);
  W.u64(Ctr.Flops);
  W.u64(Ctr.ComputeIterations);
  W.u64(Ctr.Retransmissions);
  W.u64(Ctr.DroppedPackets);
  W.u64(Ctr.DuplicatesSuppressed);
  W.u64(Ctr.AcksSent);
  W.u64(Ctr.CorruptedPackets);
  W.u64(Ctr.NacksSent);
  W.u64(Ctr.PartitionDrops);
  W.u64(Ctr.SlowLinkMessages);
  W.u64(Ctr.Crashes);
  W.u64(Ctr.EarlySends);

  // Partial SimResult accumulators: the run-so-far telemetry a fresh
  // SimResult in the resumed process has to inherit.
  W.u64(R.Recovery.CheckpointsTaken);
  W.u64(R.Recovery.CheckpointBytes);
  W.u64(R.Recovery.Rollbacks);
  W.u64(R.Recovery.ReplayedSteps);
  W.u64(R.Recovery.ReplayedMessages);
  W.f64(RecoveryExtraSeconds);

  // Clocks, busy buckets and NIC state (monotonic — never rewound, so
  // the in-memory Checkpoint omits them, but a resumed process needs
  // their values at the line).
  writeF64Vec(W, PhysClock);
  writeF64Vec(W, PhysBusy);
  writeF64Vec(W, BusyCompute);
  writeF64Vec(W, BusyProtocol);
  writeF64Vec(W, BusyCheckpoint);
  writeF64Vec(W, NetFree);
  writeF64Vec(W, NetDeferred);
  writeF64Vec(W, NetExposed);

  // Crash history: spent crash budgets and the event log.
  for (char C : HasCrashed)
    W.u8(static_cast<uint8_t>(C));
  W.u64(CrashLog.size());
  for (const CrashEvent &C : CrashLog) {
    writeI64Vec(W, C.Coord);
    W.u32(C.Phys);
    W.u64(C.AtStep);
    W.f64(C.AtTime);
  }
  W.u64(Failures.size());
  for (const TransportFailure &F : Failures)
    writeFailure(W, F);
  W.u64(CK.WordsPerPhys.size());
  for (uint64_t X : CK.WordsPerPhys)
    W.u64(X);

  // Per-processor logical state, exactly the in-memory Checkpoint's.
  for (const ProcState &PS : CK.Procs) {
    writeI64Vec(W, PS.Env);
    writeI64Vec(W, PS.ProgEnv);
    W.u64(PS.Stack.size());
    for (const Frame &F : PS.Stack) {
      W.u8(F.LoopStmt ? 1 : 0);
      W.u64(F.Pos);
      W.i64(F.LoopCur);
      W.i64(F.LoopHi);
    }
    W.u8(PS.Finished ? 1 : 0);
    W.u64(PS.Steps);
    W.u64(PS.Store.size());
    for (const auto &[Key, Val] : PS.Store) {
      W.u32(Key.first);
      W.i64(Key.second);
      W.f64(Val);
    }
    W.i64(PS.LastMulticastComm);
    W.u64(PS.BurstPhys.size());
    for (unsigned Ph : PS.BurstPhys)
      W.u32(Ph);
    W.f64(PS.BurstReady);
    W.i64(PS.CachedPackComm);
    writeF64Vec(W, PS.CachedData);
    W.u64(PS.CachedCount);
  }

  // Channel state: receive queues and transport cursors.
  W.u64(CK.Queues.size());
  for (const auto &[Key, Q] : CK.Queues) {
    writeI64Vec(W, Key);
    W.u64(Q.size());
    for (const Message &M : Q) {
      writeF64Vec(W, M.Data);
      W.u64(M.WordCount);
      W.f64(M.ReadyTime);
      W.u8(M.FromMulticast ? 1 : 0);
      W.u64(M.Seq);
    }
  }
  auto WriteSeqMap = [&](const std::map<std::vector<IntT>, uint64_t> &M) {
    W.u64(M.size());
    for (const auto &[Key, Seq] : M) {
      writeI64Vec(W, Key);
      W.u64(Seq);
    }
  };
  WriteSeqMap(CK.SendSeq);
  WriteSeqMap(CK.RecvSeq);

  std::vector<uint8_t> Bytes = stable::encodeFrame(CkptFrameType, W.take());
  const std::string &Dir = Opts.Checkpoint.DurableDir;
  std::string Err;
  if (!stable::ensureDir(Dir, Err) ||
      !stable::atomicWriteFile(Dir + "/" + ckptFileName(Events), Bytes,
                               Err)) {
    std::string Msg = "durable checkpoint write failed: " + Err;
    fatalError(Msg.c_str());
  }
}

bool Simulator::resumeFromDurable(SimResult &R) {
  ResumeInfo.Attempted = true;
  const std::string &Dir = Opts.Checkpoint.DurableDir;
  std::vector<std::string> Files = stable::listFiles(Dir, "ckpt-", ".dmc");
  ResumeInfo.FilesSeen = static_cast<unsigned>(Files.size());

  // Parses one image payload and, only if EVERY field validates,
  // applies it to the machine. Returns false (state untouched) on any
  // structural damage or incompatibility.
  auto TryLoad = [&](const std::vector<uint8_t> &Payload) -> bool {
    ByteReader Rd(Payload);
    if (Rd.u32() != CkptImageVersion)
      return false;
    if (Rd.u64() != Procs.size() || Rd.u64() != PhysClock.size() ||
        Rd.u32() != CP.Spmd.GridDims)
      return false;
    std::vector<IntT> ImgParamEnv;
    if (!readI64Vec(Rd, ImgParamEnv) || ImgParamEnv != ParamEnv)
      return false;

    // The image parses into a Checkpoint, which becomes the in-memory
    // stable store once applied, so the next in-simulation rollback has
    // its line exactly as the uninterrupted run would.
    auto Img = std::make_unique<Checkpoint>();
    Img->EventsAtTaken = Rd.u64();
    SimCounters &C = Img->Ctr;
    C.Messages = Rd.u64();
    C.IntraMessages = Rd.u64();
    C.Words = Rd.u64();
    C.Flops = Rd.u64();
    C.ComputeIterations = Rd.u64();
    C.Retransmissions = Rd.u64();
    C.DroppedPackets = Rd.u64();
    C.DuplicatesSuppressed = Rd.u64();
    C.AcksSent = Rd.u64();
    C.CorruptedPackets = Rd.u64();
    C.NacksSent = Rd.u64();
    C.PartitionDrops = Rd.u64();
    C.SlowLinkMessages = Rd.u64();
    C.Crashes = Rd.u64();
    C.EarlySends = Rd.u64();

    uint64_t CkTaken = Rd.u64(), CkBytes = Rd.u64(), Rollbacks = Rd.u64(),
             ReplayedSteps = Rd.u64(), ReplayedMessages = Rd.u64();
    double RecoveryExtra = Rd.f64();

    std::vector<double> Clock, Busy, NFree, NDeferred, NExposed;
    if (!readF64Vec(Rd, Clock) || !readF64Vec(Rd, Busy) ||
        !readF64Vec(Rd, Img->BusyCompute) ||
        !readF64Vec(Rd, Img->BusyProtocol) ||
        !readF64Vec(Rd, Img->BusyCheckpoint) || !readF64Vec(Rd, NFree) ||
        !readF64Vec(Rd, NDeferred) || !readF64Vec(Rd, NExposed))
      return false;
    const size_t NPhys = PhysClock.size();
    if (Clock.size() != NPhys || Busy.size() != NPhys ||
        Img->BusyCompute.size() != NPhys ||
        Img->BusyProtocol.size() != NPhys ||
        Img->BusyCheckpoint.size() != NPhys || NFree.size() != NPhys ||
        NDeferred.size() != NPhys || NExposed.size() != NPhys)
      return false;

    std::vector<char> Crashed(Procs.size());
    for (char &Ch : Crashed)
      Ch = static_cast<char>(Rd.u8());
    uint64_t NCrash = Rd.u64();
    if (!Rd.ok() || NCrash > Rd.remaining() / 21)
      return false;
    std::vector<CrashEvent> Log(NCrash);
    for (CrashEvent &CE : Log) {
      if (!readI64Vec(Rd, CE.Coord))
        return false;
      CE.Phys = Rd.u32();
      CE.AtStep = Rd.u64();
      CE.AtTime = Rd.f64();
    }
    uint64_t NFail = Rd.u64();
    if (!Rd.ok() || NFail > Rd.remaining() / 24)
      return false;
    Img->Failures.resize(NFail);
    for (TransportFailure &F : Img->Failures)
      if (!readFailure(Rd, F))
        return false;
    uint64_t NWpp = Rd.u64();
    if (NWpp != NPhys || !Rd.ok())
      return false;
    Img->WordsPerPhys.resize(NWpp);
    for (uint64_t &X : Img->WordsPerPhys)
      X = Rd.u64();

    Img->Procs.resize(Procs.size());
    for (unsigned I = 0, E = static_cast<unsigned>(Procs.size()); I != E;
         ++I) {
      ProcState &PS = Img->Procs[I];
      if (!readI64Vec(Rd, PS.Env) || PS.Env.size() != Procs[I].Env.size())
        return false;
      if (!readI64Vec(Rd, PS.ProgEnv) ||
          PS.ProgEnv.size() != Procs[I].ProgEnv.size())
        return false;
      // Re-anchor the call stack onto this process's SPMD tree: each
      // frame's list is the body of the statement its parent frame
      // stands at (children are pushed after the parent's cursor
      // advanced, so parent.Pos - 1 names that statement).
      uint64_t NFrames = Rd.u64();
      if (!Rd.ok() || NFrames > Rd.remaining() / 25)
        return false;
      PS.Stack.reserve(NFrames);
      for (uint64_t K = 0; K != NFrames; ++K) {
        bool IsLoop = Rd.u8() != 0;
        uint64_t Pos = Rd.u64();
        IntT LoopCur = Rd.i64(), LoopHi = Rd.i64();
        if (!Rd.ok())
          return false;
        Frame F;
        if (K == 0) {
          if (IsLoop)
            return false; // the root frame is the Top sequence
          F.List = &CP.Spmd.Top;
        } else {
          const Frame &Par = PS.Stack.back();
          if (Par.Pos < 1 || Par.Pos > Par.List->size())
            return false;
          const SpmdStmt &St = (*Par.List)[Par.Pos - 1];
          if (IsLoop && St.K != SpmdStmt::Kind::For)
            return false;
          F.List = &St.Body;
          if (IsLoop)
            F.LoopStmt = &St;
        }
        if (Pos > F.List->size())
          return false;
        F.Pos = static_cast<unsigned>(Pos);
        F.LoopCur = LoopCur;
        F.LoopHi = LoopHi;
        PS.Stack.push_back(F);
      }
      PS.Finished = Rd.u8() != 0;
      PS.Steps = Rd.u64();
      uint64_t NStore = Rd.u64();
      if (!Rd.ok() || NStore > Rd.remaining() / 20)
        return false;
      for (uint64_t K = 0; K != NStore; ++K) {
        unsigned ArrayId = Rd.u32();
        IntT Flat = Rd.i64();
        double Val = Rd.f64();
        PS.Store.emplace(std::make_pair(ArrayId, Flat), Val);
      }
      PS.LastMulticastComm = static_cast<int>(Rd.i64());
      uint64_t NBurst = Rd.u64();
      if (!Rd.ok() || NBurst > Rd.remaining() / 4)
        return false;
      for (uint64_t K = 0; K != NBurst; ++K)
        PS.BurstPhys.insert(Rd.u32());
      PS.BurstReady = Rd.f64();
      PS.CachedPackComm = static_cast<int>(Rd.i64());
      if (!readF64Vec(Rd, PS.CachedData))
        return false;
      PS.CachedCount = Rd.u64();
      if (!Rd.ok())
        return false;
    }

    uint64_t NQueues = Rd.u64();
    if (!Rd.ok() || NQueues > Rd.remaining() / 16)
      return false;
    for (uint64_t K = 0; K != NQueues; ++K) {
      std::vector<IntT> Key;
      if (!readI64Vec(Rd, Key))
        return false;
      uint64_t NMsgs = Rd.u64();
      if (!Rd.ok() || NMsgs > Rd.remaining() / 26)
        return false;
      std::vector<Message> Q(NMsgs);
      for (Message &M : Q) {
        if (!readF64Vec(Rd, M.Data))
          return false;
        M.WordCount = Rd.u64();
        M.ReadyTime = Rd.f64();
        M.FromMulticast = Rd.u8() != 0;
        M.Seq = Rd.u64();
      }
      Img->Queues.emplace(std::move(Key), std::move(Q));
    }
    auto ReadSeqMap = [&](std::map<std::vector<IntT>, uint64_t> &M) {
      uint64_t N = Rd.u64();
      if (!Rd.ok() || N > Rd.remaining() / 16)
        return false;
      for (uint64_t K = 0; K != N; ++K) {
        std::vector<IntT> Key;
        if (!readI64Vec(Rd, Key))
          return false;
        M.emplace(std::move(Key), Rd.u64());
      }
      return Rd.ok();
    };
    if (!ReadSeqMap(Img->SendSeq) || !ReadSeqMap(Img->RecvSeq))
      return false;
    if (!Rd.atEnd())
      return false;

    // Everything validated: apply.
    for (unsigned I = 0, E = static_cast<unsigned>(Procs.size()); I != E;
         ++I) {
      Procs[I].state() = Img->Procs[I];
      Procs[I].Crashed = false; // never checkpointed with dead procs
      Procs[I].Blocked = false;
    }
    Queues = Img->Queues;
    SendSeq = Img->SendSeq;
    RecvSeq = Img->RecvSeq;
    Failures = Img->Failures;
    Ctr = Img->Ctr;
    Events = Img->EventsAtTaken;
    PhysClock = Clock;
    PhysBusy = Busy;
    BusyCompute = Img->BusyCompute;
    BusyProtocol = Img->BusyProtocol;
    BusyCheckpoint = Img->BusyCheckpoint;
    NetFree = NFree;
    NetDeferred = NDeferred;
    NetExposed = NExposed;
    RecoveryExtraSeconds = RecoveryExtra;
    HasCrashed = Crashed;
    CrashLog = Log;
    R.Recovery.CheckpointsTaken = CkTaken;
    R.Recovery.CheckpointBytes = CkBytes;
    R.Recovery.Rollbacks = Rollbacks;
    R.Recovery.ReplayedSteps = ReplayedSteps;
    R.Recovery.ReplayedMessages = ReplayedMessages;
    Stable = std::move(Img);
    NextCheckpointEvents = addSat(Events, Opts.Checkpoint.IntervalSteps);
    ReplayBaseEvents = Events;
    return true;
  };

  // Newest first; skip (and count) anything torn, bit-damaged or
  // incompatible. First intact image wins.
  for (auto It = Files.rbegin(); It != Files.rend(); ++It) {
    std::string Path = Dir + "/" + *It;
    stable::ReadFramesResult RF = stable::readFrames(Path);
    if (!RF.Error.empty() || RF.TornTail || RF.Frames.size() != 1 ||
        RF.Frames[0].Type != CkptFrameType || !TryLoad(RF.Frames[0].Payload)) {
      ++ResumeInfo.CorruptSkipped;
      continue;
    }
    ResumeInfo.Resumed = true;
    ResumeInfo.ResumedAtEvents = Events;
    ResumeInfo.File = Path;
    return true;
  }
  return false;
}

namespace {

std::string coordStr(const std::vector<IntT> &C) {
  std::string S = "(";
  for (unsigned I = 0; I != C.size(); ++I) {
    if (I)
      S += ",";
    S += std::to_string(C[I]);
  }
  S += ")";
  return S;
}

} // namespace

std::string SimDiagnostics::str() const {
  constexpr unsigned MaxListed = 16;
  std::string S;
  if (!DeadProcs.empty()) {
    S += "crash-stop failure: " + std::to_string(DeadProcs.size()) +
         " of " + std::to_string(TotalProcs) +
         " virtual processors dead\n";
    for (unsigned I = 0; I != DeadProcs.size() && I != MaxListed; ++I) {
      const CrashEvent &C = DeadProcs[I];
      S += "  dead: vp" + coordStr(C.Coord) + " on phys " +
           std::to_string(C.Phys) + ", killed before its logical step " +
           std::to_string(C.AtStep) + "\n";
    }
    if (DeadProcs.size() > MaxListed)
      S += "  ... and " + std::to_string(DeadProcs.size() - MaxListed) +
           " more dead processors\n";
    if (!RecoveryEnabled)
      S += "  rollback line: none (checkpointing disabled — set "
           "SimOptions::Checkpoint / --checkpoint-interval to recover)\n";
    else if (!HasRollbackLine)
      S += "  rollback line: none (no checkpoint taken yet)\n";
    else
      S += "  rollback line: global step " +
           std::to_string(RollbackLineStep) + ", " +
           std::to_string(RollbacksDone) +
           " rollback(s) performed (rollback budget exhausted)\n";
  }
  S += "deadlock: " + std::to_string(StuckProcs.size()) + " of " +
       std::to_string(TotalProcs) +
       " virtual processors blocked on a receive with no "
       "deliverable message (" +
       std::to_string(FinishedProcs) + " finished)\n";
  for (unsigned I = 0; I != StuckProcs.size() && I != MaxListed; ++I) {
    const PendingRecv &Pr = StuckProcs[I];
    S += "  stuck: vp" + coordStr(Pr.Coord) + " on phys " +
         std::to_string(Pr.Phys) + ", waiting for comm " +
         std::to_string(Pr.CommId) + " from vp" + coordStr(Pr.Peer) +
         ", expecting seq " + std::to_string(Pr.ExpectedSeq);
    if (Pr.PeerDead)
      S += " (peer crashed)";
    if (Pr.BufferedAhead)
      S += ", " + std::to_string(Pr.BufferedAhead) +
           " buffered out of order";
    S += "\n";
  }
  if (StuckProcs.size() > MaxListed)
    S += "  ... and " + std::to_string(StuckProcs.size() - MaxListed) +
         " more stuck processors\n";
  S += "  in-flight message copies: " + std::to_string(InFlightMessages) +
       "\n";
  for (unsigned I = 0; I != RetryExhausted.size() && I != MaxListed;
       ++I) {
    const TransportFailure &F = RetryExhausted[I];
    S += "  retry exhausted: comm " + std::to_string(F.CommId) + " vp" +
         coordStr(F.Src) + " -> vp" + coordStr(F.Dst) + " seq " +
         std::to_string(F.Seq) + " lost after " +
         std::to_string(F.Attempts) + " attempts\n";
  }
  if (RetryExhausted.size() > MaxListed)
    S += "  ... and " +
         std::to_string(RetryExhausted.size() - MaxListed) +
         " more retry-exhausted packets\n";
  return S;
}

void Simulator::reportStall(SimResult &R) const {
  R.Ok = false;
  SimDiagnostics &D = R.Diag;
  D.TotalProcs = Procs.size();
  D.RecoveryEnabled = Opts.Checkpoint.enabled();
  D.HasRollbackLine = Stable != nullptr;
  if (Stable)
    D.RollbackLineStep = Stable->EventsAtTaken;
  D.RollbacksDone = static_cast<unsigned>(R.Recovery.Rollbacks);
  std::set<std::vector<IntT>> Dead;
  for (const VirtProc &V : Procs) {
    if (!V.Crashed)
      continue;
    Dead.insert(V.Coord);
    // The newest crash of this processor (there is at most one per
    // incarnation, and earlier ones were rolled back).
    for (auto It = CrashLog.rbegin(); It != CrashLog.rend(); ++It)
      if (It->Coord == V.Coord) {
        D.DeadProcs.push_back(*It);
        break;
      }
  }
  for (const VirtProc &V : Procs) {
    if (V.Crashed)
      continue;
    if (V.Finished) {
      ++D.FinishedProcs;
      continue;
    }
    if (V.Blocked) {
      PendingRecv Pr = V.LastBlock;
      Pr.PeerDead = Dead.count(Pr.Peer) != 0;
      D.StuckProcs.push_back(Pr);
    }
  }
  D.RetryExhausted = Failures;
  for (const auto &[Key, Q] : Queues)
    D.InFlightMessages += Q.size();
  R.Error = D.str();
}

std::optional<double> Simulator::finalValue(
    unsigned ArrayId, const std::vector<IntT> &Idx) const {
  auto It = Spec.FinalData.find(ArrayId);
  IntT Flat = flatIndex(ArrayId, Idx);
  if (It != Spec.FinalData.end() && It->second.isUnique()) {
    const Decomposition &D = It->second;
    std::vector<IntT> Src(D.sourceSpace().size(), 0);
    unsigned K = 0;
    for (unsigned I = 0; I != D.sourceSpace().size(); ++I) {
      if (D.sourceSpace().kind(I) == VarKind::Param)
        Src[I] = paramValue(Opts.ParamValues, D.sourceSpace().name(I));
      else
        Src[I] = Idx[K++];
    }
    std::vector<IntT> Owner = D.gridCoordinate(Src);
    for (const VirtProc &V : Procs) {
      if (V.Coord != Owner)
        continue;
      auto SIt = V.Store.find({ArrayId, Flat});
      if (SIt == V.Store.end())
        return std::nullopt;
      return SIt->second;
    }
    return std::nullopt;
  }
  return std::nullopt;
}
