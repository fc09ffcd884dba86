//===- sim/Simulator.h - Distributed-memory machine simulator --*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled SPMD program on a simulated message-passing
/// machine, standing in for the paper's Intel iPSC/860. Every *virtual*
/// processor of the compilation grid runs the SPMD program with its own
/// environment and private local memory; virtual processors are folded
/// onto physical processors round-robin (pi(v) = v mod P, Section 4.1)
/// and multiplexed cooperatively on a shared per-physical clock.
///
/// Locality is enforced by construction: a processor can only read array
/// elements it owns initially, wrote itself, or received — any other read
/// is reported as a compilation bug. Functional mode computes real
/// floating-point values (verified against the sequential interpreter);
/// performance mode skips the arithmetic, collapses communication-free
/// innermost loops into closed-form costs, and reproduces Figure 14 at
/// full problem sizes.
///
/// An optional fault layer (SimOptions::Faults, see FaultModel.h) makes
/// the network lossy — dropped, duplicated, delayed and corrupted
/// packets (checksummed delivery with NACK-triggered retransmission),
/// transient partitions that heal after a seeded interval, straggler
/// links with per-link latency multipliers, slow processors — and runs
/// every channel over an acked stop-and-wait transport with bounded
/// retransmission. Results remain bit-exact under
/// any fault schedule; unrecoverable stalls end in a structured
/// SimDiagnostics instead of a hang. With the default options the layer
/// is bypassed and costs match the lossless machine exactly.
///
/// On top of the lossy network the fault layer supports permanent
/// crash-stop processor failures (FaultOptions::CrashRate) tolerated by
/// a coordinated checkpoint/restart protocol (SimOptions::Checkpoint):
/// at a configurable logical-step interval every virtual processor
/// snapshots its partitions, cursors, receive buffers and transport
/// sequence state to an in-simulator stable store; when a crash stalls
/// the machine, all processors roll back to the last checkpoint and
/// replay, the transport's duplicate suppression absorbing messages
/// resent from before the rollback line (DESIGN.md §8). Results remain
/// bit-exact under every recoverable crash schedule.
///
/// SimOptions::Engine == SimEngine::Event replaces the per-round sweep
/// over every virtual processor with a discrete-event scheduler
/// (DESIGN.md §14): only runnable processors are visited, a blocked
/// receiver parks in a per-(dest, tag) hash bucket and is woken in O(1)
/// by the send that can satisfy it, and checkpoint barriers are
/// amortized by cutting the round at the first gated slice instead of
/// sweeping the remaining processors through no-op slices. Because a
/// blocked receive attempt is side-effect-free, skipping it preserves
/// the exact sequential statement order — the event engine is
/// bit-identical to the round engine for every program, fault, crash
/// and checkpoint schedule, at a fraction of the scheduling cost when
/// most processors are waiting (the regime at P >= 1024).
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_SIMULATOR_H
#define DMCC_SIM_SIMULATOR_H

#include "core/Compiler.h"
#include "ir/Program.h"
#include "sim/FaultModel.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dmcc {

/// Message-passing cost parameters, defaulting to iPSC/860-class
/// constants (hypercube with ~8 single-precision MFLOPS/node achieved,
/// ~75 us message latency, ~2.8 MB/s per link).
struct CostModel {
  double FlopTime = 1.0 / 8.0e6;  ///< seconds per floating-point op
  double IterOverhead = 0.02e-6;  ///< per executed loop iteration
  double MsgLatency = 75e-6;      ///< fixed per-message cost (alpha)
  double SendPerWord = 0.35e-6;   ///< per 4-byte word at the sender
  double RecvPerWord = 0.35e-6;   ///< per word copy at the receiver
  double WireTimePerWord = 1.4e-6;///< link occupancy per word
  double MulticastExtraDest = 10e-6; ///< extra per additional destination
  /// CPU-side cost to post a nonblocking (early) send: the descriptor
  /// write that hands the message to the NIC. The per-word pack copy is
  /// still charged to the CPU; the fixed MsgLatency (and, under the
  /// reliable transport, the retransmission work) moves to the NIC and
  /// overlaps the sender's remaining computation. On the fault-free
  /// path the NIC cuts through: protocol processing pipelines into the
  /// flight, so consumers see a single MsgLatency instead of the
  /// blocking rendezvous' two (DESIGN.md §11).
  double SendIssueOverhead = 5e-6;
};

/// Coordinated checkpoint/restart configuration (DESIGN.md §8). With
/// IntervalSteps == 0 the layer is disabled entirely: no snapshots are
/// taken and a crash-stop failure is unrecoverable.
struct CheckpointOptions {
  /// Global logical-step (executed SPMD statement) interval between
  /// coordinated checkpoints; 0 disables checkpointing and recovery.
  /// An initial cost-free checkpoint of the starting state is always
  /// taken when enabled, so a rollback line exists from step 0.
  uint64_t IntervalSteps = 0;
  /// Stable-store write cost per checkpoint per processor: fixed
  /// latency plus a per-word charge for the snapshotted state.
  double LatencySeconds = 1e-3;
  double PerWordSeconds = 1e-6;
  /// Stable-store read cost on rollback, same shape.
  double RestoreLatencySeconds = 1e-3;
  double RestorePerWordSeconds = 1e-6;
  /// Stall-to-detection window charged once per rollback: the time the
  /// survivors take to agree a peer is dead rather than slow.
  double DetectSeconds = 5e-3;
  /// Rollback budget: recovery attempts beyond this end the run with a
  /// structured diagnostic instead of thrashing. Crash schedules honor
  /// at most one crash per processor, so this is a secondary guard.
  unsigned MaxRollbacks = 64;
  /// Durable stable store (DESIGN.md §13). When non-empty, every
  /// coordinated checkpoint (including the free initial one) is also
  /// serialized to `DurableDir/ckpt-<events>.dmc` as a versioned,
  /// CRC32-framed image written with temp+fsync+rename — so a SIGKILL
  /// of the host process at any instant leaves the newest intact image
  /// on disk. Requires IntervalSteps > 0.
  std::string DurableDir;
  /// Before executing anything, scan DurableDir for the newest intact
  /// checkpoint image (torn or bit-damaged files are detected by the
  /// frame CRCs and skipped), restore the full machine state from it
  /// and replay from there — bit-identical to the uninterrupted run.
  /// With no usable image the run starts fresh, so a kill/restart loop
  /// can pass Resume unconditionally. See Simulator::resumeInfo().
  bool Resume = false;

  bool enabled() const { return IntervalSteps > 0; }
  bool durable() const { return enabled() && !DurableDir.empty(); }
};

/// Which scheduler drives the virtual processors (SimOptions::Engine).
enum class SimEngine {
  /// Global rounds: every live processor runs one slice per round, in
  /// ascending processor order.
  Rounds,
  /// Discrete-event virtual-clock queue (DESIGN.md §14): processors are
  /// scheduled only when runnable, blocked receivers wake in O(1) via
  /// per-channel hash buckets.
  Event,
};

/// Simulation configuration.
struct SimOptions {
  /// Physical processors along each grid dimension.
  std::vector<IntT> PhysGrid;
  std::map<std::string, IntT> ParamValues;
  /// Compute actual values (slow, exact) vs cost accounting only.
  bool Functional = true;
  /// Collapse communication-free innermost loops into closed-form costs
  /// (performance mode only).
  bool CollapseLoops = false;
  /// Do not charge network costs for messages between virtual processors
  /// folded onto the same physical processor (Section 6.1.3).
  bool FreeIntraPhysical = true;
  /// Honor nonblocking marks on Send statements (paper Section 6 "early
  /// sends", DESIGN.md §11): the sender pays only the issue/pack cost,
  /// a per-physical NIC serializes the message out while the processor
  /// keeps computing, and only non-overlapped latency reaches the
  /// makespan (a processor is not finished until its NIC drains). Off
  /// forces every send back to blocking semantics regardless of
  /// compiler marks. Array results are bit-identical either way — only
  /// clocks move.
  bool EarlySends = true;
  CostModel Cost;
  /// Fault injection and reliable transport; defaults to a perfect
  /// network with the transport bypassed (zero overhead).
  FaultOptions Faults;
  /// Coordinated checkpoint/restart; defaults to disabled (zero
  /// overhead, no recovery from crash-stop failures).
  CheckpointOptions Checkpoint;
  uint64_t MaxEvents = 6000000000ull; ///< runaway guard
  /// Scheduler choice (DESIGN.md §14). Results are bit-identical across
  /// engines.
  SimEngine Engine = SimEngine::Rounds;
};

/// Logical counters accumulated during execution. The first group
/// rewinds with a rollback (checkpoint state); the second group plus
/// Crashes is monotonic wire-level/telemetry truth.
struct SimCounters {
  uint64_t Messages = 0, IntraMessages = 0, Words = 0, Flops = 0,
           ComputeIterations = 0;
  uint64_t Retransmissions = 0, DroppedPackets = 0,
           DuplicatesSuppressed = 0, AcksSent = 0;
  /// Hostile-network telemetry, monotonic like the transport counters:
  /// checksum failures NACKed back to the sender, NACK transmissions,
  /// attempts swallowed by a transient partition, and logical messages
  /// that crossed a straggler (latency-multiplied) link.
  uint64_t CorruptedPackets = 0, NacksSent = 0, PartitionDrops = 0,
           SlowLinkMessages = 0;
  uint64_t Crashes = 0; ///< crash-stop kills (survive rollback)
  /// Nonblocking sends issued. Monotonic wire-level telemetry like
  /// Retransmissions: replayed issues after a rollback count again.
  uint64_t EarlySends = 0;
};

/// One virtual processor stuck on a receive when the deadlock detector
/// gave up: where it is, and exactly what it is waiting for.
struct PendingRecv {
  std::vector<IntT> Coord; ///< receiver virtual-grid coordinate
  unsigned Phys = 0;       ///< physical processor it is folded onto
  unsigned CommId = 0;     ///< communication-set tag of the receive
  std::vector<IntT> Peer;  ///< expected sender virtual coordinate
  uint64_t ExpectedSeq = 0; ///< next sequence number awaited
  /// Copies queued on the channel with a different (later) sequence
  /// number — arrived out of order, unusable until ExpectedSeq shows up.
  uint64_t BufferedAhead = 0;
  /// The awaited sender was killed by the crash-stop schedule: this
  /// message can never arrive without a rollback.
  bool PeerDead = false;
};

/// A virtual processor killed by the crash-stop schedule.
struct CrashEvent {
  std::vector<IntT> Coord; ///< virtual-grid coordinate of the victim
  unsigned Phys = 0;       ///< physical processor it was folded onto
  uint64_t AtStep = 0;     ///< its logical step (executed stmts) at death
  double AtTime = 0;       ///< its physical clock at death
};

/// A packet the reliable transport gave up on: every attempt (initial
/// send plus MaxRetries retransmissions) was lost in flight.
struct TransportFailure {
  unsigned CommId = 0;
  std::vector<IntT> Src, Dst; ///< sender / receiver virtual coordinates
  uint64_t Seq = 0;
  unsigned Attempts = 0; ///< transmissions made before giving up
};

/// Structured failure report built when a run cannot complete, instead
/// of a bare error string: which processors are stuck, what they wait
/// for, what the transport already gave up on.
struct SimDiagnostics {
  std::vector<PendingRecv> StuckProcs;
  std::vector<TransportFailure> RetryExhausted;
  /// Processors dead (crashed and not recovered) when the run ended.
  std::vector<CrashEvent> DeadProcs;
  /// Whether checkpoint/restart was configured, and where the last
  /// rollback line was (global logical step of the newest checkpoint;
  /// meaningful only when HasRollbackLine).
  bool RecoveryEnabled = false;
  bool HasRollbackLine = false;
  uint64_t RollbackLineStep = 0;
  unsigned RollbacksDone = 0; ///< recoveries performed before giving up
  uint64_t InFlightMessages = 0; ///< undelivered copies across channels
  uint64_t FinishedProcs = 0, TotalProcs = 0;

  /// Human-readable rendering ("deadlock: ... vp(1,2) waiting ...").
  std::string str() const;
};

/// Crash/checkpoint/recovery telemetry (DESIGN.md §8). All fields stay
/// zero while crash-stop failures and checkpointing are disabled.
struct RecoveryStats {
  uint64_t CheckpointsTaken = 0; ///< coordinated snapshots, incl. initial
  uint64_t CheckpointBytes = 0;  ///< bytes written to the stable store
  uint64_t Crashes = 0;          ///< processors killed by the schedule
  uint64_t Rollbacks = 0;        ///< coordinated restarts performed
  uint64_t ReplayedSteps = 0;    ///< statements rolled back for re-execution
  uint64_t ReplayedMessages = 0; ///< logical messages rolled back / resent
  /// Wall-model busy-time split across all physical processors.
  /// Compute/Protocol/Checkpoint charge each useful unit of work once:
  /// work undone by a rollback is moved into RecoverySeconds, which also
  /// carries failure-detection windows and stable-store restore costs.
  double ComputeSeconds = 0;
  double ProtocolSeconds = 0;
  double CheckpointSeconds = 0;
  double RecoverySeconds = 0;
};

/// Communication/computation overlap telemetry for nonblocking (early)
/// sends, aggregated over the run's messages (DESIGN.md §11). All zero
/// when the program carries no nonblocking marks or
/// SimOptions::EarlySends is off. Per-message accounting: each issue
/// adds its share to DeferredSeconds; what the end-of-run NIC drains
/// add back to the clocks lands in ExposedSeconds. Monotonic across
/// rollbacks, like the wire-level transport counters.
struct OverlapStats {
  uint64_t EarlySends = 0;  ///< nonblocking sends issued
  /// Latency taken off the issuing CPU's clock: the blocking charge
  /// minus the nonblocking issue charge, summed per message.
  double DeferredSeconds = 0;
  /// Deferred latency that resurfaced: NIC backlog a processor had to
  /// drain before the run could finish (non-overlapped remainder).
  double ExposedSeconds = 0;
  /// Latency actually hidden behind the sender's computation.
  double hiddenSeconds() const { return DeferredSeconds - ExposedSeconds; }
};

/// Outcome of the durable-resume scan (CheckpointOptions::Resume),
/// reported out of band: it is host-process bookkeeping, not simulated
/// telemetry, so it must not perturb SimResult's bit-identity contract.
struct DurableResumeInfo {
  bool Attempted = false;     ///< a resume scan ran before execution
  bool Resumed = false;       ///< an intact image was restored
  uint64_t ResumedAtEvents = 0; ///< global step of the restored line
  unsigned FilesSeen = 0;     ///< checkpoint images found in the dir
  unsigned CorruptSkipped = 0;///< torn/bit-damaged/incompatible skipped
  std::string File;           ///< path of the image restored
};

/// Aggregate outcome of a simulation.
struct SimResult {
  bool Ok = false;
  std::string Error; ///< rendered diagnostics when !Ok
  SimDiagnostics Diag; ///< structured failure report when !Ok
  double MakespanSeconds = 0;
  uint64_t Messages = 0;       ///< network messages (inter-physical)
  uint64_t IntraMessages = 0;  ///< folded-away intra-physical messages
  uint64_t Words = 0;          ///< words crossing the network
  uint64_t Flops = 0;
  uint64_t ComputeIterations = 0;
  uint64_t TotalEvents = 0;   ///< executed SPMD statements
  std::vector<double> PhysBusy; ///< busy seconds per physical processor

  // Reliable-transport counters (all zero when the transport is
  // bypassed). Messages/Words above stay logical (one per app-level
  // send) so they remain comparable across fault schedules — a rollback
  // rewinds them along with the program state, so a recovered run
  // reports the same logical traffic as a fault-free one. The transport
  // counters below are monotonic: they keep every wire-level event,
  // including those of rolled-back epochs.
  uint64_t Retransmissions = 0;      ///< extra transmissions by senders
  uint64_t DroppedPackets = 0;       ///< data copies lost in flight
  uint64_t DuplicatesSuppressed = 0; ///< redundant copies discarded
  uint64_t AcksSent = 0;             ///< acknowledgements generated
  uint64_t CorruptedPackets = 0;     ///< checksum failures at receivers
  uint64_t NacksSent = 0;            ///< corruption NACKs generated
  uint64_t PartitionDrops = 0;       ///< attempts lost to partitions
  uint64_t SlowLinkMessages = 0;     ///< messages over straggler links

  /// Crash/checkpoint/restart telemetry.
  RecoveryStats Recovery;

  /// Early-send overlap telemetry.
  OverlapStats Overlap;
};

/// The machine simulator.
class Simulator {
public:
  Simulator(const Program &P, const CompiledProgram &CP,
            const CompileSpec &Spec, SimOptions Opts);
  ~Simulator();

  /// Runs to completion (or deadlock). Idempotent state: construct a new
  /// Simulator per run.
  SimResult run();

  /// After a functional run: the value of an array element under the
  /// final data layout (or, absent a final layout, the value held by any
  /// virtual processor that wrote or received it last — for verification
  /// the final layout should be supplied). nullopt if nobody holds it.
  std::optional<double> finalValue(unsigned ArrayId,
                                   const std::vector<IntT> &Idx) const;

  /// Number of virtual processors along each grid dimension.
  const std::vector<IntT> &virtGridLo() const { return VirtLo; }
  const std::vector<IntT> &virtGridHi() const { return VirtHi; }

  /// What the durable-resume scan did (meaningful after run() when
  /// CheckpointOptions::Resume was set).
  const DurableResumeInfo &resumeInfo() const { return ResumeInfo; }

private:
  struct Frame;
  /// A virtual processor's checkpointed state.
  struct ProcState;
  struct VirtProc;
  struct Message;
  struct Checkpoint;
  /// Discrete-event scheduler: run queues, per-channel wait buckets and
  /// the O(1) wake rule (DESIGN.md §14).
  struct EventEngine;
  /// Merged outcome of one scheduler round.
  struct RoundFlags {
    bool Progress = false, AllDone = true, AnyDead = false;
  };

  IntT flatIndex(unsigned ArrayId, const std::vector<IntT> &Idx) const;
  void computeVirtualGrid();
  void initLocalStores();
  /// Runs one slice of \p V, counting executed statements into Events.
  /// \p EE, when non-null, is woken by every queue push.
  bool stepProc(VirtProc &V, EventEngine *EE);
  /// One cooperative round of the rounds engine: every live processor
  /// runs one slice, in ascending processor order.
  RoundFlags runRoundSequential();
  void execComputeIter(VirtProc &V, const SpmdStmt &St);
  double statementCost(const Statement &S) const;
  unsigned physOf(const std::vector<IntT> &VirtCoord) const;
  /// Statements per processor per round (short when crashes or
  /// checkpoints bound how stale a round boundary may be).
  unsigned sliceBudget() const;
  /// Copies the canonical counters into the result's fields.
  void flushCounters(SimResult &R) const;
  void reportStall(SimResult &R) const;
  /// Coordinated checkpoint: snapshot all processor, queue, counter and
  /// transport state into the stable store, charging the cost model
  /// (the initial step-0 checkpoint is free — the input staging).
  void takeCheckpoint(SimResult &R, bool Initial);
  /// Coordinated rollback: restore the last checkpoint, reincarnate
  /// dead processors, rewind logical counters, move undone work into
  /// the recovery bucket, and advance the clocks past detection and
  /// stable-store restore costs.
  void restoreCheckpoint(SimResult &R);
  /// Durable stable store (DESIGN.md §13): serialize the machine state
  /// at the checkpoint line just drawn into DurableDir (CRC32-framed,
  /// temp+fsync+rename). Fatal on host I/O failure — a run that cannot
  /// honor its durability contract must not continue silently.
  void persistDurable(const SimResult &R);
  /// Restore the newest intact durable image from DurableDir, skipping
  /// torn/corrupt/incompatible files; returns false (leaving the
  /// freshly-staged state untouched) when none is usable.
  bool resumeFromDurable(SimResult &R);
  /// Sum the per-physical busy buckets into the result's telemetry.
  void fillRecoverySplit(SimResult &R) const;
  /// Sum the per-physical overlap buckets into the result's telemetry.
  void fillOverlap(SimResult &R) const;

  const Program &P;
  const CompiledProgram &CP;
  const CompileSpec &Spec;
  SimOptions Opts;
  FaultModel Faults;

  std::vector<IntT> VirtLo, VirtHi; ///< virtual grid extent per dim
  std::vector<VirtProc> Procs;
  std::map<std::vector<IntT>, std::vector<Message>> Queues;
  /// Reliable transport: next sequence number per directed channel key
  /// (CommId, src coord, dst coord), sender and receiver side.
  std::map<std::vector<IntT>, uint64_t> SendSeq, RecvSeq;
  /// Packets whose retry budget was exhausted (never delivered).
  std::vector<TransportFailure> Failures;
  std::vector<double> PhysClock;
  std::vector<double> PhysBusy;
  std::vector<double> SlowFactor; ///< per-phys compute slowdown (>= 1)
  /// Per-physical busy-time buckets for the recovery telemetry split.
  /// Compute/Protocol/Checkpoint rewind with a rollback (their lost
  /// share moves into the recovery total); RecoveryExtraSeconds is the
  /// global monotonic remainder (detection windows, restore costs,
  /// undone work).
  std::vector<double> BusyCompute, BusyProtocol, BusyCheckpoint;
  double RecoveryExtraSeconds = 0;
  /// Early-send NIC model (DESIGN.md §11), one slot per physical
  /// processor. NetFree is
  /// the time the NIC is next free — clock-like: it never rewinds on a
  /// rollback and is not checkpointed (replayed issues reserve fresh
  /// NIC time, exactly as replayed computes re-charge the clock).
  /// NetDeferred/NetExposed are monotonic overlap telemetry: latency
  /// moved off the CPU at issue, and backlog drained back into the
  /// clock at the end of the run.
  std::vector<double> NetFree, NetDeferred, NetExposed;
  /// Crash-stop bookkeeping that survives rollbacks: which processors
  /// have used their one crash (replay immunity), and every crash seen.
  std::vector<char> HasCrashed;
  std::vector<CrashEvent> CrashLog;
  /// The stable store: the newest coordinated checkpoint, if any.
  std::unique_ptr<Checkpoint> Stable;
  uint64_t NextCheckpointEvents = 0; ///< global-step checkpoint trigger
  /// Global step count at the last checkpoint or rollback, for the
  /// replayed-steps telemetry.
  uint64_t ReplayBaseEvents = 0;
  /// Outcome of the durable-resume scan (resumeInfo()).
  DurableResumeInfo ResumeInfo;
  std::vector<IntT> ParamEnv; ///< parameter values aligned to Spmd space
  uint64_t Events = 0;        ///< executed SPMD statements (budget guard)
  /// Canonical logical counters (see SimCounters); flushCounters copies
  /// them into the SimResult at every exit from run().
  SimCounters Ctr;
};

} // namespace dmcc

#endif // DMCC_SIM_SIMULATOR_H
