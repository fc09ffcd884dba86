//===- sim/FaultModel.h - Deterministic network fault injection -*- C++ -*-===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven fault injection for the simulated message-passing machine.
/// Every decision (drop this data packet? drop its ack? duplicate it? how
/// much extra wire delay?) is a pure function of the seed and the packet's
/// identity (channel, sequence number, attempt), never of the scheduler's
/// interleaving — so a given seed produces exactly one fault schedule and
/// simulation results are bit-for-bit reproducible and identical across
/// scheduler engines. After construction every method is const over
/// immutable members.
///
/// The fault model drives the reliable-transport layer in the simulator:
/// with any fault knob nonzero, sends carry sequence numbers, receivers
/// acknowledge and suppress duplicates, and senders retransmit with
/// exponential backoff up to a bounded retry budget. With all knobs at
/// their defaults the transport is bypassed entirely (zero overhead).
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_SIM_FAULTMODEL_H
#define DMCC_SIM_FAULTMODEL_H

#include "support/IntOps.h"

#include <cstdint>
#include <vector>

namespace dmcc {

/// Network/processor fault-injection knobs plus the reliable-transport
/// parameters that tolerate them. All rates are probabilities in [0, 1].
struct FaultOptions {
  uint64_t Seed = 0;          ///< fault-schedule seed
  double DropRate = 0;        ///< P(one data or ack transmission is lost)
  double DupRate = 0;         ///< P(a delivered data packet is duplicated)
  double MaxDelaySeconds = 0; ///< extra delivery delay, uniform in [0, max]
  /// Compute slowdown per physical processor, drawn uniformly in
  /// [1, MaxSlowdown]; 1 disables the fault.
  double MaxSlowdown = 1.0;

  /// Crash-stop schedule: P(a virtual processor dies immediately before
  /// executing one of its logical steps). A dead processor executes
  /// nothing further and its volatile state is lost; recovery needs the
  /// simulator's checkpoint/restart layer (SimOptions::Checkpoint).
  double CrashRate = 0;
  /// Seed of the crash-stop schedule, independent of the network-fault
  /// seed so crash placement can be swept with the packet faults fixed.
  uint64_t CrashSeed = 0;

  /// P(a delivered data copy arrives with a corrupted payload). Every
  /// packet is checksummed at the receiver; a failed checksum is
  /// discarded and a NACK returns to the sender, which retransmits on
  /// its next attempt instead of waiting out the full ack timeout.
  double CorruptRate = 0;
  /// P(a packet's first transmissions fall inside a transient network
  /// partition). While partitioned, the link blackholes both data and
  /// acks; the partition heals after a seeded number of attempts in
  /// [1, PartitionMaxOutage], so the sender's backoff eventually spans
  /// it — unless the outage exceeds the retry budget, which surfaces as
  /// a structured retry-exhaustion diagnostic.
  double PartitionRate = 0;
  /// Longest partition outage, in blackholed transmission attempts.
  unsigned PartitionMaxOutage = 3;
  /// P(a directed physical link is a straggler). Affected links carry a
  /// per-link latency multiplier drawn uniformly in
  /// [1, SlowLinkMaxFactor]; values and counters are untouched — only
  /// delivery clocks stretch.
  double SlowLinkRate = 0;
  double SlowLinkMaxFactor = 4.0;

  /// Reliable-transport tuning: time the sender waits for an ack before
  /// the first retransmission; doubles (BackoffFactor) per retry.
  double RetryTimeoutSeconds = 500e-6;
  double BackoffFactor = 2.0;
  /// Retransmissions after the initial attempt before giving up on a
  /// packet and reporting a transport failure.
  unsigned MaxRetries = 8;
  /// Engage the reliable transport (seq numbers, acks) even with all
  /// fault rates at zero, to measure the protocol's own overhead.
  bool AlwaysReliable = false;

  /// True if slow-link injection can actually stretch a delivery.
  bool slowLinks() const {
    return SlowLinkRate > 0 && SlowLinkMaxFactor > 1.0;
  }
  /// True if any fault can actually occur.
  bool faulty() const {
    return DropRate > 0 || DupRate > 0 || MaxDelaySeconds > 0 ||
           MaxSlowdown > 1.0 || CrashRate > 0 || CorruptRate > 0 ||
           PartitionRate > 0 || slowLinks();
  }
  /// True if the simulator must route messages through the reliable
  /// transport instead of the ideal zero-overhead network. A pure
  /// compute slowdown does not need acknowledged delivery, and neither
  /// does a slow link (delivery is late, not lost); crash-stop recovery
  /// does — the per-channel sequence numbers define the rollback line
  /// and absorb messages resent during replay — as do corruption (the
  /// NACK/retransmit cycle IS the transport) and partitions (healing is
  /// observed through retries).
  bool transportActive() const {
    return DropRate > 0 || DupRate > 0 || MaxDelaySeconds > 0 ||
           CrashRate > 0 || CorruptRate > 0 || PartitionRate > 0 ||
           AlwaysReliable;
  }
};

/// The deterministic fault schedule. Stateless apart from the options:
/// every query hashes its arguments with the seed, so results do not
/// depend on query order.
class FaultModel {
public:
  explicit FaultModel(const FaultOptions &O) : Opt(O) {}

  const FaultOptions &options() const { return Opt; }
  bool active() const { return Opt.transportActive(); }

  /// Stable identity of a directed channel: communication tag plus the
  /// sender and receiver virtual-grid coordinates.
  static uint64_t channelId(unsigned CommId, const std::vector<IntT> &Src,
                            const std::vector<IntT> &Dst);

  /// Is the data transmission of attempt \p Attempt of packet \p Seq lost?
  bool dropData(uint64_t Chan, uint64_t Seq, unsigned Attempt) const;
  /// Is the acknowledgement for that attempt lost on the way back?
  bool dropAck(uint64_t Chan, uint64_t Seq, unsigned Attempt) const;
  /// Does the network deliver an extra copy of that attempt?
  bool duplicate(uint64_t Chan, uint64_t Seq, unsigned Attempt) const;
  /// Extra wire delay for copy \p Copy of that attempt, in
  /// [0, MaxDelaySeconds]. Independent per copy, so duplicates and
  /// retransmissions can arrive out of order.
  double deliveryDelay(uint64_t Chan, uint64_t Seq, unsigned Attempt,
                       unsigned Copy) const;
  /// Compute-slowdown factor of physical processor \p Phys, in
  /// [1, MaxSlowdown].
  double slowdown(unsigned Phys) const;
  /// Sender-side wait before retransmission attempt \p Attempt (>= 1):
  /// RetryTimeoutSeconds * BackoffFactor^(Attempt - 1).
  double backoffDelay(unsigned Attempt) const;

  /// Does the data payload of attempt \p Attempt of packet \p Seq arrive
  /// corrupted (checksum failure at the receiver, triggering a NACK)?
  bool corruptData(uint64_t Chan, uint64_t Seq, unsigned Attempt) const;
  /// Transient-partition outage for packet \p Seq: the number of initial
  /// transmission attempts the link blackholes before the partition
  /// heals (0 = the packet is never caught in a partition). Pure in
  /// (Seed, Chan, Seq), so healing is bit-for-bit reproducible.
  unsigned partitionOutage(uint64_t Chan, uint64_t Seq) const;
  /// Is attempt \p Attempt of packet \p Seq swallowed by a transient
  /// partition (both the data and any ack are lost)?
  bool partitioned(uint64_t Chan, uint64_t Seq, unsigned Attempt) const {
    return Attempt < partitionOutage(Chan, Seq);
  }
  /// Straggler-link latency multiplier of the directed physical link
  /// \p SrcPhys -> \p DstPhys, in [1, SlowLinkMaxFactor]. Exactly 1 for
  /// self-links and for links the seeded schedule leaves healthy.
  double linkFactor(unsigned SrcPhys, unsigned DstPhys) const;

  /// Does virtual processor \p Vp die immediately before executing its
  /// logical step \p Step? Pure in (CrashSeed, Vp, Step), so a crash
  /// schedule is bit-for-bit reproducible and independent of scheduler
  /// interleaving. The simulator honors only the first hit per
  /// processor: a restarted incarnation is assumed reliable, bounding
  /// the number of rollbacks by the processor count.
  bool crashAt(unsigned Vp, uint64_t Step) const;

private:
  /// Uniform value in [0, 1) from \p SeedV and a 4-part identity.
  double unitWith(uint64_t SeedV, uint64_t A, uint64_t B, uint64_t C,
                  uint64_t D) const;
  /// Uniform value in [0, 1) from the fault seed and a 4-part identity.
  double unit(uint64_t A, uint64_t B, uint64_t C, uint64_t D) const;

  FaultOptions Opt;
};

} // namespace dmcc

#endif // DMCC_SIM_FAULTMODEL_H
