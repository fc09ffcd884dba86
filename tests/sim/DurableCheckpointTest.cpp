//===- tests/sim/DurableCheckpointTest.cpp --------------------*- C++ -*-===//
//
// The durable-checkpoint layer (DESIGN.md §13): CRC-framed stable-store
// primitives, and the kill/resume differential — a run restored from
// the newest intact on-disk checkpoint must finish bit-identical to the
// uninterrupted run, under clean, lossy and crash-recovery schedules,
// with torn or bit-flipped images detected and skipped.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "sim/Simulator.h"
#include "support/StableStore.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <sys/stat.h>
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

/// A scratch directory deleted (recursively, one level) on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/dmcc-durable-XXXXXX";
    Path = mkdtemp(Buf);
    EXPECT_FALSE(Path.empty());
  }
  ~TempDir() {
    for (const std::string &F :
         stable::listFiles(Path, "", ""))
      ::unlink((Path + "/" + F).c_str());
    ::rmdir(Path.c_str());
  }
};

std::vector<uint8_t> slurp(const std::string &Path) {
  std::vector<uint8_t> Out;
  FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Out;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  std::fclose(F);
  return Out;
}

void spit(const std::string &Path, const std::vector<uint8_t> &Data) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr) << Path;
  ASSERT_EQ(std::fwrite(Data.data(), 1, Data.size(), F), Data.size());
  std::fclose(F);
}

/// Copies the first \p Keep checkpoint files of \p From into \p To —
/// the on-disk state a SIGKILL mid-run would have left behind.
unsigned copyPrefix(const std::string &From, const std::string &To,
                    unsigned Keep) {
  std::vector<std::string> Files =
      stable::listFiles(From, "ckpt-", ".dmc");
  unsigned Copied = 0;
  for (const std::string &F : Files) {
    if (Copied == Keep)
      break;
    spit(To + "/" + F, slurp(From + "/" + F));
    ++Copied;
  }
  return Copied;
}

SimOptions opts(std::map<std::string, IntT> Params, FaultOptions Faults,
                CheckpointOptions Checkpoint) {
  SimOptions SO;
  SO.PhysGrid = {4};
  SO.ParamValues = std::move(Params);
  SO.Functional = true;
  SO.CollapseLoops = false;
  SO.Faults = Faults;
  SO.Checkpoint = Checkpoint;
  return SO;
}

/// The bit-identity contract: every observable of the two results must
/// agree exactly, doubles included (they travel as bit patterns).
void expectSameResult(const SimResult &A, const SimResult &B) {
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.MakespanSeconds, B.MakespanSeconds);
  EXPECT_EQ(A.Messages, B.Messages);
  EXPECT_EQ(A.IntraMessages, B.IntraMessages);
  EXPECT_EQ(A.Words, B.Words);
  EXPECT_EQ(A.Flops, B.Flops);
  EXPECT_EQ(A.ComputeIterations, B.ComputeIterations);
  EXPECT_EQ(A.TotalEvents, B.TotalEvents);
  EXPECT_EQ(A.PhysBusy, B.PhysBusy);
  EXPECT_EQ(A.Retransmissions, B.Retransmissions);
  EXPECT_EQ(A.DroppedPackets, B.DroppedPackets);
  EXPECT_EQ(A.DuplicatesSuppressed, B.DuplicatesSuppressed);
  EXPECT_EQ(A.AcksSent, B.AcksSent);
  EXPECT_EQ(A.CorruptedPackets, B.CorruptedPackets);
  EXPECT_EQ(A.NacksSent, B.NacksSent);
  EXPECT_EQ(A.PartitionDrops, B.PartitionDrops);
  EXPECT_EQ(A.SlowLinkMessages, B.SlowLinkMessages);
  EXPECT_EQ(A.Recovery.CheckpointsTaken, B.Recovery.CheckpointsTaken);
  EXPECT_EQ(A.Recovery.CheckpointBytes, B.Recovery.CheckpointBytes);
  EXPECT_EQ(A.Recovery.Crashes, B.Recovery.Crashes);
  EXPECT_EQ(A.Recovery.Rollbacks, B.Recovery.Rollbacks);
  EXPECT_EQ(A.Recovery.ReplayedSteps, B.Recovery.ReplayedSteps);
  EXPECT_EQ(A.Recovery.ReplayedMessages, B.Recovery.ReplayedMessages);
  EXPECT_EQ(A.Recovery.ComputeSeconds, B.Recovery.ComputeSeconds);
  EXPECT_EQ(A.Recovery.ProtocolSeconds, B.Recovery.ProtocolSeconds);
  EXPECT_EQ(A.Recovery.CheckpointSeconds, B.Recovery.CheckpointSeconds);
  EXPECT_EQ(A.Recovery.RecoverySeconds, B.Recovery.RecoverySeconds);
  EXPECT_EQ(A.Overlap.EarlySends, B.Overlap.EarlySends);
  EXPECT_EQ(A.Overlap.DeferredSeconds, B.Overlap.DeferredSeconds);
  EXPECT_EQ(A.Overlap.ExposedSeconds, B.Overlap.ExposedSeconds);
}

/// Compares every element of array 0's final layout between two
/// functional runs (both must hold every element, bit-identical).
void expectSameArray(const Program &P, Simulator &SA, Simulator &SB,
                     const std::map<std::string, IntT> &Params) {
  std::vector<IntT> Env(P.space().size(), 0);
  for (unsigned I = 0; I != P.space().size(); ++I)
    if (P.space().kind(I) == VarKind::Param)
      Env[I] = Params.at(P.space().name(I));
  std::vector<IntT> Sizes;
  for (const AffineExpr &D : P.array(0).DimSizes)
    Sizes.push_back(D.evaluate(Env));
  std::vector<IntT> Idx(Sizes.size(), 0);
  bool Done = false;
  while (!Done) {
    auto A = SA.finalValue(0, Idx);
    auto B = SB.finalValue(0, Idx);
    ASSERT_TRUE(A.has_value());
    ASSERT_TRUE(B.has_value());
    EXPECT_EQ(*A, *B);
    for (unsigned K = Idx.size(); K-- > 0;) {
      if (++Idx[K] < Sizes[K])
        break;
      Idx[K] = 0;
      if (K == 0)
        Done = true;
    }
  }
}

/// The fixture the kill/resume differentials share: one compiled LU.
struct DurableEnv {
  Program P = lu();
  CompileSpec Spec = luSpec(P);
  CompiledProgram CP = compile(P, Spec);
  std::map<std::string, IntT> Pv = {{"N", 24}};

  /// Runs the schedule durably to completion in Ref, keeps only a
  /// prefix of the images (the kill), resumes from the prefix and
  /// checks the resumed run against the uninterrupted one.
  void killResume(FaultOptions F) {
    CheckpointOptions CK;
    CK.IntervalSteps = 100;
    TempDir Ref, Cut;
    CK.DurableDir = Ref.Path;
    Simulator Full(P, CP, Spec, opts(Pv, F, CK));
    SimResult RFull = Full.run();
    ASSERT_TRUE(RFull.Ok) << RFull.Error;

    unsigned Files =
        stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
    ASSERT_GE(Files, 4u) << "schedule too short to cut";
    ASSERT_EQ(copyPrefix(Ref.Path, Cut.Path, Files / 2), Files / 2);

    CK.DurableDir = Cut.Path;
    CK.Resume = true;
    Simulator Res(P, CP, Spec, opts(Pv, F, CK));
    SimResult RRes = Res.run();
    ASSERT_TRUE(RRes.Ok) << RRes.Error;
    const DurableResumeInfo &RI = Res.resumeInfo();
    EXPECT_TRUE(RI.Attempted);
    EXPECT_TRUE(RI.Resumed);
    EXPECT_GT(RI.ResumedAtEvents, 0u);
    EXPECT_EQ(RI.CorruptSkipped, 0u);
    expectSameResult(RFull, RRes);
    expectSameArray(P, Full, Res, Pv);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// StableStore primitives
//===----------------------------------------------------------------------===//

TEST(StableStore, Crc32MatchesTheReferenceVector) {
  EXPECT_EQ(stable::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(stable::crc32("", 0), 0u);
}

TEST(StableStore, ByteIoRoundTripsEveryPrimitiveBitExact) {
  stable::ByteWriter W;
  W.u8(0xAB);
  W.u32(0xDEADBEEFu);
  W.u64(0x0123456789ABCDEFull);
  W.i64(-42);
  W.f64(0.1); // not exactly representable: must round-trip by bits
  W.f64(-0.0);
  W.str("hello");
  stable::ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 0xAB);
  EXPECT_EQ(R.u32(), 0xDEADBEEFu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_EQ(R.f64(), 0.1);
  EXPECT_TRUE(std::signbit(R.f64()));
  EXPECT_EQ(R.str(), "hello");
  EXPECT_TRUE(R.atEnd());
}

TEST(StableStore, ReaderOverrunIsStickyNotUB) {
  stable::ByteWriter W;
  W.u32(7);
  stable::ByteReader R(W.bytes());
  EXPECT_EQ(R.u32(), 7u);
  EXPECT_EQ(R.u64(), 0u); // past the end: zero, flagged
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.str(), ""); // still failed, still no UB
  EXPECT_FALSE(R.atEnd());
}

TEST(StableStore, FramesRoundTripThroughAtomicWrite) {
  TempDir D;
  std::string Path = D.Path + "/frames.bin";
  stable::ByteWriter P1, P2;
  P1.str("first");
  P2.u64(99);
  std::vector<uint8_t> Bytes = stable::encodeFrame(1, P1.bytes());
  std::vector<uint8_t> F2 = stable::encodeFrame(2, P2.bytes());
  Bytes.insert(Bytes.end(), F2.begin(), F2.end());
  std::string Err;
  ASSERT_TRUE(stable::atomicWriteFile(Path, Bytes, Err)) << Err;

  stable::ReadFramesResult RF = stable::readFrames(Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  ASSERT_EQ(RF.Frames.size(), 2u);
  EXPECT_EQ(RF.Frames[0].Type, 1u);
  EXPECT_EQ(RF.Frames[1].Type, 2u);
  EXPECT_EQ(RF.ValidBytes, Bytes.size());
  stable::ByteReader R(RF.Frames[0].Payload);
  EXPECT_EQ(R.str(), "first");
}

TEST(StableStore, TornTailIsDroppedAndTruncationPointReported) {
  TempDir D;
  std::string Path = D.Path + "/torn.bin";
  stable::ByteWriter P1, P2;
  P1.u64(1);
  P2.u64(2);
  std::vector<uint8_t> Whole = stable::encodeFrame(1, P1.bytes());
  size_t FirstLen = Whole.size();
  std::vector<uint8_t> F2 = stable::encodeFrame(1, P2.bytes());
  Whole.insert(Whole.end(), F2.begin(), F2.end());
  // A crash mid-append: the second frame loses its last 5 bytes.
  Whole.resize(Whole.size() - 5);
  spit(Path, Whole);

  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.Error.empty()) << RF.Error;
  EXPECT_TRUE(RF.TornTail);
  ASSERT_EQ(RF.Frames.size(), 1u);
  EXPECT_EQ(RF.ValidBytes, FirstLen);
}

TEST(StableStore, BitFlipFailsTheCrcAndKillsTheFrame) {
  TempDir D;
  std::string Path = D.Path + "/flip.bin";
  stable::ByteWriter P1;
  P1.str("payload worth protecting");
  std::vector<uint8_t> Bytes = stable::encodeFrame(7, P1.bytes());
  Bytes.back() ^= 0x40; // damage one payload bit
  spit(Path, Bytes);

  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.TornTail);
  EXPECT_TRUE(RF.Frames.empty());
  EXPECT_EQ(RF.ValidBytes, 0u);
}

TEST(StableStore, JournalAppendsSurviveAndTornTailIsCutOnReopen) {
  TempDir D;
  std::string Path = D.Path + "/journal.bin";
  std::string Err;
  stable::JournalWriter J;
  ASSERT_TRUE(J.open(Path, 0, Err)) << Err;
  stable::ByteWriter P1, P2;
  P1.u64(11);
  P2.u64(22);
  ASSERT_TRUE(J.append(1, P1.bytes(), Err)) << Err;
  ASSERT_TRUE(J.append(1, P2.bytes(), Err)) << Err;
  J.close();

  // Tear the tail like a SIGKILL mid-append would.
  std::vector<uint8_t> Bytes = slurp(Path);
  Bytes.resize(Bytes.size() - 3);
  spit(Path, Bytes);
  stable::ReadFramesResult RF = stable::readFrames(Path);
  EXPECT_TRUE(RF.TornTail);
  ASSERT_EQ(RF.Frames.size(), 1u);

  // Reopen at the valid prefix and append again: fully intact, the
  // re-appended record replacing the torn one.
  ASSERT_TRUE(J.open(Path, RF.ValidBytes, Err)) << Err;
  ASSERT_TRUE(J.append(1, P2.bytes(), Err)) << Err;
  J.close();
  RF = stable::readFrames(Path);
  ASSERT_TRUE(RF.intact()) << RF.Error;
  ASSERT_EQ(RF.Frames.size(), 2u);
  stable::ByteReader R(RF.Frames[1].Payload);
  EXPECT_EQ(R.u64(), 22u);
}

TEST(StableStore, MissingFileReadsAsErrorNotCrash) {
  stable::ReadFramesResult RF =
      stable::readFrames("/tmp/dmcc-definitely-not-there.bin");
  EXPECT_FALSE(RF.Error.empty());
  EXPECT_TRUE(RF.Frames.empty());
}

//===----------------------------------------------------------------------===//
// Kill/resume differentials
//===----------------------------------------------------------------------===//

TEST(DurableCheckpoint, DurableModeDoesNotPerturbTheSimulation) {
  // Persisting images is host-side I/O: the simulated telemetry must be
  // byte-for-byte what the in-memory checkpoint run reports.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  Simulator InMem(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult A = InMem.run();
  ASSERT_TRUE(A.Ok) << A.Error;

  TempDir D;
  CK.DurableDir = D.Path;
  Simulator Dur(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult B = Dur.run();
  ASSERT_TRUE(B.Ok) << B.Error;
  expectSameResult(A, B);
  EXPECT_EQ(stable::listFiles(D.Path, "ckpt-", ".dmc").size(),
            A.Recovery.CheckpointsTaken);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalClean) {
  DurableEnv E;
  E.killResume({});
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalLossy) {
  DurableEnv E;
  FaultOptions F;
  F.Seed = 42;
  F.DropRate = 0.05;
  F.DupRate = 0.02;
  E.killResume(F);
}

TEST(DurableCheckpoint, KillResumeIsBitIdenticalCrashed) {
  DurableEnv E;
  FaultOptions F;
  F.CrashRate = 1e-3;
  F.CrashSeed = 7;
  E.killResume(F);
  // Crashes on a lossy network: rollback replay meets in-flight copies.
  F.Seed = 42;
  F.DropRate = 0.05;
  E.killResume(F);
}

TEST(DurableCheckpoint, TornNewestImageIsSkippedOnResume) {
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir Ref, Cut;
  CK.DurableDir = Ref.Path;
  Simulator Full(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFull = Full.run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  unsigned Files = stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
  ASSERT_GE(Files, 4u);
  copyPrefix(Ref.Path, Cut.Path, Files / 2);

  // The newest surviving image is torn mid-write (truncated) — the
  // resume must fall back to its predecessor, still bit-identical.
  std::vector<std::string> Kept =
      stable::listFiles(Cut.Path, "ckpt-", ".dmc");
  std::string Newest = Cut.Path + "/" + Kept.back();
  std::vector<uint8_t> Bytes = slurp(Newest);
  Bytes.resize(Bytes.size() / 2);
  spit(Newest, Bytes);

  CK.DurableDir = Cut.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().CorruptSkipped, 1u);
  expectSameResult(RFull, RRes);
}

TEST(DurableCheckpoint, BitFlippedImageIsSkippedOnResume) {
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir Ref, Cut;
  CK.DurableDir = Ref.Path;
  Simulator Full(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFull = Full.run();
  ASSERT_TRUE(RFull.Ok) << RFull.Error;
  unsigned Files = stable::listFiles(Ref.Path, "ckpt-", ".dmc").size();
  ASSERT_GE(Files, 4u);
  copyPrefix(Ref.Path, Cut.Path, Files / 2);

  std::vector<std::string> Kept =
      stable::listFiles(Cut.Path, "ckpt-", ".dmc");
  std::string Newest = Cut.Path + "/" + Kept.back();
  std::vector<uint8_t> Bytes = slurp(Newest);
  Bytes[Bytes.size() / 2] ^= 0x01; // silent media corruption
  spit(Newest, Bytes);

  CK.DurableDir = Cut.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().CorruptSkipped, 1u);
  expectSameResult(RFull, RRes);
}

TEST(DurableCheckpoint, EmptyDirectoryResumesAsAFreshRun) {
  // A kill/restart loop passes --resume unconditionally; before the
  // first image lands that must behave exactly like a fresh start.
  DurableEnv E;
  CheckpointOptions CK;
  CK.IntervalSteps = 100;
  TempDir A, B;
  CK.DurableDir = A.Path;
  Simulator Fresh(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RFresh = Fresh.run();
  ASSERT_TRUE(RFresh.Ok) << RFresh.Error;

  CK.DurableDir = B.Path;
  CK.Resume = true;
  Simulator Res(E.P, E.CP, E.Spec, opts(E.Pv, {}, CK));
  SimResult RRes = Res.run();
  ASSERT_TRUE(RRes.Ok) << RRes.Error;
  EXPECT_TRUE(Res.resumeInfo().Attempted);
  EXPECT_FALSE(Res.resumeInfo().Resumed);
  EXPECT_EQ(Res.resumeInfo().FilesSeen, 0u);
  expectSameResult(RFresh, RRes);
}
