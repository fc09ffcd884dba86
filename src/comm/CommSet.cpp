//===- comm/CommSet.cpp ---------------------------------------*- C++ -*-===//

#include "comm/CommSet.h"

#include "math/LexOpt.h"

#include <algorithm>

#include <map>
#include <set>

using namespace dmcc;

namespace {

/// Node budget for the emptiness probes that prune communication pieces.
unsigned feasBudget() { return projectionOptions().FeasibilityBudget; }

/// Builds the base system of a communication set for one LWT context and
/// returns it with the variable-group indices filled in.
CommSet buildBase(const Program &P, const LastWriteTree &T,
                  const LWTContext &Ctx, const Decomposition &ReaderComp,
                  const Decomposition *WriterComp,
                  const Decomposition *InitialData, unsigned GridDims) {
  const Statement &Reader = P.statement(T.ReadStmtId);
  const Access &RA = Reader.Reads[T.ReadIdx];
  unsigned ElemDims = RA.Indices.size();

  CommSet CS;
  CS.ArrayId = RA.ArrayId;
  CS.FromInitialData = !Ctx.HasWriter;
  CS.WriteStmtId = Ctx.HasWriter ? Ctx.WriteStmtId : 0;
  CS.ReadStmtId = T.ReadStmtId;
  CS.ReadIdx = T.ReadIdx;
  CS.Level = Ctx.Level;

  // Canonical variable order: ps, s, pr, r, el, params (aux appended as
  // contexts are mapped in).
  Space Sp;
  for (unsigned D = 0; D != GridDims; ++D)
    CS.PsVars.push_back(Sp.add("ps" + std::to_string(D), VarKind::Proc));
  std::vector<std::string> WriterLoopNames;
  if (Ctx.HasWriter) {
    const Statement &W = P.statement(Ctx.WriteStmtId);
    for (unsigned L : W.Loops) {
      std::string N = "s." + P.space().name(P.loop(L).VarIndex);
      WriterLoopNames.push_back(N);
      CS.SVars.push_back(Sp.add(N, VarKind::Loop));
    }
  }
  for (unsigned D = 0; D != GridDims; ++D)
    CS.PrVars.push_back(Sp.add("pr" + std::to_string(D), VarKind::Proc));
  std::vector<std::string> ReaderLoopNames;
  for (unsigned L : Reader.Loops) {
    std::string N = "r." + P.space().name(P.loop(L).VarIndex);
    ReaderLoopNames.push_back(N);
    CS.RVars.push_back(Sp.add(N, VarKind::Loop));
  }
  for (unsigned K = 0; K != ElemDims; ++K)
    CS.ElVars.push_back(Sp.add("el" + std::to_string(K), VarKind::Data));
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Sp.add(P.space().name(I), VarKind::Param);

  System S(std::move(Sp));

  // The LWT context domain: anchor loop vars become the receive copies;
  // aux witnesses get fresh names.
  const Space &ASp = Ctx.Domain.space();
  std::map<std::string, std::string> NameMap;
  for (unsigned I = 0, E = ASp.size(); I != E; ++I) {
    const std::string &N = ASp.name(I);
    if (ASp.kind(I) == VarKind::Aux) {
      std::string Fresh = S.space().freshName(N);
      S.addVar(Fresh, VarKind::Aux);
      NameMap[N] = Fresh;
    } else if (ASp.kind(I) == VarKind::Param) {
      NameMap[N] = N;
    } else {
      NameMap[N] = "r." + N;
    }
  }
  auto MapName = [&NameMap](const std::string &N) { return NameMap.at(N); };
  for (const Constraint &C : Ctx.Domain.constraints())
    S.addConstraint(
        Constraint(mapExpr(C.Expr, ASp, S.space(), MapName), C.Rel));

  // Writer instance: s == the context's write-instance map.
  if (Ctx.HasWriter) {
    assert(Ctx.WriteInstance.size() == WriterLoopNames.size() &&
           "write instance arity mismatch");
    for (unsigned K = 0, E = WriterLoopNames.size(); K != E; ++K) {
      AffineExpr V = mapExpr(Ctx.WriteInstance[K], ASp, S.space(), MapName);
      unsigned SV = static_cast<unsigned>(
          S.space().indexOf(WriterLoopNames[K]));
      S.addEq(S.varExpr(SV), V);
    }
  }

  // Element identity: el == fr(r).
  auto MapRead = [&P](const std::string &N) -> std::string {
    int I = P.space().indexOf(N);
    if (I >= 0 && P.space().kind(static_cast<unsigned>(I)) == VarKind::Loop)
      return "r." + N;
    return N;
  };
  for (unsigned K = 0; K != ElemDims; ++K) {
    AffineExpr FR = mapExpr(RA.Indices[K], P.space(), S.space(), MapRead);
    S.addEq(S.varExpr(CS.ElVars[K]), FR);
  }

  // Computation decomposition of the reader: r -> pr.
  {
    const Space &RSp = ReaderComp.sourceSpace();
    std::vector<AffineExpr> Vals;
    for (unsigned K = 0, E = RSp.size(); K != E; ++K) {
      if (RSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      int J = S.space().indexOf("r." + RSp.name(K));
      assert(J >= 0 && "reader decomposition variable missing");
      Vals.push_back(S.varExpr(static_cast<unsigned>(J)));
    }
    ReaderComp.addConstraints(S, Vals, CS.PrVars);
  }

  if (Ctx.HasWriter) {
    assert(WriterComp && "writer context needs a writer decomposition");
    const Space &WSp = WriterComp->sourceSpace();
    std::vector<AffineExpr> Vals;
    for (unsigned K = 0, E = WSp.size(); K != E; ++K) {
      if (WSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      int J = S.space().indexOf("s." + WSp.name(K));
      assert(J >= 0 && "writer decomposition variable missing");
      Vals.push_back(S.varExpr(static_cast<unsigned>(J)));
    }
    WriterComp->addConstraints(S, Vals, CS.PsVars);
  } else {
    assert(InitialData && "bottom context needs an initial data layout");
    const Space &DSp = InitialData->sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned DataPos = 0;
    for (unsigned K = 0, E = DSp.size(); K != E; ++K) {
      if (DSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      assert(DataPos < CS.ElVars.size() && "array arity mismatch");
      Vals.push_back(S.varExpr(CS.ElVars[DataPos++]));
    }
    InitialData->addConstraints(S, Vals, CS.PsVars);
    // Replicated grid dimensions: every coordinate owns a copy; pick the
    // receiver's own coordinate as the canonical sender (it is nearest,
    // and the ps != pr expansion then removes the transfer entirely).
    for (unsigned D = 0; D != GridDims; ++D)
      if (InitialData->dim(D).Replicated)
        S.addEq(S.varExpr(CS.PsVars[D]), S.varExpr(CS.PrVars[D]));
  }

  CS.Sys = std::move(S);
  return CS;
}

} // namespace

std::vector<CommSet> dmcc::buildCommSets(
    const Program &P, const LastWriteTree &T, const LWTContext &Ctx,
    const Decomposition &ReaderComp, const Decomposition *WriterComp,
    const Decomposition *InitialData, unsigned GridDims,
    bool DropAlreadyOwned) {
  PhaseTimer Timer("comm.commsets");
  CommSet Base = buildBase(P, T, Ctx, ReaderComp, WriterComp, InitialData,
                           GridDims);

  // Expand ps != pr into disjoint disjuncts: the first differing grid
  // dimension is either strictly below or strictly above.
  std::vector<CommSet> Out;
  for (unsigned D = 0; D != GridDims; ++D) {
    for (int Side = 0; Side != 2; ++Side) {
      CommSet CS = Base;
      System &S = CS.Sys;
      for (unsigned E = 0; E != D; ++E)
        S.addEq(S.varExpr(CS.PsVars[E]), S.varExpr(CS.PrVars[E]));
      AffineExpr Diff =
          S.varExpr(CS.PrVars[D]) - S.varExpr(CS.PsVars[D]);
      if (Side == 0)
        S.addGE(Diff.plusConst(-1)); // ps < pr
      else
        S.addGE(Diff.negated().plusConst(-1)); // ps > pr
      if (!S.normalize() ||
          S.checkIntegerFeasible(feasBudget()) == Feasibility::Empty)
        continue;
      Out.push_back(std::move(CS));
    }
  }

  // Section 6.1.3: if the receiver already owns a copy of the element
  // under the initial layout, the transfer is redundant.
  if (Ctx.HasWriter || !DropAlreadyOwned || !InitialData)
    return Out;
  std::vector<CommSet> Thinned;
  for (CommSet &CS : Out) {
    // Build the "receiver owns el" ownership system and subtract it.
    System Own(CS.Sys.space());
    const Space &DSp = InitialData->sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned DataPos = 0;
    for (unsigned K = 0, E = DSp.size(); K != E; ++K) {
      if (DSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(Own.numVars()));
        continue;
      }
      Vals.push_back(Own.varExpr(CS.ElVars[DataPos++]));
    }
    InitialData->addConstraints(Own, Vals, CS.PrVars);
    // CS.Sys \ Own: negate each ownership constraint in turn.
    System Prefix = CS.Sys;
    for (const Constraint &C : Own.constraints()) {
      assert(!C.isEquality() && "ownership constraints are inequalities");
      CommSet Piece = CS;
      Piece.Sys = Prefix;
      Piece.Sys.addGE(C.Expr.negated().plusConst(-1));
      if (Piece.Sys.normalize() &&
          Piece.Sys.checkIntegerFeasible(feasBudget()) != Feasibility::Empty)
        Thinned.push_back(std::move(Piece));
      Prefix.addGE(C.Expr);
    }
    if (Own.constraints().empty())
      Thinned.push_back(std::move(CS));
  }
  return Thinned;
}

std::vector<CommSet> dmcc::buildFinalizationSets(
    const Program &P, const LastWriteTree &ArrayT, const LWTContext &Ctx,
    const Decomposition *WriterComp, const Decomposition *InitialData,
    const Decomposition &FinalData, unsigned GridDims) {
  PhaseTimer Timer("comm.finalize");
  CommSet Base;
  Base.FromInitialData = !Ctx.HasWriter;
  Base.WriteStmtId = Ctx.HasWriter ? Ctx.WriteStmtId : 0;
  Base.ReadStmtId = 0;
  Base.Level = BottomLevel;

  Space Sp;
  for (unsigned D = 0; D != GridDims; ++D)
    Base.PsVars.push_back(Sp.add("ps" + std::to_string(D), VarKind::Proc));
  std::vector<std::string> WriterLoopNames;
  if (Ctx.HasWriter) {
    const Statement &W = P.statement(Ctx.WriteStmtId);
    for (unsigned L : W.Loops) {
      std::string N = "s." + P.space().name(P.loop(L).VarIndex);
      WriterLoopNames.push_back(N);
      Base.SVars.push_back(Sp.add(N, VarKind::Loop));
    }
  }
  for (unsigned D = 0; D != GridDims; ++D)
    Base.PrVars.push_back(Sp.add("pr" + std::to_string(D), VarKind::Proc));
  unsigned ElemDims = ArrayT.AnchorSpace.indicesOfKind(VarKind::Data).size();
  for (unsigned K = 0; K != ElemDims; ++K)
    Base.ElVars.push_back(Sp.add("el" + std::to_string(K), VarKind::Data));
  for (unsigned I = 0, E = P.space().size(); I != E; ++I)
    if (P.space().kind(I) == VarKind::Param)
      Sp.add(P.space().name(I), VarKind::Param);

  System S(std::move(Sp));
  // The context domain, with the array anchor variables a<k> -> el<k>.
  const Space &ASp = Ctx.Domain.space();
  std::map<std::string, std::string> NameMap;
  for (unsigned I = 0, E = ASp.size(); I != E; ++I) {
    const std::string &N = ASp.name(I);
    if (ASp.kind(I) == VarKind::Aux) {
      std::string Fresh = S.space().freshName(N);
      S.addVar(Fresh, VarKind::Aux);
      NameMap[N] = Fresh;
    } else if (ASp.kind(I) == VarKind::Data) {
      NameMap[N] = "el" + N.substr(1); // a<k> -> el<k>
    } else {
      NameMap[N] = N;
    }
  }
  auto MapName = [&NameMap](const std::string &N) { return NameMap.at(N); };
  for (const Constraint &C : Ctx.Domain.constraints())
    S.addConstraint(
        Constraint(mapExpr(C.Expr, ASp, S.space(), MapName), C.Rel));

  if (Ctx.HasWriter) {
    assert(WriterComp && "writer context needs a writer decomposition");
    for (unsigned K = 0, E = WriterLoopNames.size(); K != E; ++K) {
      AffineExpr V = mapExpr(Ctx.WriteInstance[K], ASp, S.space(), MapName);
      unsigned SV =
          static_cast<unsigned>(S.space().indexOf(WriterLoopNames[K]));
      S.addEq(S.varExpr(SV), V);
    }
    const Space &WSp = WriterComp->sourceSpace();
    std::vector<AffineExpr> Vals;
    for (unsigned K = 0, E = WSp.size(); K != E; ++K) {
      if (WSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      int J = S.space().indexOf("s." + WSp.name(K));
      assert(J >= 0 && "writer decomposition variable missing");
      Vals.push_back(S.varExpr(static_cast<unsigned>(J)));
    }
    WriterComp->addConstraints(S, Vals, Base.PsVars);
  } else {
    assert(InitialData && "bottom context needs the initial layout");
    const Space &DSp = InitialData->sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned DataPos = 0;
    for (unsigned K = 0, E = DSp.size(); K != E; ++K) {
      if (DSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      Vals.push_back(S.varExpr(Base.ElVars[DataPos++]));
    }
    InitialData->addConstraints(S, Vals, Base.PsVars);
    for (unsigned D = 0; D != GridDims; ++D)
      if (InitialData->dim(D).Replicated)
        S.addEq(S.varExpr(Base.PsVars[D]), S.varExpr(Base.PrVars[D]));
  }

  // Final owners of the element.
  {
    const Space &FSp = FinalData.sourceSpace();
    std::vector<AffineExpr> Vals;
    unsigned DataPos = 0;
    for (unsigned K = 0, E = FSp.size(); K != E; ++K) {
      if (FSp.kind(K) == VarKind::Param) {
        Vals.push_back(AffineExpr(S.numVars()));
        continue;
      }
      Vals.push_back(S.varExpr(Base.ElVars[DataPos++]));
    }
    for (unsigned D = 0; D != GridDims; ++D)
      assert(!FinalData.dim(D).Replicated &&
             "replicated final layouts are not supported");
    FinalData.addConstraints(S, Vals, Base.PrVars);
  }
  Base.Sys = std::move(S);

  std::vector<CommSet> Out;
  for (unsigned D = 0; D != GridDims; ++D) {
    for (int Side = 0; Side != 2; ++Side) {
      CommSet CS = Base;
      System &Sys = CS.Sys;
      for (unsigned E = 0; E != D; ++E)
        Sys.addEq(Sys.varExpr(CS.PsVars[E]), Sys.varExpr(CS.PrVars[E]));
      AffineExpr Diff =
          Sys.varExpr(CS.PrVars[D]) - Sys.varExpr(CS.PsVars[D]);
      if (Side == 0)
        Sys.addGE(Diff.plusConst(-1));
      else
        Sys.addGE(Diff.negated().plusConst(-1));
      if (!Sys.normalize() ||
          Sys.checkIntegerFeasible(feasBudget()) == Feasibility::Empty)
        continue;
      Out.push_back(std::move(CS));
    }
  }
  return Out;
}

std::vector<CommSet> dmcc::eliminateSelfReuse(const CommSet &CS) {
  if (CS.RVars.empty())
    return {CS};
  PhaseTimer Timer("comm.self_reuse");
  LexResult LR = lexMin(CS.Sys, CS.RVars);
  std::vector<CommSet> Out;
  for (const LexPiece &Piece : LR.Pieces) {
    CommSet NC = CS;
    // The piece context lives over the space without the r variables;
    // re-introduce them pinned to the lexmin values.
    System S = Piece.Context;
    std::vector<unsigned> NewR;
    for (unsigned K = 0, E = CS.RVars.size(); K != E; ++K) {
      const std::string &Name = CS.Sys.space().name(CS.RVars[K]);
      unsigned V = S.addVar(Name, VarKind::Loop);
      NewR.push_back(V);
    }
    for (unsigned K = 0, E = CS.RVars.size(); K != E; ++K) {
      AffineExpr Val = Piece.Values[K];
      for (unsigned A = 0; A != NewR.size(); ++A) {
        (void)A;
        Val.appendVar();
      }
      S.addEq(S.varExpr(NewR[K]), Val);
    }
    // Recompute cached indices (positions may have shifted).
    auto Reindex = [&S, &CS](const std::vector<unsigned> &Old) {
      std::vector<unsigned> New;
      for (unsigned V : Old) {
        int J = S.space().indexOf(CS.Sys.space().name(V));
        assert(J >= 0 && "variable lost during self-reuse elimination");
        New.push_back(static_cast<unsigned>(J));
      }
      return New;
    };
    NC.PsVars = Reindex(CS.PsVars);
    NC.SVars = Reindex(CS.SVars);
    NC.PrVars = Reindex(CS.PrVars);
    NC.RVars = Reindex(CS.RVars);
    NC.ElVars = Reindex(CS.ElVars);
    NC.Sys = std::move(S);
    if (NC.Sys.normalize() &&
        NC.Sys.checkIntegerFeasible(feasBudget()) != Feasibility::Empty)
      Out.push_back(std::move(NC));
  }
  return Out;
}

void dmcc::eliminateGroupReuse(std::vector<CommSet> &Sets) {
  PhaseTimer Timer("comm.group_reuse");
  // For each "authoritative" set A (lowest read slot first), subtract its
  // delivered values from the sets of later read slots of the same
  // statement. The delivery-batch prefix (the first Level-1 reader
  // loops) is kept in the projection so a value only counts as already
  // delivered within the same batch.
  std::stable_sort(Sets.begin(), Sets.end(),
                   [](const CommSet &A, const CommSet &B) {
                     return A.ReadIdx < B.ReadIdx;
                   });
  for (unsigned I = 0; I < Sets.size(); ++I) {
    const CommSet &A = Sets[I];
    if (A.Level == BottomLevel && !A.FromInitialData)
      continue;
    // Project A onto (ps, s, pr, el, r-prefix).
    unsigned Prefix = A.Level > 0 ? A.Level - 1 : 0;
    bool Exact = true;
    System Proj = A.Sys;
    for (unsigned K = Prefix; K < A.RVars.size(); ++K)
      if (Proj.involves(A.RVars[K]))
        Proj = Proj.fmEliminated(A.RVars[K], &Exact);
    Proj = eliminateAuxVars(Proj, &Exact);
    if (!Exact)
      continue;
    Proj.normalize();
    Proj.removeRedundant();

    std::vector<CommSet> Next(Sets.begin(), Sets.begin() + I + 1);
    for (unsigned J = I + 1; J < Sets.size(); ++J) {
      CommSet &B = Sets[J];
      bool SameGroup =
          B.ReadStmtId == A.ReadStmtId && B.ReadIdx != A.ReadIdx &&
          B.ArrayId == A.ArrayId &&
          B.FromInitialData == A.FromInitialData &&
          (B.FromInitialData || B.WriteStmtId == A.WriteStmtId) &&
          B.Level == A.Level;
      if (!SameGroup) {
        Next.push_back(std::move(B));
        continue;
      }
      // B \ Proj: negate each projected constraint in turn. Variables
      // match by name (canonical naming across sets of one statement).
      System PrefixSys = B.Sys;
      bool Mapped = true;
      std::vector<AffineExpr> Mappable;
      for (const Constraint &C : Proj.constraints()) {
        // All of Proj's variables must exist in B's space.
        bool Ok = true;
        for (unsigned V = 0; V != Proj.space().size(); ++V)
          if (C.Expr.involves(V) &&
              !B.Sys.space().contains(Proj.space().name(V)))
            Ok = false;
        if (!Ok) {
          Mapped = false;
          break;
        }
      }
      if (!Mapped) {
        Next.push_back(std::move(B));
        continue;
      }
      for (const Constraint &C : Proj.constraints()) {
        AffineExpr E = mapExpr(C.Expr, Proj.space(), PrefixSys.space());
        if (C.isEquality()) {
          CommSet PieceLt = B;
          PieceLt.Sys = PrefixSys;
          PieceLt.Sys.addGE(E.negated().plusConst(-1));
          if (PieceLt.Sys.normalize() &&
              PieceLt.Sys.checkIntegerFeasible(feasBudget()) !=
                  Feasibility::Empty)
            Next.push_back(std::move(PieceLt));
          CommSet PieceGt = B;
          PieceGt.Sys = PrefixSys;
          PieceGt.Sys.addGE(E.plusConst(-1));
          if (PieceGt.Sys.normalize() &&
              PieceGt.Sys.checkIntegerFeasible(feasBudget()) !=
                  Feasibility::Empty)
            Next.push_back(std::move(PieceGt));
          PrefixSys.addEQ(std::move(E));
        } else {
          CommSet Piece = B;
          Piece.Sys = PrefixSys;
          Piece.Sys.addGE(E.negated().plusConst(-1));
          if (Piece.Sys.normalize() &&
              Piece.Sys.checkIntegerFeasible(feasBudget()) !=
                  Feasibility::Empty)
            Next.push_back(std::move(Piece));
          PrefixSys.addGE(std::move(E));
        }
      }
    }
    Sets = std::move(Next);
  }
}

void dmcc::coalesceCommSets(std::vector<CommSet> &Sets) {
  PhaseTimer Timer("comm.coalesce");
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 0; I < Sets.size() && !Changed; ++I) {
      for (unsigned J = I + 1; J < Sets.size(); ++J) {
        CommSet &A = Sets[I];
        CommSet &B = Sets[J];
        if (A.ArrayId != B.ArrayId ||
            A.FromInitialData != B.FromInitialData ||
            A.WriteStmtId != B.WriteStmtId ||
            A.ReadStmtId != B.ReadStmtId || A.ReadIdx != B.ReadIdx ||
            A.Level != B.Level || A.PsVars != B.PsVars ||
            A.SVars != B.SVars || A.PrVars != B.PrVars ||
            A.RVars != B.RVars || A.ElVars != B.ElVars)
          continue;
        auto U = coalesceSystems(A.Sys, B.Sys);
        if (!U)
          continue;
        A.Sys = std::move(*U);
        Sets.erase(Sets.begin() + J);
        Changed = true;
        break;
      }
    }
  }
}

bool dmcc::detectMulticast(CommSet &CS) {
  PhaseTimer Timer("comm.multicast");
  // Eliminate iteration variables; if no remaining constraint couples an
  // element variable with a receiver coordinate, the message content is
  // receiver-independent and can be multicast.
  System S = CS.Sys;
  for (unsigned V : CS.RVars)
    if (S.involves(V))
      S = S.fmEliminated(V);
  for (unsigned V : CS.SVars)
    if (S.involves(V))
      S = S.fmEliminated(V);
  auto InGroup = [](const std::vector<unsigned> &G, unsigned V) {
    for (unsigned X : G)
      if (X == V)
        return true;
    return false;
  };
  for (const Constraint &C : S.constraints()) {
    bool HasEl = false, HasPr = false;
    for (unsigned V = 0; V != S.numVars(); ++V) {
      if (!C.Expr.involves(V))
        continue;
      if (InGroup(CS.ElVars, V))
        HasEl = true;
      if (InGroup(CS.PrVars, V))
        HasPr = true;
    }
    if (HasEl && HasPr) {
      CS.Multicast = false;
      return false;
    }
  }
  CS.Multicast = true;
  return true;
}

uint64_t dmcc::countDistinct(
    const CommSet &CS, const std::vector<std::vector<unsigned>> &Groups,
    const std::map<std::string, IntT> &ParamValues, unsigned Budget) {
  System S = CS.Sys;
  for (unsigned I = 0, E = S.space().size(); I != E; ++I) {
    if (S.space().kind(I) != VarKind::Param)
      continue;
    auto It = ParamValues.find(S.space().name(I));
    if (It == ParamValues.end())
      fatalError("countDistinct: missing parameter value");
    S.addEQ(S.varExpr(I).plusConst(-It->second));
  }
  std::set<std::vector<IntT>> Tuples;
  S.enumeratePoints(
      [&](const std::vector<IntT> &Pt) {
        std::vector<IntT> Key;
        for (const std::vector<unsigned> &G : Groups)
          for (unsigned V : G)
            Key.push_back(Pt[V]);
        Tuples.insert(std::move(Key));
      },
      Budget);
  return Tuples.size();
}

std::string CommSet::str() const {
  std::string S = "comm set for S" + std::to_string(ReadStmtId) + " read #" +
                  std::to_string(ReadIdx) + " of array " +
                  std::to_string(ArrayId);
  S += FromInitialData
           ? " (from initial data)"
           : " (produced by S" + std::to_string(WriteStmtId) + ")";
  S += ", level " + std::to_string(Level);
  if (Multicast)
    S += ", multicast";
  S += ":\n" + Sys.str();
  return S;
}
