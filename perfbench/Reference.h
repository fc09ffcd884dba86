//===- perfbench/Reference.h - Independent answers for the benchmark -----===//
//
// Part of dmcc, a reproduction of Amarasinghe & Lam, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark checks the compiler and simulator against, computed
/// in plain C++ without the compiler, its IR or its simulator:
///
///  * reference kernels for lu.dm and stencil.dm (the other five specs
///    have theirs in examples/WorkloadKernels.h), seeded with the same
///    initialArrayValue() inputs and evaluated in the mini-language's
///    order and association, so the expected arrays are bit-exact;
///  * LU's flop count and minimum inter-processor word count in closed
///    form;
///  * a minimum-words pass per spec: the sequential loop nest replayed
///    with each array element's holders tracked, counting the distinct
///    (value version, reading physical processor) pairs whose reader
///    does not already hold that version. Every value a processor reads
///    and does not hold must cross the network at least once, so any
///    correct SPMD program sends at least this many words.
///
/// The ownership rules below transcribe each spec's decompose/compute
/// directives by hand; virtual processor v runs on physical v mod P.
///
//===----------------------------------------------------------------------===//

#ifndef DMCC_PERFBENCH_REFERENCE_H
#define DMCC_PERFBENCH_REFERENCE_H

#include "WorkloadKernels.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dmcc {
namespace perfbench {

using Params = std::map<std::string, IntT>;

/// examples/lu.dm: in-place LU without pivoting. Final X, row-major.
inline std::vector<double> refLU(IntT N) {
  const IntT M = N + 1;
  std::vector<double> X = workloads::seedArray(0, M * M);
  auto At = [&](IntT I, IntT J) -> double & {
    return X[static_cast<size_t>(I * M + J)];
  };
  for (IntT I1 = 0; I1 <= N; ++I1)
    for (IntT I2 = I1 + 1; I2 <= N; ++I2) {
      At(I2, I1) = At(I2, I1) / At(I1, I1);
      for (IntT I3 = I1 + 1; I3 <= N; ++I3)
        At(I2, I3) = At(I2, I3) - At(I2, I1) * At(I1, I3);
    }
  return X;
}

/// examples/stencil.dm: 1-D three-point sweep and copy-back. {X, Y}.
inline std::vector<std::vector<double>> refStencil(IntT T, IntT N) {
  std::vector<double> X = workloads::seedArray(0, N + 1),
                      Y = workloads::seedArray(1, N + 1);
  for (IntT t = 0; t <= T; ++t) {
    for (IntT I = 1; I <= N - 1; ++I)
      Y[I] = X[I - 1] + X[I] + X[I + 1];
    for (IntT I = 1; I <= N - 1; ++I)
      X[I] = Y[I];
  }
  return {X, Y};
}

/// Final contents per array name of every spec the benchmark runs.
inline std::map<std::string, std::vector<double>>
referenceArrays(const std::string &Spec, const Params &Pm) {
  using namespace workloads;
  if (Spec == "lu")
    return {{"X", refLU(Pm.at("N"))}};
  if (Spec == "stencil") {
    auto XY = refStencil(Pm.at("T"), Pm.at("N"));
    return {{"X", XY[0]}, {"Y", XY[1]}};
  }
  if (Spec == "cholesky")
    return {{"A", refCholesky(Pm.at("N"))}};
  if (Spec == "floyd")
    return {{"D", refFloyd(Pm.at("N"))}};
  if (Spec == "adi")
    return {{"X", refADI(Pm.at("T"), Pm.at("N"))}};
  if (Spec == "jacobi2d") {
    auto AB = refJacobi2D(Pm.at("T"), Pm.at("N"));
    return {{"A", AB[0]}, {"B", AB[1]}};
  }
  if (Spec == "jacobi3d") {
    auto AB = refJacobi3D(Pm.at("N"));
    return {{"A", AB[0]}, {"B", AB[1]}};
  }
  return {};
}

/// LU's floating-point operations: one divide per (i1, i2) and a
/// multiply-subtract per (i1, i2, i3). With k = N - i1 that is
/// sum_k k + 2 k^2 for k = 0..N.
inline uint64_t luFlops(IntT N) {
  const uint64_t K = static_cast<uint64_t>(N);
  return K * (K + 1) / 2 + K * (K + 1) * (2 * K + 1) / 3;
}

/// LU's minimum words on P physical processors under the cyclic row
/// layout. Step i1 reads row i1's N - i1 + 1 trailing elements on the
/// owner of every row i2 > i1; those owners are min(P - 1, N - i1)
/// physical processors other than row i1's. With k = N - i1:
/// sum_k (k + 1) min(P - 1, k) for k = 0..N.
inline uint64_t luMinWords(IntT N, IntT P) {
  const uint64_t K = static_cast<uint64_t>(N);
  const uint64_t C = static_cast<uint64_t>(P - 1); // cap on the readers
  // k < C contributes k (k + 1); k >= C contributes C (k + 1).
  const uint64_t Lo = std::min(K + 1, C); // number of k in [0, C)
  uint64_t Sum = (Lo - 1) * Lo * (Lo + 1) / 3; // sum_{k<Lo} k (k + 1)
  if (K + 1 > C) {
    // sum_{k=C}^{K} (k + 1) = sum_{m=C+1}^{K+1} m
    uint64_t Hi = (K + 1) * (K + 2) / 2 - C * (C + 1) / 2;
    Sum += C * Hi;
  }
  return Sum;
}

/// Holder sets of one array's elements over P physical processors.
class Holders {
public:
  Holders(IntT Elems, IntT P)
      : P(static_cast<size_t>(P)),
        Held(static_cast<size_t>(Elems) * static_cast<size_t>(P), 0) {}

  /// \p Phys holds the initial value of \p E.
  void hold(IntT E, IntT Phys) { Held[slot(E, Phys)] = 1; }
  /// \p Phys writes a new version of \p E: only it holds that version.
  void write(IntT E, IntT Phys) {
    std::fill_n(Held.begin() + static_cast<ptrdiff_t>(slot(E, 0)), P, 0);
    Held[slot(E, Phys)] = 1;
  }
  /// \p Phys reads \p E: a word unless it already holds this version.
  void read(IntT E, IntT Phys) {
    char &H = Held[slot(E, Phys)];
    if (!H) {
      H = 1;
      ++Words;
    }
  }
  uint64_t Words = 0;

private:
  size_t slot(IntT E, IntT Phys) const {
    return static_cast<size_t>(E) * P + static_cast<size_t>(Phys);
  }
  size_t P;
  std::vector<char> Held;
};

/// Physical processors holding row \p I under `block(0, B) overlap(Lo,
/// Hi)`: every virtual p >= 0 with B p - Lo <= I <= B p + B - 1 + Hi.
/// Counting a virtual processor the simulator never instantiates only
/// lowers the minimum, so the bound stays safe.
template <typename Fn>
void forBlockHolders(IntT I, IntT B, IntT Lo, IntT Hi, IntT P, Fn F) {
  for (IntT V = std::max<IntT>(0, (I - Hi) / B - 1); B * V - Lo <= I; ++V)
    if (I <= B * V + B - 1 + Hi)
      F(V % P);
}

/// The minimum-words pass for spec \p Spec at parameters \p Pm on \p P
/// physical processors. Reads are counted before the statement's write,
/// as the right-hand side is evaluated first; the final layout of every
/// array (here always each element's computing owner) is read last.
inline uint64_t minWords(const std::string &Spec, const Params &Pm,
                         IntT P) {
  if (Spec == "lu" || Spec == "cholesky" || Spec == "floyd") {
    // One (N+1) x (N+1) array, rows cyclic, owner computes.
    const IntT N = Pm.at("N"), M = N + 1;
    Holders A(M * M, P);
    auto E = [M](IntT I, IntT J) { return I * M + J; };
    for (IntT I = 0; I <= N; ++I)
      for (IntT J = 0; J <= N; ++J)
        A.hold(E(I, J), I % P);
    for (IntT K = 0; K <= N; ++K) {
      if (Spec == "lu") {
        for (IntT I2 = K + 1; I2 <= N; ++I2) {
          const IntT Me = I2 % P;
          A.read(E(I2, K), Me);
          A.read(E(K, K), Me);
          A.write(E(I2, K), Me);
          for (IntT I3 = K + 1; I3 <= N; ++I3) {
            A.read(E(I2, I3), Me);
            A.read(E(I2, K), Me);
            A.read(E(K, I3), Me);
            A.write(E(I2, I3), Me);
          }
        }
      } else if (Spec == "cholesky") {
        for (IntT I = K + 1; I <= N; ++I) {
          A.read(E(I, K), I % P);
          A.read(E(K, K), I % P);
          A.write(E(I, K), I % P);
        }
        for (IntT J = K + 1; J <= N; ++J)
          for (IntT I2 = J; I2 <= N; ++I2) {
            const IntT Me = I2 % P;
            A.read(E(I2, J), Me);
            A.read(E(I2, K), Me);
            A.read(E(J, K), Me);
            A.write(E(I2, J), Me);
          }
      } else {
        for (IntT I = 0; I <= N; ++I)
          for (IntT J = 0; J <= N; ++J) {
            A.read(E(I, J), I % P);
            A.read(E(I, K), I % P);
            A.read(E(K, J), I % P);
            A.write(E(I, J), I % P);
          }
      }
    }
    for (IntT I = 0; I <= N; ++I)
      for (IntT J = 0; J <= N; ++J)
        A.read(E(I, J), I % P);
    return A.Words;
  }
  if (Spec == "stencil") {
    // X, Y block(0, 16); both statements block(1, 16) on the sweep index.
    const IntT T = Pm.at("T"), N = Pm.at("N");
    auto Own = [P](IntT I) { return (I / 16) % P; };
    Holders X(N + 1, P), Y(N + 1, P);
    for (IntT I = 0; I <= N; ++I) {
      X.hold(I, Own(I));
      Y.hold(I, Own(I));
    }
    for (IntT t = 0; t <= T; ++t) {
      for (IntT I = 1; I <= N - 1; ++I) {
        X.read(I - 1, Own(I));
        X.read(I, Own(I));
        X.read(I + 1, Own(I));
        Y.write(I, Own(I));
      }
      for (IntT I = 1; I <= N - 1; ++I) {
        Y.read(I, Own(I));
        X.write(I, Own(I));
      }
    }
    for (IntT I = 0; I <= N; ++I) {
      X.read(I, Own(I));
      Y.read(I, Own(I));
    }
    return X.Words + Y.Words;
  }
  if (Spec == "adi") {
    // X block(0, 4), owner computes.
    const IntT T = Pm.at("T"), N = Pm.at("N"), M = N + 1;
    auto Own = [P](IntT I) { return (I / 4) % P; };
    auto E = [M](IntT I, IntT J) { return I * M + J; };
    Holders X(M * M, P);
    for (IntT I = 0; I <= N; ++I)
      for (IntT J = 0; J <= N; ++J)
        X.hold(E(I, J), Own(I));
    for (IntT t = 0; t <= T; ++t) {
      for (IntT I = 0; I <= N; ++I)
        for (IntT J = 1; J <= N; ++J) {
          X.read(E(I, J), Own(I));
          X.read(E(I, J - 1), Own(I));
          X.write(E(I, J), Own(I));
        }
      for (IntT I = 1; I <= N; ++I)
        for (IntT J = 0; J <= N; ++J) {
          X.read(E(I, J), Own(I));
          X.read(E(I - 1, J), Own(I));
          X.write(E(I, J), Own(I));
        }
    }
    for (IntT I = 0; I <= N; ++I)
      for (IntT J = 0; J <= N; ++J)
        X.read(E(I, J), Own(I));
    return X.Words;
  }
  if (Spec == "jacobi2d" || Spec == "jacobi3d") {
    // A block(0, B) overlap(1, 1) with final block(0, B); B block(0, B);
    // both statements block on the outermost spatial index. jacobi3d is
    // one sweep (T = 0) over planes of (N+1)^2 elements.
    const bool Is3D = Spec == "jacobi3d";
    const IntT B = Is3D ? 2 : 4, N = Pm.at("N"), M = N + 1;
    const IntT T = Is3D ? 0 : Pm.at("T");
    const IntT Plane = Is3D ? M * M : M; // elements per row/plane
    auto Own = [P, B](IntT I) { return (I / B) % P; };
    Holders A(M * Plane, P), Bv(M * Plane, P);
    for (IntT I = 0; I <= N; ++I)
      for (IntT R = 0; R != Plane; ++R) {
        forBlockHolders(I, B, 1, 1, P,
                        [&](IntT Ph) { A.hold(I * Plane + R, Ph); });
        Bv.hold(I * Plane + R, Own(I));
      }
    // In-plane neighbours of (J, K): 2-D rows have one coordinate, J.
    auto Interior = [&](IntT R) {
      IntT J = Is3D ? R / M : R, K = Is3D ? R % M : 1;
      return J >= 1 && J <= N - 1 && K >= 1 && K <= N - 1;
    };
    for (IntT t = 0; t <= T; ++t) {
      for (IntT I = 1; I <= N - 1; ++I)
        for (IntT R = 0; R != Plane; ++R) {
          if (!Interior(R))
            continue;
          const IntT Me = Own(I), C = I * Plane + R;
          A.read(C - Plane, Me);
          A.read(C + Plane, Me);
          A.read(C - 1, Me);
          A.read(C + 1, Me);
          if (Is3D) {
            A.read(C - M, Me);
            A.read(C + M, Me);
          }
          A.read(C, Me);
          Bv.write(C, Me);
        }
      for (IntT I = 1; I <= N - 1; ++I)
        for (IntT R = 0; R != Plane; ++R) {
          if (!Interior(R))
            continue;
          Bv.read(I * Plane + R, Own(I));
          A.write(I * Plane + R, Own(I));
        }
    }
    for (IntT I = 0; I <= N; ++I)
      for (IntT R = 0; R != Plane; ++R) {
        A.read(I * Plane + R, Own(I));
        Bv.read(I * Plane + R, Own(I));
      }
    return A.Words + Bv.Words;
  }
  return 0;
}

} // namespace perfbench
} // namespace dmcc

#endif // DMCC_PERFBENCH_REFERENCE_H
