#pragma once
/// \file isa.hpp
/// \brief The ISA copies of the BLAS-3 engine and the startup choice
/// between them.
///
/// level3.cpp (the packed gemm engine, gemm_small and trsm) is compiled
/// once with the build's own flags and, on x86-64, once more for
/// x86-64-v4 (AVX-512) with its own register tiles. The public
/// dgemm/sgemm/dtrsm/strsm pick one copy at first use: the x86-64-v4 copy
/// when the host supports it, else the baseline. There is no knob.
///
/// Every copy shares KC and keeps floating-point contraction off, so the
/// copies return bitwise-identical results (tests/blas/test_isa.cpp).

#include <span>
#include <string>

#include "blas/blas.hpp"

namespace hplx::blas {

template <typename T>
using GemmFn = void (*)(Trans, Trans, int, int, int, T, const T*, int,
                        const T*, int, T, T*, int);
template <typename T>
using TrsmFn = void (*)(Side, Uplo, Trans, Diag, int, int, T, const T*, int,
                        T*, int);

/// One compiled copy of the BLAS-3 engine. The entry points take the
/// public routines' arguments and assume they were already validated.
struct Level3Copy {
  const char* isa;  ///< "baseline" or "x86-64-v4"
  int f64_mr, f64_nr;  ///< double register tile
  int f32_mr, f32_nr;  ///< float register tile
  GemmFn<double> dgemm;
  GemmFn<float> sgemm;
  TrsmFn<double> dtrsm;
  TrsmFn<float> strsm;
};

namespace baseline {
extern const Level3Copy kLevel3;
}
namespace x86_64_v4 {
extern const Level3Copy kLevel3;
}

/// The copies this build compiled and this host can run, baseline first.
std::span<const Level3Copy* const> runnable_level3_copies();

/// The copy the public BLAS-3 routines run: the last runnable one.
const Level3Copy& active_level3_copy();

/// "x86-64-v4 (f64 4x24, f32 4x32)": the copy's ISA and its tiles.
std::string describe(const Level3Copy& copy);

namespace detail {

/// Test seam: routes the public BLAS-3 routines through `copy` for this
/// object's lifetime, then restores the startup choice. Construct and
/// destroy it while no BLAS-3 call is in flight.
class ScopedLevel3Copy {
 public:
  explicit ScopedLevel3Copy(const Level3Copy& copy);
  ~ScopedLevel3Copy();
  ScopedLevel3Copy(const ScopedLevel3Copy&) = delete;
  ScopedLevel3Copy& operator=(const ScopedLevel3Copy&) = delete;

 private:
  const Level3Copy* saved_;
};

}  // namespace detail
}  // namespace hplx::blas
