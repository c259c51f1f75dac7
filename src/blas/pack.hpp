#pragma once
/// \file pack.hpp
/// \brief Register tiles, cache blocking and panel packing for the blocked
/// BLAS-3 engine (GotoBLAS layout).
///
/// gemm streams A and B through cache-resident packed tiles instead of
/// walking the caller's (possibly strided, possibly transposed) storage in
/// the inner loop:
///
///   - A blocks (MC×KC) are packed into row panels of Tile<T>::mr rows
///     each, laid out so the micro-kernel reads mr contiguous elements per
///     k step.
///   - B panels (KC×NC) are packed into column panels of Tile<T>::nr
///     columns each, nr contiguous elements per k step.
///
/// Both packers read through op(·), so every transpose combination funnels
/// into the same contiguous micro-kernel — there are no strided inner
/// loops left on the compute path. Ragged edges are zero-padded to full
/// mr/nr tiles; the micro-kernel always runs full tiles and the
/// write-back masks the padding.
///
/// The engine is instantiated per element type: `double` (the seed dgemm
/// path) and `float` (the HPL-MxP mxp32 path). The float cache blocking
/// doubles every MC/KC/NC count so the packed panels hold twice the
/// elements in the same cache space.
///
/// This header, microkernel.hpp and level3.cpp are compiled once per ISA
/// copy of the engine (see isa.hpp). Each copy lives in its own namespace,
/// HPLX_BLAS_COPY, so the copies' inline functions and templates never
/// share a symbol and the linker cannot mix code built for one ISA into
/// the other.

#include <cstddef>
#include <new>

#include "blas/blas.hpp"

#if defined(HPLX_BLAS_X86_64_V4)
#define HPLX_BLAS_COPY x86_64_v4
#else
#define HPLX_BLAS_COPY baseline
#endif

namespace hplx::blas {

/// K depth of one packed block, shared by every ISA copy. KC fixes where
/// the k-sum splits into partial sums that are added into C in order, so
/// it fixes the rounding: a copy with another KC would change the bits.
template <typename T>
inline constexpr int kKC = sizeof(T) == sizeof(double) ? 256 : 512;

namespace HPLX_BLAS_COPY {

/// Per-element-type register tile (mr×nr) and cache blocking (MC, KC, NC)
/// of this ISA copy. MC×KC keeps one packed A block in L2 (256 KiB in
/// both precisions) and NC×KC one B stripe beside it; MC and NC are the
/// same in every copy.
///
/// The tile shapes are chosen for gcc's vectorizer, which keeps the
/// micro-kernel's mr×nr accumulator block in whole vector registers only
/// for some shapes; for the others its cost model keeps the block in
/// memory and the kernel runs several times slower. Accumulation stays
/// unfused (-ffp-contract=off) and vectorizes across independent C
/// elements only, so every shape yields the same bits. To re-derive a
/// shape, build level3.cpp with -fopt-info-vec: a fast shape reports the
/// micro-kernel's innermost loop (over nr) vectorized with full-width
/// vectors, while a collapsed one reports the loop over mr vectorized, or
/// narrower vectors. Then confirm with bench/blas_isa_gate.
///
/// kIsa is the copy's name in Level3Copy::isa and the run report.
template <typename T>
struct Tile;

#if defined(HPLX_BLAS_X86_64_V4)
inline constexpr char kIsa[] = "x86-64-v4";
// x86-64-v4 (AVX-512). Single-thread GF/s at 1024×1024×256
// (bench/blas_isa_gate, 4-core AVX-512 Xeon, gcc 12, 3 runs each):
//   double 4×24 28–37 | 4×40 36–38 | 8×24 35–37 | 4×32 26–32 | 4×8 19–22
//          collapsed: 8×8 3.2, 4×16 2.7, 2×16 4.0, 8×16 5.2, 6×8 2.3
//   float  4×32 56–77 | 2×32 56–75 | 6×32 56 | 4×48 54 | 4×64 49
//          collapsed: 4×16 3.0, 4×8 1.8
// Double 4×24 is three zmm per accumulator row (12 accumulators); it is
// the narrowest of the fast double tiles, so it pads least on the narrow
// column blocks of the recursive panel factorization. Float 4×32 is two
// zmm per row.
template <>
struct Tile<double> {
  static constexpr int mr = 4, nr = 24;
  static constexpr int mc = 128, kc = kKC<double>, nc = 512;
};
template <>
struct Tile<float> {
  static constexpr int mr = 4, nr = 32;
  static constexpr int mc = 256, kc = kKC<float>, nc = 1024;
};
#else
inline constexpr char kIsa[] = "baseline";
// Baseline (the build's own flags; SSE2 on x86-64). Both types use 4×8:
// each accumulator row is two or four xmm registers and the 4-row unroll
// is small enough that the SLP vectorizer keeps the block in registers
// for either element type. An 8×8 float tile (byte parity with the
// double tile) defeats its cost model and runs scalar, about 5× slower.
template <>
struct Tile<double> {
  static constexpr int mr = 4, nr = 8;
  static constexpr int mc = 128, kc = kKC<double>, nc = 512;
};
template <>
struct Tile<float> {
  static constexpr int mr = 4, nr = 8;
  static constexpr int mc = 256, kc = kKC<float>, nc = 1024;
};
#endif

/// 64-byte-aligned, lazily grown scratch buffer. Packed tiles live here;
/// alignment keeps tile rows on cache-line boundaries so the vectorizer
/// can use aligned loads. Capacity is tracked in bytes so one buffer can
/// serve either element type.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { ::operator delete[](data_, std::align_val_t{64}); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  /// Grow (never shrink) to at least `count` elements of T and return the
  /// base.
  template <typename T>
  T* ensure(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    if (bytes > capacity_) {
      ::operator delete[](data_, std::align_val_t{64});
      data_ = ::operator new[](bytes, std::align_val_t{64});
      capacity_ = bytes;
    }
    return static_cast<T*>(data_);
  }

 private:
  void* data_ = nullptr;
  std::size_t capacity_ = 0;  ///< bytes
};

/// Pack op(A)(ic:ic+mb, pc:pc+kb) into Tile<T>::mr-row panels at `ap`.
/// `a`/`lda` address the stored matrix; `trans` selects which axis is
/// rows of op(A). Rows past mb within the last tile are zero-filled.
/// Destination size: round_up(mb, mr) * kb elements.
template <typename T>
void pack_a(Trans trans, int mb, int kb, const T* a, int lda, T* ap) {
  constexpr int mr_t = Tile<T>::mr;
  if (trans == Trans::No) {
    // op(A)(i, p) = a[p*lda + i]: each tile column is a contiguous slice.
    for (int i0 = 0; i0 < mb; i0 += mr_t) {
      const int mr = (mb - i0 < mr_t) ? mb - i0 : mr_t;
      for (int p = 0; p < kb; ++p) {
        const T* acol = a + static_cast<long>(p) * lda + i0;
        T* dst = ap + static_cast<long>(p) * mr_t;
        for (int i = 0; i < mr; ++i) dst[i] = acol[i];
        for (int i = mr; i < mr_t; ++i) dst[i] = T(0);
      }
      ap += static_cast<long>(kb) * mr_t;
    }
  } else {
    // op(A)(i, p) = a[i*lda + p]: walk p down each stored column so the
    // reads stay stride-1 in the source.
    for (int i0 = 0; i0 < mb; i0 += mr_t) {
      const int mr = (mb - i0 < mr_t) ? mb - i0 : mr_t;
      for (int i = 0; i < mr; ++i) {
        const T* acol = a + static_cast<long>(i0 + i) * lda;
        for (int p = 0; p < kb; ++p)
          ap[static_cast<long>(p) * mr_t + i] = acol[p];
      }
      for (int i = mr; i < mr_t; ++i)
        for (int p = 0; p < kb; ++p)
          ap[static_cast<long>(p) * mr_t + i] = T(0);
      ap += static_cast<long>(kb) * mr_t;
    }
  }
}

/// Pack op(B)(pc:pc+kb, jc:jc+nb) into Tile<T>::nr-column panels at `bp`.
/// Columns past nb within the last tile are zero-filled.
/// Destination size: round_up(nb, nr) * kb elements.
template <typename T>
void pack_b(Trans trans, int kb, int nb, const T* b, int ldb, T* bp) {
  constexpr int nr_t = Tile<T>::nr;
  if (trans == Trans::No) {
    // op(B)(p, j) = b[j*ldb + p]: walk p down each stored column.
    for (int j0 = 0; j0 < nb; j0 += nr_t) {
      const int nr = (nb - j0 < nr_t) ? nb - j0 : nr_t;
      for (int j = 0; j < nr; ++j) {
        const T* bcol = b + static_cast<long>(j0 + j) * ldb;
        for (int p = 0; p < kb; ++p)
          bp[static_cast<long>(p) * nr_t + j] = bcol[p];
      }
      for (int j = nr; j < nr_t; ++j)
        for (int p = 0; p < kb; ++p)
          bp[static_cast<long>(p) * nr_t + j] = T(0);
      bp += static_cast<long>(kb) * nr_t;
    }
  } else {
    // op(B)(p, j) = b[p*ldb + j]: each tile row is a contiguous slice.
    for (int j0 = 0; j0 < nb; j0 += nr_t) {
      const int nr = (nb - j0 < nr_t) ? nb - j0 : nr_t;
      for (int p = 0; p < kb; ++p) {
        const T* brow = b + static_cast<long>(p) * ldb + j0;
        T* dst = bp + static_cast<long>(p) * nr_t;
        for (int j = 0; j < nr; ++j) dst[j] = brow[j];
        for (int j = nr; j < nr_t; ++j) dst[j] = T(0);
      }
      bp += static_cast<long>(kb) * nr_t;
    }
  }
}

}  // namespace HPLX_BLAS_COPY
}  // namespace hplx::blas
