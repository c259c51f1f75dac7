#pragma once
/// \file hpldat.hpp
/// \brief Reader for the classic HPL.dat input file.
///
/// rocHPL keeps HPL's venerable 30-odd-line input format (Ns, NBs, process
/// grids, PFACT/RFACT, broadcast selection, ...) and extends it with its
/// own knobs via the launch wrapper. hplx reads the classic format and
/// maps each (N, NB, P×Q, ...) combination to an HplConfig, so existing
/// HPL.dat files drive the solver unchanged. Unsupported legacy knobs
/// (threshold, SWAP, swapping threshold, L1/U form, equilibration,
/// alignment) are parsed and surfaced but do not alter the run.
///
/// The format is line-oriented: two header lines, then one value (or a
/// space-separated list preceded by its count) per line, each followed by
/// a free-text comment. Optional extension lines follow the classic ones
/// in a fixed order; a file may stop after any of them. A retired
/// extension line keeps its position but accepts only the value the
/// solver now hard-codes. See tests/core/test_hpldat.cpp for a complete
/// example file.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/config.hpp"

namespace hplx::core {

/// The parsed contents of an HPL.dat file: the sweep lists, the classic
/// fields hplx has no HplConfig knob for, and one HplConfig holding every
/// other setting the file names.
struct HplDat {
  // Sweep lists: expand_configs runs one solve per combination.
  std::vector<long> ns;          ///< problem sizes
  std::vector<int> nbs;          ///< blocking factors
  std::vector<int> ps, qs;       ///< process grids (paired by index)
  std::vector<FactVariant> pfacts;   ///< panel fact variants
  std::vector<int> nbmins;           ///< recursion stop
  std::vector<int> ndivs;            ///< recursion panels
  std::vector<FactVariant> rfacts;   ///< recursive fact variants
  std::vector<int> depths;           ///< look-ahead depth (0 or 1)
  std::vector<comm::BcastAlgo> bcasts;

  // Classic fields without an HplConfig knob. The output file and device
  // are the runner's; the rest are parsed for fidelity and have no effect.
  std::string output_file = "HPL.out";
  int device_out = 6;       ///< 6 = stdout, 7 = stderr, else file
  double threshold = 16.0;  ///< residual acceptance bound
  /// HPL's row-swap algorithm code (0 = binary exchange, 1 = long, 2 =
  /// mix) and the mix's column threshold. hplx always runs the paper's
  /// scatterv + ring allgatherv.
  int swap = 1;
  long swap_threshold = 64;
  bool l1_transposed = false;
  bool u_transposed = false;
  bool equilibration = true;
  int alignment = 8;

  /// Every other setting: PMAP (row_major_grid) and the hplx/rocHPL
  /// extension lines. Each expanded config starts as a copy of it.
  HplConfig base;
};

/// Parse an HPL.dat stream. Throws hplx::Error with a line diagnostic on
/// malformed input.
HplDat parse_hpldat(std::istream& in);

/// Convenience: parse from a string.
HplDat parse_hpldat_string(const std::string& text);

/// Expand the cartesian sweep an HPL.dat describes into concrete solver
/// configurations (one per N × NB × grid × fact × depth × bcast combo,
/// exactly like xhpl's nested loops). Each is a copy of `dat.base` with
/// only the sweep fields set.
std::vector<HplConfig> expand_configs(const HplDat& dat);

/// Serialize back to the classic format (round-trips through
/// parse_hpldat).
std::string format_hpldat(const HplDat& dat);

}  // namespace hplx::core
