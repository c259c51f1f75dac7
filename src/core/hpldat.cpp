#include "core/hpldat.hpp"

#include <cctype>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "trace/records.hpp"
#include "util/error.hpp"

namespace hplx::core {

namespace {

/// Longest list a "# of X" count line may announce.
constexpr long kMaxListLength = 64;

/// Line-oriented tokenizer over the HPL.dat format: each data line starts
/// with its value(s); everything after them is free-text comment.
class DatReader {
 public:
  explicit DatReader(std::istream& in) : in_(in) {}

  /// Consume one line and return it verbatim (header lines).
  std::string line() {
    std::string out;
    HPLX_CHECK_MSG(static_cast<bool>(std::getline(in_, out)),
                   "HPL.dat truncated at line " << lineno_ + 1);
    ++lineno_;
    return out;
  }

  /// Consume one line and return its first whitespace token.
  std::string token() {
    std::istringstream ls(line());
    std::string t;
    HPLX_CHECK_MSG(static_cast<bool>(ls >> t),
                   "HPL.dat line " << lineno_ << " is empty");
    return t;
  }

  /// One integer line. The whole token must be an integer in [lo, hi],
  /// checked as a `long` before narrowing; the bounds default to Int's.
  template <typename Int = long>
  Int integer(const char* what, long lo = std::numeric_limits<Int>::min(),
              long hi = std::numeric_limits<Int>::max()) {
    return to_integer<Int>(token(), what, lo, hi);
  }

  /// One real-number line; the whole token must be a number.
  double real(const char* what) {
    const std::string t = token();
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(t, &used);
    } catch (const std::logic_error&) {
      used = 0;
    }
    HPLX_CHECK_MSG(used > 0 && used == t.size(),
                   where(what) << ": not a number: `" << t << "`");
    return v;
  }

  /// One line holding `count` integers, each checked like integer().
  template <typename Int>
  std::vector<Int> integers(long count, const char* what, long lo,
                            long hi = std::numeric_limits<Int>::max()) {
    std::istringstream ls(line());
    std::vector<Int> out;
    std::string t;
    while (static_cast<long>(out.size()) < count && ls >> t)
      out.push_back(to_integer<Int>(t, what, lo, hi));
    HPLX_CHECK_MSG(static_cast<long>(out.size()) == count,
                   where(what) << ": expected " << count << " values, found "
                   << out.size());
    return out;
  }

  /// Read "# of X" then the list line.
  template <typename Int>
  std::vector<Int> counted_list(const char* what, long lo,
                                long hi = std::numeric_limits<Int>::max()) {
    const long n = integer(what, 1, kMaxListLength);
    return integers<Int>(n, what, lo, hi);
  }

  /// A retired extension line keeps its place in the format, but the
  /// solver hard-codes its value, so only that value parses.
  void retired(const char* what, long value) {
    const long v = integer(what);
    HPLX_CHECK_MSG(v == value, where(what) << ": this line was retired; the "
                   "solver always uses " << value << ", got " << v);
  }

  bool eof() {
    while (in_.good()) {
      const int c = in_.peek();
      if (c == std::char_traits<char>::eof()) return true;
      if (!std::isspace(c)) return false;
      in_.get();
    }
    return true;
  }

 private:
  std::string where(const char* what) const {
    std::ostringstream os;
    os << "HPL.dat line " << lineno_ << " (" << what << ")";
    return os.str();
  }

  template <typename Int>
  Int to_integer(const std::string& t, const char* what, long lo,
                 long hi) const {
    std::size_t used = 0;
    long v = 0;
    try {
      v = std::stol(t, &used);
    } catch (const std::logic_error&) {
      used = 0;
    }
    HPLX_CHECK_MSG(used > 0 && used == t.size(),
                   where(what) << ": not an integer: `" << t << "`");
    HPLX_CHECK_MSG(v >= lo && v <= hi, where(what) << ": " << v
                   << " is outside [" << lo << ", " << hi << "]");
    return static_cast<Int>(v);
  }

  std::istream& in_;
  int lineno_ = 0;
};

/// PFACT/RFACT codes. Classic HPL has no code for the recursive variant
/// (it *is* the RFACT); hplx exposes it as 3 so write→read is lossless.
constexpr FactVariant kFactCodes[] = {FactVariant::Left, FactVariant::Crout,
                                      FactVariant::Right,
                                      FactVariant::RecursiveRight};
constexpr comm::BcastAlgo kBcastCodes[] = {
    comm::BcastAlgo::Ring1, comm::BcastAlgo::Ring1Mod,
    comm::BcastAlgo::Ring2, comm::BcastAlgo::Ring2Mod,
    comm::BcastAlgo::Long,  comm::BcastAlgo::LongMod};
constexpr PrecisionMode kPrecisions[] = {PrecisionMode::FP64,
                                         PrecisionMode::MXP32};

/// The HPL.dat code of `v`, or `fallback` when it has none.
template <typename V, std::size_t N>
long code_of(const V (&codes)[N], V v, long fallback) {
  for (std::size_t i = 0; i < N; ++i)
    if (codes[i] == v) return static_cast<long>(i);
  return fallback;
}

/// One optional line after the classic ones: how its value is read into
/// and written from the config. A retired line has neither; it must hold
/// `retired`, the value the solver hard-codes.
struct ExtensionLine {
  const char* what;  ///< name in diagnostics and in the written comment
  const char* note;  ///< rest of the written comment
  void (*read)(DatReader&, const char* what, HplConfig&);
  void (*write)(std::ostream&, const HplConfig&);
  long retired;
};

// The positional order of the extension lines. Append new lines at the
// end; retire a line in place so older files still parse.
const ExtensionLine kExtensionLines[] = {
    {"split fraction", "rocHPL extension",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.split_fraction = r.real(w);
       HPLX_CHECK_MSG(c.split_fraction >= 0.0 && c.split_fraction < 1.0,
                      "HPL.dat: split fraction must be in [0, 1), got "
                          << c.split_fraction);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.split_fraction; }, 0},
    {"FACT threads", "rocHPL extension",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.fact_threads = r.integer<int>(w, 1);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.fact_threads; }, 0},
    {"BLAS threads", "hplx extension, 0=inherit",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.blas_threads = r.integer<int>(w, 0);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.blas_threads; }, 0},
    {"eager threshold bytes", nullptr, nullptr, nullptr, 32768},
    {"swap tile cols", nullptr, nullptr, nullptr, 256},
    {"kernel threads", nullptr, nullptr, nullptr, 0},
    {"update streams", "hplx extension, 1-8",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.update_streams = r.integer<int>(w, 1, trace::kMaxUpdateStreams);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.update_streams; }, 0},
    {"update band cols", nullptr, nullptr, nullptr, 0},
    {"hazard check", "hplx extension, 0=off,1=on",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.hazard_check = r.integer(w, 0, 1) == 1;
     },
     [](std::ostream& os, const HplConfig& c) { os << c.hazard_check; }, 0},
    {"swap wire format", nullptr, nullptr, nullptr, 1},
    {"swap chunk bytes", nullptr, nullptr, nullptr, 262144},
    {"precision", "hplx extension, fp64|mxp32",
     [](DatReader& r, const char*, HplConfig& c) {
       const std::string t = r.token();
       for (PrecisionMode p : kPrecisions) {
         if (t == to_string(p)) {
           c.precision = p;
           return;
         }
       }
       HPLX_CHECK_MSG(false, "HPL.dat: precision must be fp64 or mxp32"
                                 << (t == to_string(PrecisionMode::MXP16Sim)
                                         ? " (mxp16-sim is simulator-only: "
                                           "sim::ClusterConfig)"
                                         : "")
                                 << ", got `" << t << "`");
     },
     [](std::ostream& os, const HplConfig& c) {
       os << to_string(c.precision);
     },
     0},
    {"IR max iters", "hplx extension, mxp modes",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.ir_max_iters = r.integer<int>(w, 0);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.ir_max_iters; }, 0},
    {"IR tolerance", "hplx extension, scaled residual",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.ir_tol = r.real(w);
       HPLX_CHECK_MSG(std::isfinite(c.ir_tol) && c.ir_tol > 0.0,
                      "HPL.dat: IR tolerance must be finite and > 0, got "
                          << c.ir_tol);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.ir_tol; }, 0},
    {"pivoting", "hplx extension, 0=full,1=none",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.pivoting =
           r.integer(w, 0, 1) == 1 ? PivotMode::None : PivotMode::Full;
     },
     [](std::ostream& os, const HplConfig& c) {
       os << (c.pivoting == PivotMode::None ? 1 : 0);
     },
     0},
    {"diag dominant", "hplx extension, 0=no,1=yes",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.diag_dominant = r.integer(w, 0, 1) == 1;
     },
     [](std::ostream& os, const HplConfig& c) { os << c.diag_dominant; }, 0},
    {"RHS count", "hplx extension, >=1",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.nrhs = r.integer<int>(w, 1);
     },
     [](std::ostream& os, const HplConfig& c) { os << c.nrhs; }, 0},
    {"alloc pool", nullptr, nullptr, nullptr, 1},
    {"alloc cache bytes", nullptr, nullptr, nullptr, -1},
    {"comm check", "hplx extension, 0=off,1=on",
     [](DatReader& r, const char* w, HplConfig& c) {
       c.comm_check = r.integer(w, 0, 1) == 1;
     },
     [](std::ostream& os, const HplConfig& c) { os << c.comm_check; }, 0},
};

}  // namespace

HplDat parse_hpldat(std::istream& in) {
  DatReader r(in);
  HplDat dat;
  HplConfig& base = dat.base;

  r.line();  // "HPLinpack benchmark input file"
  r.line();  // institution line
  dat.output_file = r.token();
  dat.device_out = r.integer<int>("device out");

  dat.ns = r.counted_list<long>("problem sizes (N)", 1);
  dat.nbs = r.counted_list<int>("NBs", 1);
  base.row_major_grid = r.integer("PMAP") == 0;

  const long ngrids = r.integer("# of process grids", 1, kMaxListLength);
  dat.ps = r.integers<int>(ngrids, "Ps", 1);
  dat.qs = r.integers<int>(ngrids, "Qs", 1);

  dat.threshold = r.real("threshold");

  for (int code : r.counted_list<int>("PFACTs", 0, 3))
    dat.pfacts.push_back(kFactCodes[code]);
  dat.nbmins = r.counted_list<int>("NBMINs", 1);
  dat.ndivs = r.counted_list<int>("NDIVs", 2);
  for (int code : r.counted_list<int>("RFACTs", 0, 3))
    dat.rfacts.push_back(kFactCodes[code]);
  dat.depths = r.counted_list<int>("DEPTHs", 0, 1);
  for (int code : r.counted_list<int>("BCASTs", 0, 5))
    dat.bcasts.push_back(kBcastCodes[code]);

  dat.swap = r.integer<int>("SWAP", 0, 2);
  dat.swap_threshold = r.integer("swapping threshold");
  dat.l1_transposed = r.integer("L1 form") == 0;
  dat.u_transposed = r.integer("U form") == 0;
  dat.equilibration = r.integer("Equilibration") != 0;
  dat.alignment = r.integer<int>("alignment");

  for (const ExtensionLine& line : kExtensionLines) {
    if (r.eof()) break;
    if (line.read != nullptr) {
      line.read(r, line.what, base);
    } else {
      r.retired(line.what, line.retired);
    }
  }
  return dat;
}

HplDat parse_hpldat_string(const std::string& text) {
  std::istringstream in(text);
  return parse_hpldat(in);
}

std::vector<HplConfig> expand_configs(const HplDat& dat) {
  std::vector<HplConfig> out;
  for (std::size_t g = 0; g < dat.ps.size(); ++g) {
    for (long n : dat.ns) {
      for (int nb : dat.nbs) {
        for (FactVariant pfact : dat.pfacts) {
         for (FactVariant rfact : dat.rfacts) {
          for (int nbmin : dat.nbmins) {
            for (int ndiv : dat.ndivs) {
              for (int depth : dat.depths) {
                for (comm::BcastAlgo bcast : dat.bcasts) {
                  // Classic semantics: RFACT is the top-level panel
                  // variant (code 3 = recursive, the hplx extension and
                  // the paper's configuration) and PFACT is the base
                  // variant at the recursion leaves. A non-recursive
                  // RFACT runs that unblocked variant over the whole
                  // panel, so every HPL.dat variant line selects a
                  // distinct code path.
                  HplConfig cfg = dat.base;
                  cfg.n = n;
                  cfg.nb = nb;
                  cfg.p = dat.ps[g];
                  cfg.q = dat.qs[g];
                  cfg.fact = rfact;
                  cfg.rfact_base = pfact;
                  cfg.rfact_nbmin = nbmin;
                  cfg.rfact_ndiv = ndiv;
                  cfg.pipeline = depth == 0 ? PipelineMode::Simple
                                            : PipelineMode::LookaheadSplit;
                  cfg.bcast = bcast;
                  out.push_back(cfg);
                }
              }
            }
          }
         }
        }
      }
    }
  }
  return out;
}

std::string format_hpldat(const HplDat& dat) {
  const HplConfig& base = dat.base;
  std::ostringstream os;
  auto list = [&os](const auto& values) {
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? " " : "") << values[i];
  };
  auto codes = [&os](const auto& values, const auto& table, long fallback) {
    for (std::size_t i = 0; i < values.size(); ++i)
      os << (i ? " " : "") << code_of(table, values[i], fallback);
  };

  os << "HPLinpack benchmark input file\n";
  os << "hplx reproduction of rocHPL (SC 2023)\n";
  os << dat.output_file << "  output file name (if any)\n";
  os << dat.device_out << "  device out (6=stdout,7=stderr,file)\n";
  os << dat.ns.size() << "  # of problems sizes (N)\n";
  list(dat.ns);
  os << "  Ns\n";
  os << dat.nbs.size() << "  # of NBs\n";
  list(dat.nbs);
  os << "  NBs\n";
  os << (base.row_major_grid ? 0 : 1)
     << "  PMAP process mapping (0=Row-,1=Column-major)\n";
  os << dat.ps.size() << "  # of process grids (P x Q)\n";
  list(dat.ps);
  os << "  Ps\n";
  list(dat.qs);
  os << "  Qs\n";
  os << dat.threshold << "  threshold\n";
  os << dat.pfacts.size() << "  # of panel fact\n";
  codes(dat.pfacts, kFactCodes, 2);
  os << "  PFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n";
  os << dat.nbmins.size() << "  # of recursive stopping criterium\n";
  list(dat.nbmins);
  os << "  NBMINs (>= 1)\n";
  os << dat.ndivs.size() << "  # of panels in recursion\n";
  list(dat.ndivs);
  os << "  NDIVs\n";
  os << dat.rfacts.size() << "  # of recursive panel fact.\n";
  codes(dat.rfacts, kFactCodes, 2);
  os << "  RFACTs (0=left, 1=Crout, 2=Right, 3=recursive)\n";
  os << dat.depths.size() << "  # of lookahead depth\n";
  list(dat.depths);
  os << "  DEPTHs (>=0)\n";
  os << dat.bcasts.size() << "  # of broadcast\n";
  // Binomial has no classic code; 1 (1rM) is the nearest.
  codes(dat.bcasts, kBcastCodes, 1);
  os << "  BCASTs (0=1rg,1=1rM,2=2rg,3=2rM,4=Lng,5=LnM)\n";
  os << dat.swap << "  SWAP (0=bin-exch,1=long,2=mix)\n";
  os << dat.swap_threshold << "  swapping threshold\n";
  os << (dat.l1_transposed ? 0 : 1) << "  L1 in (0=transposed,1=no) form\n";
  os << (dat.u_transposed ? 0 : 1) << "  U  in (0=transposed,1=no) form\n";
  os << (dat.equilibration ? 1 : 0) << "  Equilibration (0=no,1=yes)\n";
  os << dat.alignment << "  memory alignment in double (> 0)\n";
  for (const ExtensionLine& line : kExtensionLines) {
    if (line.write != nullptr) {
      line.write(os, base);
      os << "  " << line.what << " (" << line.note << ")\n";
    } else {
      os << line.retired << "  " << line.what << " (retired, must be "
         << line.retired << ")\n";
    }
  }
  return os.str();
}

}  // namespace hplx::core
