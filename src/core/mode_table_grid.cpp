#include "core/mode_table_grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define CHARLIE_HAVE_X86_DISPATCH 1
#endif

#include "util/error.hpp"

namespace charlie::core {

namespace {

// Packed per-mode field layout (see pack_mode / unpack below; any change
// must touch both).
constexpr std::size_t kModeStride = 17;

double axis_value(const ModeTableGrid::Axis& axis, std::size_t level) {
  if (axis.levels <= 1) return axis.lo;
  // Endpoints are returned verbatim so a query at a spec bound reproduces
  // the corner coordinate (and hence its resistance scale) bit-exactly.
  if (level == 0) return axis.lo;
  if (level + 1 == axis.levels) return axis.hi;
  return axis.lo + (axis.hi - axis.lo) * static_cast<double>(level) /
                       static_cast<double>(axis.levels - 1);
}

void validate_axis(const ModeTableGrid::Axis& axis, const char* name) {
  if (axis.levels == 0) {
    throw ConfigError(std::string("ModeTableGrid: ") + name +
                      " needs at least one level");
  }
  if (axis.levels == 1 && axis.lo != axis.hi) {
    throw ConfigError(std::string("ModeTableGrid: pinned axis ") + name +
                      " requires lo == hi");
  }
  if (axis.levels >= 2 && !(axis.hi > axis.lo)) {
    throw ConfigError(std::string("ModeTableGrid: active axis ") + name +
                      " requires hi > lo");
  }
  if (!(std::isfinite(axis.lo) && std::isfinite(axis.hi))) {
    throw ConfigError(std::string("ModeTableGrid: axis ") + name +
                      " bounds must be finite");
  }
}

void pack_mode(const ModeTable& t, double* out) {
  out[0] = t.steady.x;
  out[1] = t.steady.y;
  out[2] = t.xp.x;
  out[3] = t.xp.y;
  out[4] = t.d;
  out[5] = t.l1;
  out[6] = t.l2;
  out[7] = t.p1c;
  out[8] = t.p1d;
  out[9] = t.s1.a;
  out[10] = t.s1.b;
  out[11] = t.s1.c;
  out[12] = t.s1.d;
  out[13] = t.s2.a;
  out[14] = t.s2.b;
  out[15] = t.s2.c;
  out[16] = t.s2.d;
}

// The packed layout mirrors three contiguous double runs inside ModeTable
// (locked by the asserts below), so the blend kernels store straight into
// the struct fields.
static_assert(offsetof(ModeTable, xp) ==
              offsetof(ModeTable, steady) + 2 * sizeof(double));
static_assert(offsetof(ModeTable, l1) ==
              offsetof(ModeTable, d) + sizeof(double));
static_assert(offsetof(ModeTable, l2) ==
              offsetof(ModeTable, d) + 2 * sizeof(double));
static_assert(offsetof(ModeTable, p1c) ==
              offsetof(ModeTable, d) + 3 * sizeof(double));
static_assert(offsetof(ModeTable, p1d) ==
              offsetof(ModeTable, d) + 4 * sizeof(double));
static_assert(offsetof(ModeTable, s2) ==
              offsetof(ModeTable, s1) + 4 * sizeof(double));
static_assert(sizeof(ode::Vec2) == 2 * sizeof(double));
static_assert(sizeof(ode::Mat2) == 4 * sizeof(double));

// The inverse of pack_mode for the packed values (flags untouched).
void store_mode_fields(const double* f, ModeTable& t) {
  t.steady = {f[0], f[1]};
  t.xp = {f[2], f[3]};
  t.d = f[4];
  t.l1 = f[5];
  t.l2 = f[6];
  t.p1c = f[7];
  t.p1d = f[8];
  t.s1 = {f[9], f[10], f[11], f[12]};
  t.s2 = {f[13], f[14], f[15], f[16]};
}

void unpack_mode(const double* f, bool fold1, bool fold2, ModeTable& t) {
  store_mode_fields(f, t);
  t.scalar_valid = true;
  t.spectral_valid = true;
  t.fold1 = fold1;
  t.fold2 = fold2;
  if (fold1) t.l1 = 0.0;
  if (fold2) t.l2 = 0.0;
  // t.ode is intentionally left untouched (see header).
}

// Weighted sum of up to four packed corner blocks, written straight into
// the destination ModeTables:
//   field[j] = w0*c0[j] + w1*c1[j] + ... (left-associated, in corner order).
// Returns the blended horizon. The packed runs per mode ([0..3] steady/xp,
// [4..8] d..p1d, [9..16] s1/s2) land on the three contiguous double runs
// inside ModeTable (locked by the offset asserts above), so the kernels
// store directly into the struct fields -- no intermediate buffer, no
// second unpack pass. Structure flags and fold zeroing are applied by the
// caller afterwards.
//
// The kernels below differ only in instruction selection. Within one host
// the dispatch is fixed, so every run of a batch takes the same kernel and
// interpolated tables are bit-identical across thread counts, run splits,
// and replays; across ISAs the FMA kernels contract each multiply-add into
// one rounding, so the low bits may differ from the scalar kernel (well
// inside the documented interpolation tolerance).
double blend_modes_generic(const double* const* corner, const double* weight,
                           int n, std::size_t n_modes, ModeTable* tables) {
  for (std::size_t m = 0; m < n_modes; ++m) {
    const std::size_t base = m * kModeStride;
    ModeTable& t = tables[m];
#if defined(__SSE2__)
    double* const r1 = reinterpret_cast<double*>(&t.steady);
    double* const r2 = &t.d;
    double* const r3 = reinterpret_cast<double*>(&t.s1);
    auto pair = [&](std::size_t j) {
      __m128d a = _mm_mul_pd(_mm_set1_pd(weight[0]),
                             _mm_loadu_pd(corner[0] + base + j));
      for (int k = 1; k < n; ++k) {
        a = _mm_add_pd(a, _mm_mul_pd(_mm_set1_pd(weight[k]),
                                     _mm_loadu_pd(corner[k] + base + j)));
      }
      return a;
    };
    _mm_storeu_pd(r1, pair(0));
    _mm_storeu_pd(r1 + 2, pair(2));
    _mm_storeu_pd(r2, pair(4));
    _mm_storeu_pd(r2 + 2, pair(6));
    double p1d = weight[0] * corner[0][base + 8];
    for (int k = 1; k < n; ++k) p1d += weight[k] * corner[k][base + 8];
    r2[4] = p1d;
    _mm_storeu_pd(r3, pair(9));
    _mm_storeu_pd(r3 + 2, pair(11));
    _mm_storeu_pd(r3 + 4, pair(13));
    _mm_storeu_pd(r3 + 6, pair(15));
#else
    double f[kModeStride];
    for (std::size_t j = 0; j < kModeStride; ++j) {
      double acc = weight[0] * corner[0][base + j];
      for (int k = 1; k < n; ++k) acc += weight[k] * corner[k][base + j];
      f[j] = acc;
    }
    store_mode_fields(f, t);
#endif
  }
  const std::size_t h = n_modes * kModeStride;
  double acc = weight[0] * corner[0][h];
  for (int k = 1; k < n; ++k) acc += weight[k] * corner[k][h];
  return acc;
}

#if defined(CHARLIE_HAVE_X86_DISPATCH)
__attribute__((target("avx2,fma"))) double blend_modes_avx2(
    const double* const* corner, const double* weight, int n,
    std::size_t n_modes, ModeTable* tables) {
  // Weight broadcasts hoisted out of the mode loop (n <= 4 by construction).
  __m256d w[4];
  for (int k = 0; k < n; ++k) w[k] = _mm256_set1_pd(weight[k]);
  for (std::size_t m = 0; m < n_modes; ++m) {
    const double* c = corner[0] + m * kModeStride;
    __m256d a = _mm256_mul_pd(w[0], _mm256_loadu_pd(c));
    __m256d b = _mm256_mul_pd(w[0], _mm256_loadu_pd(c + 4));
    __m256d s0 = _mm256_mul_pd(w[0], _mm256_loadu_pd(c + 9));
    __m256d s1 = _mm256_mul_pd(w[0], _mm256_loadu_pd(c + 13));
    double p1d = weight[0] * c[8];
    for (int k = 1; k < n; ++k) {
      c = corner[k] + m * kModeStride;
      a = _mm256_fmadd_pd(w[k], _mm256_loadu_pd(c), a);
      b = _mm256_fmadd_pd(w[k], _mm256_loadu_pd(c + 4), b);
      s0 = _mm256_fmadd_pd(w[k], _mm256_loadu_pd(c + 9), s0);
      s1 = _mm256_fmadd_pd(w[k], _mm256_loadu_pd(c + 13), s1);
      p1d += weight[k] * c[8];
    }
    ModeTable& t = tables[m];
    _mm256_storeu_pd(reinterpret_cast<double*>(&t.steady), a);
    _mm256_storeu_pd(&t.d, b);
    (&t.d)[4] = p1d;
    double* const r3 = reinterpret_cast<double*>(&t.s1);
    _mm256_storeu_pd(r3, s0);
    _mm256_storeu_pd(r3 + 4, s1);
  }
  const std::size_t h = n_modes * kModeStride;
  double acc = weight[0] * corner[0][h];
  for (int k = 1; k < n; ++k) acc += weight[k] * corner[k][h];
  return acc;
}

__attribute__((target("avx512f,avx2,fma"))) double blend_modes_avx512(
    const double* const* corner, const double* weight, int n,
    std::size_t n_modes, ModeTable* tables) {
  __m256d w4[4];
  __m512d w8[4];
  for (int k = 0; k < n; ++k) {
    w4[k] = _mm256_set1_pd(weight[k]);
    w8[k] = _mm512_set1_pd(weight[k]);
  }
  for (std::size_t m = 0; m < n_modes; ++m) {
    const double* c = corner[0] + m * kModeStride;
    __m256d a = _mm256_mul_pd(w4[0], _mm256_loadu_pd(c));
    __m256d b = _mm256_mul_pd(w4[0], _mm256_loadu_pd(c + 4));
    __m512d s = _mm512_mul_pd(w8[0], _mm512_loadu_pd(c + 9));
    double p1d = weight[0] * c[8];
    for (int k = 1; k < n; ++k) {
      c = corner[k] + m * kModeStride;
      a = _mm256_fmadd_pd(w4[k], _mm256_loadu_pd(c), a);
      b = _mm256_fmadd_pd(w4[k], _mm256_loadu_pd(c + 4), b);
      s = _mm512_fmadd_pd(w8[k], _mm512_loadu_pd(c + 9), s);
      p1d += weight[k] * c[8];
    }
    ModeTable& t = tables[m];
    _mm256_storeu_pd(reinterpret_cast<double*>(&t.steady), a);
    _mm256_storeu_pd(&t.d, b);
    (&t.d)[4] = p1d;
    _mm512_storeu_pd(reinterpret_cast<double*>(&t.s1), s);
  }
  const std::size_t h = n_modes * kModeStride;
  double acc = weight[0] * corner[0][h];
  for (int k = 1; k < n; ++k) acc += weight[k] * corner[k][h];
  return acc;
}

using BlendFn = double (*)(const double* const*, const double*, int,
                           std::size_t, ModeTable*);

BlendFn pick_blend() {
  if (__builtin_cpu_supports("avx512f")) return blend_modes_avx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return blend_modes_avx2;
  }
  return blend_modes_generic;
}

const BlendFn blend_modes = pick_blend();
#else
constexpr auto blend_modes = blend_modes_generic;
#endif

// One active-axis interpolation stencil: the (at most two) grid levels
// bracketing the query coordinate, with their multilinear weights.
struct Stencil {
  std::size_t index[2];
  double weight[2];
  int n = 0;
};

Stencil axis_stencil(const ModeTableGrid::Axis& axis, double coord,
                     const char* name) {
  Stencil st;
  if (axis.levels <= 1) {
    if (coord != axis.lo) {
      throw ConfigError(std::string("ModeTableGrid: axis ") + name +
                        " is pinned at a different coordinate than the "
                        "queried point; rebuild the grid with this axis "
                        "active");
    }
    st.index[0] = 0;
    st.weight[0] = 1.0;
    st.n = 1;
    return st;
  }
  const double span = axis.hi - axis.lo;
  double t = (coord - axis.lo) / span * static_cast<double>(axis.levels - 1);
  // Clamp into the grid: sampled points live inside the span by
  // construction (truncated draws), so any excursion is rounding noise.
  if (!(t > 0.0)) t = 0.0;
  const double t_max = static_cast<double>(axis.levels - 1);
  if (t > t_max) t = t_max;
  std::size_t i0 = static_cast<std::size_t>(t);
  if (i0 > axis.levels - 2) i0 = axis.levels - 2;
  const double frac = t - static_cast<double>(i0);
  if (frac <= 0.0) {
    st.index[0] = i0;
    st.weight[0] = 1.0;
    st.n = 1;
  } else if (frac >= 1.0) {
    st.index[0] = i0 + 1;
    st.weight[0] = 1.0;
    st.n = 1;
  } else {
    st.index[0] = i0;
    st.weight[0] = 1.0 - frac;
    st.index[1] = i0 + 1;
    st.weight[1] = frac;
    st.n = 2;
  }
  return st;
}

}  // namespace

ModeTableGrid::ModeTableGrid(const GateParams& nominal, const Spec& spec)
    : nominal_(nominal) {
  nominal_.validate();
  axes_[0] = spec.vdd_scale;
  axes_[1] = spec.vth_shift;
  axes_[2] = spec.drive_scale;
  validate_axis(axes_[0], "vdd_scale");
  validate_axis(axes_[1], "vth_shift");
  validate_axis(axes_[2], "drive_scale");

  n_modes_ = gate_n_states(nominal_.n_inputs());
  n_corners_ = axes_[0].levels * axes_[1].levels * axes_[2].levels;
  corner_stride_ = n_modes_ * kModeStride + 1;  // +1: horizon
  data_.resize(n_corners_ * corner_stride_);
  fold1_.assign(n_modes_, false);
  fold2_.assign(n_modes_, false);

  // Derive exactly at every corner, reusing one scratch table set.
  GateModeTables scratch(nominal_);
  bool first = true;
  for (std::size_t iv = 0; iv < axes_[0].levels; ++iv) {
    for (std::size_t it = 0; it < axes_[1].levels; ++it) {
      for (std::size_t id = 0; id < axes_[2].levels; ++id) {
        ProcessPoint point;
        point.vdd_scale = axis_value(axes_[0], iv);
        point.vth_shift = axis_value(axes_[1], it);
        point.drive_scale = axis_value(axes_[2], id);
        scratch.rederive_at(nominal_, point);  // throws outside validity
        double* corner =
            data_.data() + corner_offset(iv, it, id) * corner_stride_;
        for (std::size_t m = 0; m < n_modes_; ++m) {
          const ModeTable& t = scratch.tables_[m];
          if (!t.scalar_valid || !t.spectral_valid) {
            throw ConfigError(
                "ModeTableGrid: mode without scalar/spectral expansion at a "
                "grid corner; this cell needs exact per-sample derivation");
          }
          if (first) {
            fold1_[m] = t.fold1;
            fold2_[m] = t.fold2;
          } else if (t.fold1 != fold1_[m] || t.fold2 != fold2_[m]) {
            throw ConfigError(
                "ModeTableGrid: mode expansion structure changes across "
                "corners; this cell needs exact per-sample derivation");
          }
          pack_mode(t, corner + m * kModeStride);
        }
        corner[n_modes_ * kModeStride] = scratch.horizon();
        first = false;
      }
    }
  }

  // Index each vdd level's corners by their exact resistance scale: the
  // derived tables are a pure function of (s, vdd_scale), so the vth x
  // drive face collapses to a sorted 1-D knot family per level. Corners
  // with bit-equal s carry bit-equal tables (same derived params through
  // the same deterministic derivation) -- drop the duplicates.
  s_knots_.resize(axes_[0].levels);
  for (std::size_t iv = 0; iv < axes_[0].levels; ++iv) {
    auto& knots = s_knots_[iv];
    knots.reserve(axes_[1].levels * axes_[2].levels);
    for (std::size_t it = 0; it < axes_[1].levels; ++it) {
      for (std::size_t id = 0; id < axes_[2].levels; ++id) {
        ProcessPoint point;
        point.vdd_scale = axis_value(axes_[0], iv);
        point.vth_shift = axis_value(axes_[1], it);
        point.drive_scale = axis_value(axes_[2], id);
        knots.push_back(
            {point.resistance_scale(nominal_.vdd),
             data_.data() + corner_offset(iv, it, id) * corner_stride_});
      }
    }
    std::sort(knots.begin(), knots.end(),
              [](const SKnot& a, const SKnot& b) { return a.s < b.s; });
    knots.erase(std::unique(knots.begin(), knots.end(),
                            [](const SKnot& a, const SKnot& b) {
                              return a.s == b.s;
                            }),
                knots.end());
  }
}

std::size_t ModeTableGrid::corner_offset(std::size_t iv, std::size_t it,
                                         std::size_t id) const {
  return (iv * axes_[1].levels + it) * axes_[2].levels + id;
}

void ModeTableGrid::interpolate_into(const ProcessPoint& point,
                                     GateModeTables& out) const {
  if (out.params_.n_inputs() != nominal_.n_inputs()) {
    throw ConfigError("ModeTableGrid::interpolate_into: arity mismatch");
  }
  // Pinned axes still gate on their exact coordinate (a mismatched query
  // must not silently alias into a valid resistance scale).
  if (axes_[1].levels <= 1 && point.vth_shift != axes_[1].lo) {
    throw ConfigError(
        "ModeTableGrid: axis vth_shift is pinned at a different coordinate "
        "than the queried point; rebuild the grid with this axis active");
  }
  if (axes_[2].levels <= 1 && point.drive_scale != axes_[2].lo) {
    throw ConfigError(
        "ModeTableGrid: axis drive_scale is pinned at a different coordinate "
        "than the queried point; rebuild the grid with this axis active");
  }
  const Stencil sv = axis_stencil(axes_[0], point.vdd_scale, "vdd_scale");
  const double s_q = point.resistance_scale_unchecked(nominal_.vdd);

  // Per bracketing vdd level, interpolate that level's 1-D s-family at the
  // query's exact resistance scale (clamped to the knot span: in-range by
  // construction for sampled points, so any excursion is rounding noise or
  // the mild s-drift of evaluating at an off-level vdd). A query landing on
  // a knot collapses to that corner with an exact weight.
  const double* corner[4];
  double weight[4];
  int n = 0;
  for (int a = 0; a < sv.n; ++a) {
    const auto& knots = s_knots_[sv.index[a]];
    const double wv = sv.weight[a];
    if (knots.size() == 1) {
      corner[n] = knots[0].corner;
      weight[n] = wv;
      ++n;
      continue;
    }
    // Linear scan for the bracketing pair: knot families are tiny (at most
    // vth levels x drive levels entries).
    std::size_t k = 0;
    while (k + 2 < knots.size() && knots[k + 1].s <= s_q) ++k;
    const double frac = (s_q - knots[k].s) / (knots[k + 1].s - knots[k].s);
    if (frac <= 0.0) {
      corner[n] = knots[k].corner;
      weight[n] = wv;
      ++n;
    } else if (frac >= 1.0) {
      corner[n] = knots[k + 1].corner;
      weight[n] = wv;
      ++n;
    } else {
      corner[n] = knots[k].corner;
      weight[n] = wv * (1.0 - frac);
      ++n;
      corner[n] = knots[k + 1].corner;
      weight[n] = wv * frac;
      ++n;
    }
  }

  // Blend the corner blocks straight into the destination tables (see
  // blend_modes for the determinism contract). An n == 1 stencil (a pinned
  // grid or an on-knot query) has weight exactly 1.0 and reads the stored
  // corner verbatim, so on-corner queries stay bit-exact on every kernel.
  double horizon;
  if (n == 1) {
    const double* c0 = corner[0];
    for (std::size_t m = 0; m < n_modes_; ++m) {
      unpack_mode(c0 + m * kModeStride, fold1_[m], fold2_[m], out.tables_[m]);
    }
    horizon = c0[n_modes_ * kModeStride];
  } else {
    horizon = blend_modes(corner, weight, n, n_modes_, out.tables_.data());
    for (std::size_t m = 0; m < n_modes_; ++m) {
      ModeTable& t = out.tables_[m];
      t.scalar_valid = true;
      t.spectral_valid = true;
      t.fold1 = fold1_[m] != 0;
      t.fold2 = fold2_[m] != 0;
      if (t.fold1) t.l1 = 0.0;
      if (t.fold2) t.l2 = 0.0;
    }
  }
  nominal_.rescale_into(s_q, point.vdd_scale, out.params_);
  out.vth_ = out.params_.vth();
  out.horizon_ = horizon;
}

std::shared_ptr<const GateModeTables> ModeTableGrid::interpolate(
    const ProcessPoint& point) const {
  auto out = std::make_shared<GateModeTables>(nominal_);
  interpolate_into(point, *out);
  return out;
}

}  // namespace charlie::core
