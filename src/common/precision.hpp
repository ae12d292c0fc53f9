// Floating-point precision tags and traits used throughout the tile framework.
//
// A Precision names a storage format; each has one storage scalar:
//
//   Precision::FP64 <-> double     Precision::FP16 <-> gsx::half
//   Precision::FP32 <-> float      Precision::BF16 <-> gsx::bfloat16
//
// scalar_t<P> and precision_of<T> spell that mapping at compile time, and
// dispatch(p, f) crosses it at run time: it runs f's one generic body at
// the scalar of a runtime Precision. Tile routines are written once over
// the scalar and reached through dispatch, so the mapping lives here only.
#pragma once

#include <cstddef>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "common/bfloat16.hpp"
#include "common/half.hpp"

namespace gsx {

/// Storage/compute precision of a tile, ordered from highest to lowest
/// accuracy. BF16 implements the paper's outlook (Section VII-A): FP32's
/// exponent range at 16-bit storage, removing FP16's underflow limits.
enum class Precision : unsigned char {
  FP64 = 0,
  FP32 = 1,
  FP16 = 2,
  BF16 = 3,
};

/// Number of distinct precisions (for array-indexed lookup tables).
inline constexpr std::size_t kNumPrecisions = 4;

/// The storage scalars in Precision order: element p stores Precision(p).
using StorageScalars = std::tuple<double, float, half, bfloat16>;

/// Storage scalar of precision P.
template <Precision P>
using scalar_t = std::tuple_element_t<static_cast<std::size_t>(P), StorageScalars>;

namespace detail {
template <typename T, std::size_t I = 0>
constexpr Precision precision_index() {
  static_assert(I < kNumPrecisions, "not a storage scalar");
  if constexpr (std::is_same_v<T, std::tuple_element_t<I, StorageScalars>>)
    return static_cast<Precision>(I);
  else
    return precision_index<T, I + 1>();
}
}  // namespace detail

/// Precision stored by scalar T (double, float, half or bfloat16).
template <typename T>
inline constexpr Precision precision_of = detail::precision_index<T>();

/// Run `f.template operator()<T>()` with T = scalar_t<p>, e.g.
/// `dispatch(p, [&]<typename T>() { ... })`: the generic body is
/// instantiated for every storage scalar and the call runs p's instance.
template <typename F>
decltype(auto) dispatch(Precision p, F&& f) {
  switch (p) {
    case Precision::FP64: break;
    case Precision::FP32: return f.template operator()<scalar_t<Precision::FP32>>();
    case Precision::FP16: return f.template operator()<scalar_t<Precision::FP16>>();
    case Precision::BF16: return f.template operator()<scalar_t<Precision::BF16>>();
  }
  return f.template operator()<scalar_t<Precision::FP64>>();
}

/// Unit roundoff u (round-to-nearest) for each format.
[[nodiscard]] constexpr double unit_roundoff(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return 1.1102230246251565e-16;  // 2^-53
    case Precision::FP32: return 5.9604644775390625e-08;  // 2^-24
    case Precision::FP16: return 4.8828125e-04;           // 2^-11
    case Precision::BF16: return 3.90625e-03;             // 2^-8
  }
  return 0.0;
}

/// Bytes per scalar element.
[[nodiscard]] constexpr std::size_t bytes_of(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return 8;
    case Precision::FP32: return 4;
    case Precision::FP16: return 2;
    case Precision::BF16: return 2;
  }
  return 0;
}

/// Largest finite representable magnitude (overflow guard for demotion).
[[nodiscard]] constexpr double overflow_threshold(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return 1.7976931348623157e+308;
    case Precision::FP32: return 3.4028234663852886e+38;
    case Precision::FP16: return 65504.0;
    case Precision::BF16: return 3.3895313892515355e+38;
  }
  return 0.0;
}

/// Half the smallest positive subnormal: the absolute rounding floor in the
/// gradual-underflow range (the term that disqualifies FP16 for tiny-norm
/// tiles and motivates BF16).
[[nodiscard]] constexpr double subnormal_floor(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return 0.0;  // never the binding term here
    case Precision::FP32: return 7.006492321624085e-46;   // 2^-150
    case Precision::FP16: return 2.9802322387695312e-08;  // 2^-25
    case Precision::BF16: return 4.591774807899561e-41;   // 2^-134
  }
  return 0.0;
}

[[nodiscard]] constexpr std::string_view precision_name(Precision p) noexcept {
  switch (p) {
    case Precision::FP64: return "FP64";
    case Precision::FP32: return "FP32";
    case Precision::FP16: return "FP16";
    case Precision::BF16: return "BF16";
  }
  return "?";
}

/// True if `a` is at least as accurate as `b` (smaller unit roundoff).
[[nodiscard]] constexpr bool at_least(Precision a, Precision b) noexcept {
  return unit_roundoff(a) <= unit_roundoff(b);
}

/// The more accurate of two precisions (the "lead operand" rule in
/// Algorithm 1 casts the less accurate operand up to the lead precision).
[[nodiscard]] constexpr Precision higher(Precision a, Precision b) noexcept {
  return at_least(a, b) ? a : b;
}

[[nodiscard]] constexpr Precision lower(Precision a, Precision b) noexcept {
  return at_least(a, b) ? b : a;
}

}  // namespace gsx
