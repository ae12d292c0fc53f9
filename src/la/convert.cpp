#include "la/convert.hpp"

#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "obs/flops.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define GSX_F16C_DISPATCH 1
#include <immintrin.h>
#else
#define GSX_F16C_DISPATCH 0
#endif

namespace gsx::la {

namespace {

template <typename S, typename D>
void convert_impl(Span2D<const S> src, Span2D<D> dst) {
  GSX_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols(),
              "convert: shape mismatch");
  obs::add_conversion(precision_of<S>, precision_of<D>,
                      src.rows() * src.cols());
  for (std::size_t j = 0; j < src.cols(); ++j) {
    const S* s = &src(0, j);
    D* d = &dst(0, j);
    for (std::size_t i = 0; i < src.rows(); ++i) {
      if constexpr (std::is_same_v<D, half>) {
        d[i] = half(static_cast<float>(s[i]));
      } else if constexpr (std::is_same_v<D, bfloat16>) {
        d[i] = bfloat16(static_cast<float>(s[i]));
      } else if constexpr (std::is_same_v<S, half> || std::is_same_v<S, bfloat16>) {
        d[i] = static_cast<D>(static_cast<float>(s[i]));
      } else {
        d[i] = static_cast<D>(s[i]);
      }
    }
  }
}

}  // namespace

void convert(Span2D<const double> src, Span2D<float> dst) { convert_impl(src, dst); }
void convert(Span2D<const double> src, Span2D<half> dst) { convert_impl(src, dst); }
void convert(Span2D<const float> src, Span2D<double> dst) { convert_impl(src, dst); }
void convert(Span2D<const float> src, Span2D<half> dst) { convert_impl(src, dst); }
void convert(Span2D<const half> src, Span2D<double> dst) { convert_impl(src, dst); }
void convert(Span2D<const half> src, Span2D<float> dst) { convert_impl(src, dst); }
void convert(Span2D<const double> src, Span2D<bfloat16> dst) { convert_impl(src, dst); }
void convert(Span2D<const float> src, Span2D<bfloat16> dst) { convert_impl(src, dst); }
void convert(Span2D<const bfloat16> src, Span2D<double> dst) { convert_impl(src, dst); }
void convert(Span2D<const bfloat16> src, Span2D<float> dst) { convert_impl(src, dst); }
void convert(Span2D<const half> src, Span2D<bfloat16> dst) { convert_impl(src, dst); }
void convert(Span2D<const bfloat16> src, Span2D<half> dst) { convert_impl(src, dst); }

namespace detail {

namespace {

#if GSX_F16C_DISPATCH

__attribute__((target("f16c,avx"))) void widen_col_f16c(const half* s, float* d,
                                                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i h;
    std::memcpy(&h, s + i, sizeof(h));
    _mm256_storeu_ps(d + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) d[i] = static_cast<float>(s[i]);
}

__attribute__((target("f16c,avx"))) void narrow_col_f16c(const float* s, half* d,
                                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(s + i),
                                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i), h);
  }
  for (; i < n; ++i) d[i] = half(s[i]);
}

bool f16c_available() {
  static const bool ok =
      __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx");
  return ok;
}

#endif  // GSX_F16C_DISPATCH

void widen_col(const half* s, float* d, std::size_t n) {
#if GSX_F16C_DISPATCH
  if (f16c_available()) {
    widen_col_f16c(s, d, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<float>(s[i]);
}

void narrow_col(const float* s, half* d, std::size_t n) {
#if GSX_F16C_DISPATCH
  if (f16c_available()) {
    narrow_col_f16c(s, d, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) d[i] = half(s[i]);
}

void widen_col(const bfloat16* s, float* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bits = static_cast<std::uint32_t>(s[i].bits()) << 16;
    std::memcpy(d + i, &bits, sizeof(float));
  }
}

// Branchless replica of bfloat16(float) — RNE on the dropped 16 bits, NaNs
// quieted — phrased as selects so the vectorizer takes it.
void narrow_col(const float* s, bfloat16* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, s + i, sizeof(bits));
    const std::uint32_t lsb = (bits >> 16) & 1u;
    const std::uint16_t rne = static_cast<std::uint16_t>((bits + 0x7fffu + lsb) >> 16);
    const std::uint16_t qnan = static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
    const bool is_nan =
        (bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu) != 0;
    d[i] = bfloat16::from_bits(is_nan ? qnan : rne);
  }
}

template <typename S, typename D>
void fast_impl(Span2D<const S> src, Span2D<D> dst) {
  GSX_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols(),
              "convert: shape mismatch");
  for (std::size_t j = 0; j < src.cols(); ++j)
    widen_col(&src(0, j), &dst(0, j), src.rows());
}

template <typename S, typename D>
void fast_narrow_impl(Span2D<const S> src, Span2D<D> dst) {
  GSX_REQUIRE(src.rows() == dst.rows() && src.cols() == dst.cols(),
              "convert: shape mismatch");
  for (std::size_t j = 0; j < src.cols(); ++j)
    narrow_col(&src(0, j), &dst(0, j), src.rows());
}

}  // namespace

void widen_fast(Span2D<const half> src, Span2D<float> dst) { fast_impl(src, dst); }
void narrow_fast(Span2D<const float> src, Span2D<half> dst) {
  fast_narrow_impl(src, dst);
}
void widen_fast(Span2D<const bfloat16> src, Span2D<float> dst) { fast_impl(src, dst); }
void narrow_fast(Span2D<const float> src, Span2D<bfloat16> dst) {
  fast_narrow_impl(src, dst);
}

}  // namespace detail

}  // namespace gsx::la
