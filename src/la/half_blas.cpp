#include "la/half_blas.hpp"

#include <vector>

#include "common/error.hpp"
#include "la/convert.hpp"
#include "la/gemm_kernel.hpp"
#include "la/matrix.hpp"
#include "obs/flops.hpp"

namespace gsx::la {

namespace {

/// Shared SHGEMM/SBGEMM body: operands stay in 16-bit storage and are
/// widened to FP32 inside the packing pass of the micro-kernel path (no
/// full-matrix scratch copies); all arithmetic and accumulation is FP32.
template <typename T16>
void shgemm_impl(Trans ta, Trans tb, float alpha, Span2D<const T16> a,
                 Span2D<const T16> b, float beta, Span2D<float> c) {
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? a.cols() : a.rows();
  GSX_REQUIRE(((ta == Trans::NoTrans) ? a.rows() : a.cols()) == m, "shgemm: A shape");
  GSX_REQUIRE(((tb == Trans::NoTrans) ? b.rows() : b.cols()) == k, "shgemm: B inner");
  GSX_REQUIRE(((tb == Trans::NoTrans) ? b.cols() : b.rows()) == n, "shgemm: B outer");

  detail::scale_matrix(beta, c);
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;
  detail::gemm_packed(ta, tb, alpha, a, b, c);
}

/// Shared validation for a uniform-shape 16-bit batch; returns (m, n, k).
template <typename Item>
void check_batch_shapes(Trans ta, Trans tb, const Item* items, std::size_t count,
                        std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto& it = items[i];
    GSX_REQUIRE(it.c.rows() == m && it.c.cols() == n, "gemm16_batch: C shape mismatch");
    GSX_REQUIRE(((ta == Trans::NoTrans) ? it.a.rows() : it.a.cols()) == m &&
                    ((ta == Trans::NoTrans) ? it.a.cols() : it.a.rows()) == k,
                "gemm16_batch: A shape mismatch");
    GSX_REQUIRE(((tb == Trans::NoTrans) ? it.b.rows() : it.b.cols()) == k &&
                    ((tb == Trans::NoTrans) ? it.b.cols() : it.b.rows()) == n,
                "gemm16_batch: B shape mismatch");
  }
}

/// Batched SHGEMM/SBGEMM body: like shgemm_impl, the packed path runs
/// unconditionally (there is no reference fallback for 16-bit storage).
template <typename T16>
void shgemm_batch_impl(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<T16, float>* items, std::size_t count,
                       float beta) {
  if (count == 0) return;
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? items[0].a.cols() : items[0].a.rows();
  check_batch_shapes(ta, tb, items, count, m, n, k);
  for (std::size_t i = 0; i < count; ++i) detail::scale_matrix(beta, items[i].c);
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;
  obs::record_batch(obs::KernelOp::Gemm, precision_of<T16>, count);
  detail::gemm_batch_packed(ta, tb, alpha, items, count);
}

/// Batched HGEMM/BGEMM body: one FP32 scratch panel for the whole batch
/// (item i occupies columns [i*n, (i+1)*n)), vectorized widen/narrow of C,
/// one batched packed sweep between them.
template <typename T16>
void gemm16_batch_impl(Trans ta, Trans tb, float alpha,
                       const GemmBatchItem<T16>* items, std::size_t count,
                       float beta) {
  if (count == 0) return;
  const std::size_t m = items[0].c.rows();
  const std::size_t n = items[0].c.cols();
  const std::size_t k = (ta == Trans::NoTrans) ? items[0].a.cols() : items[0].a.rows();
  check_batch_shapes(ta, tb, items, count, m, n, k);
  if (m == 0 || n == 0) return;

  constexpr Precision p16 = precision_of<T16>;
  obs::record_batch(obs::KernelOp::Gemm, p16, count);
  obs::add_conversion(p16, Precision::FP32, m * n * count);

  Matrix<float> cf(m, n * count);
  std::vector<GemmBatchItem<T16, float>> g(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Span2D<float> ci = cf.view().sub(0, i * n, m, n);
    detail::widen_fast(
        Span2D<const T16>(items[i].c.data(), m, n, items[i].c.ld()), ci);
    detail::scale_matrix(beta, ci);
    g[i] = {items[i].a, items[i].b, ci};
  }
  if (alpha != 0.0f && k != 0) detail::gemm_batch_packed(ta, tb, alpha, g.data(), count);
  obs::add_conversion(Precision::FP32, p16, m * n * count);
  for (std::size_t i = 0; i < count; ++i)
    detail::narrow_fast(cf.cview().sub(0, i * n, m, n), items[i].c);
}

}  // namespace

void shgemm(Trans ta, Trans tb, float alpha, Span2D<const half> a, Span2D<const half> b,
            float beta, Span2D<float> c) {
  shgemm_impl(ta, tb, alpha, a, b, beta, c);
}

void hgemm(Trans ta, Trans tb, float alpha, Span2D<const half> a, Span2D<const half> b,
           float beta, Span2D<half> c) {
  Matrix<float> cf(c.rows(), c.cols());
  convert(Span2D<const half>(c.data(), c.rows(), c.cols(), c.ld()), cf.view());
  shgemm_impl(ta, tb, alpha, a, b, beta, cf.view());
  convert(cf.cview(), c);
}

void sbgemm(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
            Span2D<const bfloat16> b, float beta, Span2D<float> c) {
  shgemm_impl(ta, tb, alpha, a, b, beta, c);
}

void bgemm(Trans ta, Trans tb, float alpha, Span2D<const bfloat16> a,
           Span2D<const bfloat16> b, float beta, Span2D<bfloat16> c) {
  Matrix<float> cf(c.rows(), c.cols());
  convert(Span2D<const bfloat16>(c.data(), c.rows(), c.cols(), c.ld()), cf.view());
  shgemm_impl(ta, tb, alpha, a, b, beta, cf.view());
  convert(cf.cview(), c);
}

void shgemm_batch(Trans ta, Trans tb, float alpha,
                  const GemmBatchItem<half, float>* items, std::size_t count,
                  float beta) {
  shgemm_batch_impl(ta, tb, alpha, items, count, beta);
}

void hgemm_batch(Trans ta, Trans tb, float alpha, const GemmBatchItem<half>* items,
                 std::size_t count, float beta) {
  gemm16_batch_impl(ta, tb, alpha, items, count, beta);
}

void bgemm_batch(Trans ta, Trans tb, float alpha,
                 const GemmBatchItem<bfloat16>* items, std::size_t count, float beta) {
  gemm16_batch_impl(ta, tb, alpha, items, count, beta);
}

}  // namespace gsx::la
