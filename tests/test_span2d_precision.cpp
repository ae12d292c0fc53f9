// Span2D views and precision trait invariants.
#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "common/precision.hpp"
#include "common/span2d.hpp"
#include "la/matrix.hpp"

namespace gsx {
namespace {

TEST(Span2D, ColumnMajorIndexing) {
  la::Matrix<double> m(3, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 3; ++i) m(i, j) = static_cast<double>(10 * i + j);
  const Span2D<const double> v = m.cview();
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 4u);
  EXPECT_EQ(v.ld(), 3u);
  EXPECT_DOUBLE_EQ(v(2, 3), 23.0);
  // Column-major contiguity: &v(1, 0) == data + 1.
  EXPECT_EQ(&v(1, 0), v.data() + 1);
  EXPECT_EQ(&v(0, 1), v.data() + 3);
}

TEST(Span2D, SubViewSharesStorage) {
  la::Matrix<double> m(6, 6);
  auto v = m.view();
  auto sub = v.sub(2, 3, 3, 2);
  EXPECT_EQ(sub.rows(), 3u);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_EQ(sub.ld(), 6u) << "sub-view keeps the parent leading dimension";
  sub(0, 0) = 42.0;
  EXPECT_DOUBLE_EQ(m(2, 3), 42.0);
}

TEST(Span2D, EmptyAndDefault) {
  const Span2D<double> d;
  EXPECT_TRUE(d.empty());
  la::Matrix<double> m(3, 0);
  EXPECT_TRUE(m.view().empty());
}

TEST(Span2D, ConstConversion) {
  la::Matrix<float> m(2, 2);
  Span2D<float> mut = m.view();
  Span2D<const float> c = mut;  // implicit
  EXPECT_EQ(c.data(), mut.data());
}

TEST(MatrixContainer, IdentityAndTranspose) {
  const auto id = la::Matrix<double>::identity(4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);

  la::Matrix<double> m(2, 3);
  m(0, 0) = 1;
  m(1, 2) = 7;
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t(2, 1), 7.0);
}

TEST(MatrixContainer, ResizeZeroes) {
  la::Matrix<double> m(2, 2, 5.0);
  m.resize(3, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
}

TEST(PrecisionTraits, RoundoffOrdering) {
  EXPECT_LT(unit_roundoff(Precision::FP64), unit_roundoff(Precision::FP32));
  EXPECT_LT(unit_roundoff(Precision::FP32), unit_roundoff(Precision::FP16));
  EXPECT_LT(unit_roundoff(Precision::FP16), unit_roundoff(Precision::BF16));
}

TEST(PrecisionTraits, BytesAndNames) {
  EXPECT_EQ(bytes_of(Precision::FP64), 8u);
  EXPECT_EQ(bytes_of(Precision::FP32), 4u);
  EXPECT_EQ(bytes_of(Precision::FP16), 2u);
  EXPECT_EQ(bytes_of(Precision::BF16), 2u);
  EXPECT_EQ(precision_name(Precision::FP64), "FP64");
  EXPECT_EQ(precision_name(Precision::BF16), "BF16");
}

TEST(PrecisionTraits, DispatchRunsTheStorageScalar) {
  for (const Precision p :
       {Precision::FP64, Precision::FP32, Precision::FP16, Precision::BF16}) {
    const auto [tag, size] = dispatch(p, []<typename T>() {
      return std::pair{precision_of<T>, sizeof(T)};
    });
    EXPECT_EQ(tag, p) << precision_name(p);
    EXPECT_EQ(size, bytes_of(p)) << precision_name(p);
  }
  static_assert(std::is_same_v<scalar_t<Precision::FP16>, half>);
  static_assert(precision_of<scalar_t<Precision::BF16>> == Precision::BF16);
}

TEST(PrecisionTraits, HigherLowerByAccuracy) {
  EXPECT_EQ(higher(Precision::FP32, Precision::FP16), Precision::FP32);
  EXPECT_EQ(higher(Precision::FP16, Precision::BF16), Precision::FP16)
      << "FP16 has the smaller roundoff despite equal storage";
  EXPECT_EQ(lower(Precision::FP64, Precision::BF16), Precision::BF16);
  EXPECT_TRUE(at_least(Precision::FP64, Precision::BF16));
  EXPECT_FALSE(at_least(Precision::BF16, Precision::FP16));
}

TEST(PrecisionTraits, OverflowThresholds) {
  EXPECT_GT(overflow_threshold(Precision::BF16), 1e38);
  EXPECT_LT(overflow_threshold(Precision::FP16), 1e5);
  EXPECT_GT(overflow_threshold(Precision::FP64), overflow_threshold(Precision::FP32));
}

TEST(PrecisionTraits, SubnormalFloors) {
  // The term that motivates BF16 (see precision_policy): FP16's floor is
  // ~33 orders of magnitude above BF16's.
  EXPECT_GT(subnormal_floor(Precision::FP16), 1e-8);
  EXPECT_LT(subnormal_floor(Precision::BF16), 1e-40);
  EXPECT_EQ(subnormal_floor(Precision::FP64), 0.0);
}

}  // namespace
}  // namespace gsx
