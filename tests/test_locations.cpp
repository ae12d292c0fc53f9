// Location generators and Morton ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "geostat/locations.hpp"

namespace gsx::geostat {
namespace {

TEST(PerturbedGrid, ExactCountAndCoverage) {
  Rng rng(2);
  for (std::size_t n : {16u, 100u, 123u, 1000u}) {
    const auto locs = perturbed_grid_locations(n, rng);
    EXPECT_EQ(locs.size(), n);
    // Coverage: locations spread across the unit square (quadrant counts).
    std::size_t q[4] = {0, 0, 0, 0};
    for (const auto& l : locs) q[(l.x > 0.5 ? 1 : 0) + (l.y > 0.5 ? 2 : 0)]++;
    for (int k = 0; k < 4; ++k)
      EXPECT_GT(q[k], n / 10) << "quadrant " << k << " underpopulated at n=" << n;
  }
}

TEST(PerturbedGrid, LocationsAreDistinct) {
  Rng rng(3);
  auto locs = perturbed_grid_locations(400, rng);
  std::sort(locs.begin(), locs.end(), [](const Location& a, const Location& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  for (std::size_t i = 1; i < locs.size(); ++i) {
    const bool same = locs[i].x == locs[i - 1].x && locs[i].y == locs[i - 1].y;
    EXPECT_FALSE(same) << "duplicate location breaks SPD";
  }
}

TEST(ReplicateInTime, LayoutIsTimeMajor) {
  Rng rng(4);
  const auto spatial = perturbed_grid_locations(9, rng);
  const auto st = replicate_in_time(spatial, 3, 0.5);
  ASSERT_EQ(st.size(), 27u);
  for (std::size_t s = 0; s < 3; ++s)
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(st[s * 9 + i].x, spatial[i].x);
      EXPECT_EQ(st[s * 9 + i].t, 0.5 * static_cast<double>(s));
    }
}

TEST(MortonKey, OrdersQuadrantsCorrectly) {
  const Location lo{0, 0, 0}, hi{1, 1, 1};
  // Z-order: (low,low) < (high,low) < (low,high) < (high,high) for the top
  // split when x occupies the low interleave bit.
  const auto k00 = morton_key({0.1, 0.1, 0}, lo, hi, false);
  const auto k10 = morton_key({0.9, 0.1, 0}, lo, hi, false);
  const auto k01 = morton_key({0.1, 0.9, 0}, lo, hi, false);
  const auto k11 = morton_key({0.9, 0.9, 0}, lo, hi, false);
  EXPECT_LT(k00, k10);
  EXPECT_LT(k10, k01);
  EXPECT_LT(k01, k11);
}

TEST(MortonSort, NeighborsInOrderAreNearInSpace) {
  Rng rng(5);
  auto locs = perturbed_grid_locations(1024, rng);
  sort_morton(locs);
  // Mean consecutive distance after Morton sort must be far below the mean
  // random-pair distance (~0.52 in the unit square).
  double mean_step = 0.0;
  for (std::size_t i = 1; i < locs.size(); ++i)
    mean_step += std::hypot(locs[i].x - locs[i - 1].x, locs[i].y - locs[i - 1].y);
  mean_step /= static_cast<double>(locs.size() - 1);
  EXPECT_LT(mean_step, 0.1) << "Morton order must cluster spatial neighbours";
}

TEST(MortonSort, IsPermutation) {
  Rng rng(6);
  auto locs = perturbed_grid_locations(200, rng);
  auto orig = locs;
  sort_morton(locs);
  auto key = [](const Location& l) { return std::pair(l.x, l.y); };
  std::sort(orig.begin(), orig.end(),
            [&](const Location& a, const Location& b) { return key(a) < key(b); });
  auto sorted = locs;
  std::sort(sorted.begin(), sorted.end(),
            [&](const Location& a, const Location& b) { return key(a) < key(b); });
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(sorted[i].x, orig[i].x);
    EXPECT_EQ(sorted[i].y, orig[i].y);
  }
}

TEST(MortonSort, DeterministicAndIdempotent) {
  Rng rng(7);
  auto a = perturbed_grid_locations(128, rng);
  auto b = a;
  sort_morton(a);
  sort_morton(b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].x, b[i].x);
  auto c = a;
  sort_morton(c);  // idempotent
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].x, c[i].x);
}

TEST(MortonSort, SpaceTimeUsesTimeDimension) {
  Rng rng(8);
  const auto spatial = perturbed_grid_locations(64, rng);
  auto st = replicate_in_time(spatial, 8, 1.0);
  sort_morton(st, /*use_time=*/true);
  // 3-D Z-order interleaves time: consecutive entries stay close in time.
  double mean_dt = 0.0;
  for (std::size_t i = 1; i < st.size(); ++i) mean_dt += std::fabs(st[i].t - st[i - 1].t);
  mean_dt /= static_cast<double>(st.size() - 1);
  EXPECT_LT(mean_dt, 2.0);
}

TEST(MortonSort, HandlesDegenerateInputs) {
  std::vector<Location> empty;
  sort_morton(empty);
  std::vector<Location> one = {{0.5, 0.5, 0.0}};
  sort_morton(one);
  EXPECT_EQ(one.size(), 1u);
  // All-identical coordinates: quantization span is zero; must not crash.
  std::vector<Location> same(10, {0.3, 0.3, 0.0});
  sort_morton(same);
  EXPECT_EQ(same.size(), 10u);
}

}  // namespace
}  // namespace gsx::geostat
