// Tests for exact segment/polyline geometry (refinement-step kernel).

#include "geom/segment.h"

#include <cmath>
#include <cstdint>
#include <iostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/rng.h"

namespace rsj {
namespace {

TEST(OrientationTest, BasicCases) {
  EXPECT_EQ(Orientation(Point{0, 0}, Point{1, 0}, Point{0, 1}), 1);   // ccw
  EXPECT_EQ(Orientation(Point{0, 0}, Point{0, 1}, Point{1, 0}), -1);  // cw
  EXPECT_EQ(Orientation(Point{0, 0}, Point{1, 1}, Point{2, 2}), 0);   // col
}

TEST(PointOnSegmentTest, OnAndOff) {
  const Segment s{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(PointOnSegment(Point{1, 1}, s));
  EXPECT_TRUE(PointOnSegment(Point{0, 0}, s));   // endpoint
  EXPECT_TRUE(PointOnSegment(Point{2, 2}, s));   // endpoint
  EXPECT_FALSE(PointOnSegment(Point{3, 3}, s));  // collinear but outside
  EXPECT_FALSE(PointOnSegment(Point{1, 0}, s));  // off the line
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 2}},
                                Segment{Point{0, 2}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, DisjointSegments) {
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                 Segment{Point{0, 1}, Point{1, 1}}));
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 1}},
                                 Segment{Point{2, 2.0001f}, Point{3, 3}}));
}

TEST(SegmentsIntersectTest, SharedEndpoint) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 1}},
                                Segment{Point{1, 1}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, TIntersection) {
  // Endpoint of one segment lies in the interior of the other.
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 0}},
                                Segment{Point{1, 0}, Point{1, 5}}));
}

TEST(SegmentsIntersectTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{2, 0}},
                                Segment{Point{1, 0}, Point{3, 0}}));
}

TEST(SegmentsIntersectTest, CollinearDisjoint) {
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                 Segment{Point{2, 0}, Point{3, 0}}));
}

TEST(SegmentsIntersectTest, CollinearTouchingAtPoint) {
  EXPECT_TRUE(SegmentsIntersect(Segment{Point{0, 0}, Point{1, 0}},
                                Segment{Point{1, 0}, Point{2, 0}}));
}

TEST(SegmentsIntersectTest, ZeroLengthSegments) {
  const Segment point{Point{1, 1}, Point{1, 1}};
  EXPECT_TRUE(SegmentsIntersect(point, point));
  EXPECT_TRUE(
      SegmentsIntersect(point, Segment{Point{0, 0}, Point{2, 2}}));
  EXPECT_FALSE(
      SegmentsIntersect(point, Segment{Point{0, 0}, Point{0, 5}}));
}

TEST(SegmentsIntersectTest, MbrOverlapButNoIntersection) {
  // Bounding boxes overlap, segments do not — the cheap reject must not
  // produce a false positive.
  EXPECT_FALSE(
      SegmentsIntersect(Segment{Point{0, 0}, Point{3, 3}},
                        Segment{Point{2.5f, 0.0f}, Point{3.0f, 0.4f}}));
  EXPECT_FALSE(SegmentsIntersect(Segment{Point{0, 0}, Point{4, 4}},
                                 Segment{Point{3, 0}, Point{4, 1}}));
}

TEST(PolylinesIntersectTest, CrossingChains) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 0}, Point{1, 1}};
  const std::vector<Point> b{Point{0.5f, -1.0f}, Point{0.5f, 3.0f}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
}

TEST(PolylinesIntersectTest, DisjointChains) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 0}};
  const std::vector<Point> b{Point{0, 1}, Point{1, 1}, Point{2, 2}};
  EXPECT_FALSE(PolylinesIntersect(a, b));
}

TEST(PolylinesIntersectTest, SingleVertexChains) {
  const std::vector<Point> point{Point{1, 1}};
  const std::vector<Point> through{Point{0, 0}, Point{2, 2}};
  EXPECT_TRUE(PolylinesIntersect(point, through));
  EXPECT_TRUE(PolylinesIntersect(through, point));
  const std::vector<Point> away{Point{5, 5}, Point{6, 6}};
  EXPECT_FALSE(PolylinesIntersect(point, away));
}

TEST(PolylinesIntersectTest, CollinearOverlappingChains) {
  // Chains sharing a collinear stretch intersect (infinitely many common
  // points), including the vertical orientation.
  const std::vector<Point> a{Point{0, 0}, Point{2, 2}};
  const std::vector<Point> b{Point{1, 1}, Point{3, 3}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
  const std::vector<Point> va{Point{5, 0}, Point{5, 2}};
  const std::vector<Point> vb{Point{5, 1}, Point{5, 4}};
  EXPECT_TRUE(PolylinesIntersect(va, vb));
  // Collinear but disjoint stays disjoint.
  const std::vector<Point> c{Point{2.5f, 2.5f}, Point{4, 4}};
  EXPECT_FALSE(PolylinesIntersect(a, c));
}

TEST(PolylinesIntersectTest, ChainsSharingAnEndpoint) {
  const std::vector<Point> a{Point{0, 0}, Point{1, 1}};
  const std::vector<Point> b{Point{1, 1}, Point{2, 0}};
  EXPECT_TRUE(PolylinesIntersect(a, b));
  // An interior vertex of one chain on an endpoint of the other.
  const std::vector<Point> c{Point{1, 1}, Point{1, 2}, Point{2, 2}};
  EXPECT_TRUE(PolylinesIntersect(a, c));
}

TEST(PolylinesIntersectTest, ZeroLengthSegmentInChain) {
  // A repeated vertex forms a zero-length segment; the chain still
  // intersects exactly like its deduplicated form.
  const std::vector<Point> a{Point{0, 0}, Point{1, 1}, Point{1, 1},
                             Point{2, 0}};
  const std::vector<Point> through{Point{1, 0}, Point{1, 2}};
  EXPECT_TRUE(PolylinesIntersect(a, through));
  const std::vector<Point> away{Point{5, 5}, Point{6, 5}};
  EXPECT_FALSE(PolylinesIntersect(a, away));
  // Two single-vertex chains: intersect only when coincident.
  const std::vector<Point> p{Point{1, 1}};
  const std::vector<Point> q{Point{1, 1}};
  const std::vector<Point> r{Point{1, 1.0001f}};
  EXPECT_TRUE(PolylinesIntersect(p, q));
  EXPECT_FALSE(PolylinesIntersect(p, r));
}

TEST(PolylinesIntersectTest, EmptyChains) {
  const std::vector<Point> empty;
  const std::vector<Point> chain{Point{0, 0}, Point{1, 1}};
  EXPECT_FALSE(PolylinesIntersect(empty, chain));
  EXPECT_FALSE(PolylinesIntersect(chain, empty));
}

// ---------------------------------------------------------------------------
// Differential test: PolylinesIntersect against a brute-force all-pairs
// SegmentsIntersect oracle.

// Every segment pair, no early exit.
bool AllPairsIntersect(std::span<const Point> a, std::span<const Point> b) {
  if (a.empty() || b.empty()) return false;
  const auto segment = [](std::span<const Point> c, size_t i) {
    return Segment{c[i], c[c.size() == 1 ? i : i + 1]};
  };
  const size_t na = a.size() == 1 ? 1 : a.size() - 1;
  const size_t nb = b.size() == 1 ? 1 : b.size() - 1;
  bool any = false;
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      any = SegmentsIntersect(segment(a, i), segment(b, j)) || any;
    }
  }
  return any;
}

// A random walk of 1–24 vertices (1 = a single point). On the grid the
// steps are axis-aligned integers, so chains overlap collinearly and meet
// in shared vertices; off the grid they are free float steps. Some steps
// repeat the previous vertex (a zero-length segment).
std::vector<Point> RandomChain(Rng* rng, bool grid) {
  const size_t n = 1 + rng->UniformInt(24);
  const auto coord = [&](double lo, double hi) {
    const double v = rng->Uniform(lo, hi);
    return static_cast<Coord>(grid ? std::floor(v) : v);
  };
  std::vector<Point> chain{Point{coord(0, 16), coord(0, 16)}};
  while (chain.size() < n) {
    Point next = chain.back();
    if (!rng->Bernoulli(0.15)) {
      if (grid) {
        const Coord step = coord(-3, 4);
        (rng->Bernoulli(0.5) ? next.x : next.y) += step;
      } else {
        next.x += coord(-2.5, 2.5);
        next.y += coord(-2.5, 2.5);
      }
    }
    chain.push_back(next);
  }
  return chain;
}

TEST(PolylinesIntersectTest, MatchesAllPairsOracle) {
  constexpr uint64_t kSeed = 20261017;
  constexpr int kTrials = 6000;
  std::cout << "PolylinesIntersect differential seed=" << kSeed << "\n";
  // Both outcomes must be common, so a skewed generator cannot make the
  // comparison vacuous.
  int hits = 0, misses = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << kSeed << " trial=" << trial);
    Rng rng(kSeed + static_cast<uint64_t>(trial));
    const bool grid = rng.Bernoulli(0.6);
    std::vector<Point> a = RandomChain(&rng, grid);
    std::vector<Point> b = RandomChain(&rng, grid);
    switch (rng.UniformInt(3)) {
      case 0: {  // b starts or ends on a vertex of a
        const Point shared = a[rng.UniformInt(a.size())];
        (rng.Bernoulli(0.5) ? b.front() : b.back()) = shared;
        break;
      }
      case 1: {  // b runs collinearly along (part of) a segment of a
        if (a.size() < 2 || b.size() < 2) break;
        const size_t i = rng.UniformInt(a.size() - 1);
        const Point p = a[i], q = a[i + 1];
        const auto along = [&](double t) {
          return Point{static_cast<Coord>(p.x + t * (q.x - p.x)),
                       static_cast<Coord>(p.y + t * (q.y - p.y))};
        };
        const size_t j = rng.UniformInt(b.size() - 1);
        b[j] = along(0.5 * static_cast<double>(rng.UniformInt(5)) - 0.5);
        b[j + 1] = along(0.5 * static_cast<double>(rng.UniformInt(5)) - 0.5);
        break;
      }
      default:
        break;
    }
    const bool expected = AllPairsIntersect(a, b);
    ASSERT_EQ(AllPairsIntersect(b, a), expected);
    ASSERT_EQ(PolylinesIntersect(a, b), expected);
    ASSERT_EQ(PolylinesIntersect(b, a), expected);
    (expected ? hits : misses) += 1;
  }
  EXPECT_GT(hits, 1000);
  EXPECT_GT(misses, 1000);
}

TEST(PolylineMbrTest, CoversAllVertices) {
  const std::vector<Point> chain{Point{1, 5}, Point{-2, 3}, Point{4, -1}};
  const Rect mbr = PolylineMbr(chain);
  EXPECT_EQ(mbr, (Rect{-2, -1, 4, 5}));
  for (const Point& p : chain) EXPECT_TRUE(mbr.Contains(p));
}

TEST(PolylineMbrTest, SingleVertexIsPoint) {
  const std::vector<Point> chain{Point{2, 3}};
  EXPECT_EQ(PolylineMbr(chain), (Rect{2, 3, 2, 3}));
}

}  // namespace
}  // namespace rsj
