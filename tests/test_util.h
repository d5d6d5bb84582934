// Shared helpers for the test suites: deterministic random rectangle
// generation, tree construction, and result-set canonicalization.

#ifndef RSJ_TESTS_TEST_UTIL_H_
#define RSJ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "datagen/rng.h"
#include "exec/result_sink.h"
#include "geom/rect.h"

namespace rsj {
namespace testutil {

// Uniformly placed rectangles with mean extent `extent` inside [0,1]^2.
inline std::vector<Rect> RandomRects(size_t count, uint64_t seed,
                                     double extent = 0.05) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double x = rng.Uniform(0.0, 1.0 - extent);
    const double y = rng.Uniform(0.0, 1.0 - extent);
    const double w = rng.Uniform(0.0, extent);
    const double h = rng.Uniform(0.0, extent);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + h)});
  }
  return rects;
}

// Clustered rectangles (Gaussian blobs) — closer to the paper's maps.
inline std::vector<Rect> ClusteredRects(size_t count, uint64_t seed,
                                        int clusters = 8,
                                        double extent = 0.01) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (int c = 0; c < clusters; ++c) {
    centers.push_back(Point{static_cast<Coord>(rng.Uniform(0.1, 0.9)),
                            static_cast<Coord>(rng.Uniform(0.1, 0.9))});
  }
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const Point& c = centers[rng.UniformInt(centers.size())];
    const double x = c.x + rng.Gaussian(0.0, 0.06);
    const double y = c.y + rng.Gaussian(0.0, 0.06);
    const double w = rng.Uniform(0.0, extent);
    const double h = rng.Uniform(0.0, extent);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + h)});
  }
  return rects;
}

// Skewed rectangles: 80% of them inside the [0, 0.25]^2 corner, the rest
// uniform over [0,1]^2, with extents up to 0.01.
inline std::vector<Rect> SkewedRects(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double span = rng.Bernoulli(0.8) ? 0.25 : 1.0;
    const double x = rng.Uniform(0.0, span - 0.01);
    const double y = rng.Uniform(0.0, span - 0.01);
    const double w = rng.Uniform(0.0, 0.01);
    rects.push_back(Rect{static_cast<Coord>(x), static_cast<Coord>(y),
                         static_cast<Coord>(x + w),
                         static_cast<Coord>(y + w)});
  }
  return rects;
}

// Sorts a pair list so result sets can be compared as sets.
inline std::vector<std::pair<uint32_t, uint32_t>> Canonical(
    std::vector<std::pair<uint32_t, uint32_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// Flattens a chunked result (the engines' native output representation)
// and sorts it, so chunked and flat results compare as sets.
inline std::vector<std::pair<uint32_t, uint32_t>> Canonical(
    const ResultChunkList& chunks) {
  return Canonical(chunks.CopyPairs());
}

}  // namespace testutil
}  // namespace rsj

#endif  // RSJ_TESTS_TEST_UTIL_H_
