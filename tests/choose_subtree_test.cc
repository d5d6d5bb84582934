// Differential test of the R* ChooseSubtree criterion: the pruned chooser
// of the insertion path against a reference copy of the plain loop it
// replaced (every candidate scored against every sibling, no shortcuts).
// Random nodes are drawn with many exact ties: coordinates on coarse grids,
// duplicate rectangles, zero-area rectangles, and rectangles that touch
// only at an edge or a corner. Any disagreement fails with the seed of the
// trial that produced it.

#include "rtree/choose_subtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "datagen/rng.h"

namespace rsj {
namespace {

struct ReferenceChoice {
  size_t index = 0;
  bool tied = false;  // another candidate had the winner's exact triple
};

// The plain R* level-1 loop: least overlap enlargement over the
// `limit` least-area-enlargement candidates, ties by area enlargement,
// then area, then candidate order.
ReferenceChoice ReferenceLeastOverlapEnlargement(
    const std::vector<Entry>& entries, const Rect& rect, uint32_t limit) {
  const size_t n = entries.size();
  std::vector<double> enlargement_of(n);
  for (size_t i = 0; i < n; ++i) {
    enlargement_of[i] = entries[i].rect.Enlargement(rect);
  }
  std::vector<size_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), size_t{0});
  if (limit > 0 && n > limit) {
    std::partial_sort(candidates.begin(),
                      candidates.begin() + static_cast<ptrdiff_t>(limit),
                      candidates.end(), [&](size_t a, size_t b) {
                        return enlargement_of[a] < enlargement_of[b];
                      });
    candidates.resize(limit);
  }
  ReferenceChoice choice{candidates[0], false};
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const size_t c : candidates) {
    const Rect& rc = entries[c].rect;
    const Rect grown = rc.Union(rect);
    double overlap_delta = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (j == c) continue;
      const Rect& rj = entries[j].rect;
      overlap_delta += grown.OverlapArea(rj) - rc.OverlapArea(rj);
    }
    const double enlargement = enlargement_of[c];
    const double area = rc.Area();
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)))) {
      choice = ReferenceChoice{c, false};
      best_overlap_delta = overlap_delta;
      best_enlargement = enlargement;
      best_area = area;
    } else if (overlap_delta == best_overlap_delta &&
               enlargement == best_enlargement && area == best_area) {
      choice.tied = true;
    }
  }
  return choice;
}

size_t ReferenceLeastAreaEnlargement(const std::vector<Entry>& entries,
                                     const Rect& rect) {
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    const double enlargement = entries[i].rect.Enlargement(rect);
    const double area = entries[i].rect.Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best = i;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

// Draws coordinates on a grid of `cells` steps over [0, 1] (cells == 0:
// continuous), so that small grids produce exact ties and shared edges.
class TieProneRects {
 public:
  TieProneRects(Rng* rng, uint32_t cells) : rng_(rng), cells_(cells) {}

  Coord Coordinate() {
    if (cells_ == 0) return static_cast<Coord>(rng_->Uniform());
    return static_cast<Coord>(
        static_cast<double>(rng_->UniformInt(cells_ + 1)) / cells_);
  }

  Rect Next() {
    Coord x0 = Coordinate(), x1 = Coordinate();
    Coord y0 = Coordinate(), y1 = Coordinate();
    const uint64_t shape = rng_->UniformInt(8);
    if (shape == 0) x1 = x0;               // vertical segment
    if (shape == 1) y1 = y0;               // horizontal segment
    if (shape == 2) x1 = x0, y1 = y0;      // point
    return Rect{std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                std::max(y0, y1)};
  }

 private:
  Rng* rng_;
  uint32_t cells_;
};

struct Trial {
  std::vector<Entry> entries;
  Rect rect;
};

Trial MakeTrial(uint64_t seed, size_t n) {
  Rng rng(seed);
  static constexpr uint32_t kGrids[] = {0, 1, 2, 3, 4, 8, 16, 64};
  TieProneRects gen(&rng, kGrids[rng.UniformInt(std::size(kGrids))]);
  Trial t;
  t.entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Rect r;
    const uint64_t kind = rng.UniformInt(10);
    if (kind == 0 && i > 0) {
      r = t.entries[rng.UniformInt(i)].rect;  // exact duplicate
    } else if (kind == 1 && i > 0) {
      // Shares an edge or a corner with an earlier rectangle.
      const Rect& o = t.entries[rng.UniformInt(i)].rect;
      const Rect d = gen.Next();
      const float w = d.xu - d.xl, h = d.yu - d.yl;
      r = rng.Bernoulli(0.5) ? Rect{o.xu, o.yl, o.xu + w, o.yl + h}
                             : Rect{o.xu, o.yu, o.xu + w, o.yu + h};
    } else {
      r = gen.Next();
    }
    t.entries.push_back(Entry{r, static_cast<uint32_t>(i)});
  }
  switch (rng.UniformInt(4)) {
    case 0:  // inside (or equal to) an entry: zero area enlargement
      t.rect = t.entries[rng.UniformInt(n)].rect;
      break;
    case 1: {  // a point, often on an edge or a corner of an entry
      const Rect& o = t.entries[rng.UniformInt(n)].rect;
      const Coord x = rng.Bernoulli(0.5) ? o.xl : o.xu;
      t.rect = Rect{x, o.yl, x, o.yl};
      break;
    }
    default:
      t.rect = gen.Next();
      break;
  }
  return t;
}

constexpr size_t kNodeSizes[] = {2, 31, 32, 33, 204};

TEST(ChooseSubtreeTest, OverlapChooserMatchesPlainLoop) {
  constexpr int kTrials = 2000;
  constexpr uint32_t kLimits[] = {32, 0, 1, 8};
  size_t tied_trials = 0;
  for (const size_t n : kNodeSizes) {
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 0xc5b7ULL * 1000003 + n * 100000 + trial;
      const Trial t = MakeTrial(seed, n);
      const uint32_t limit = kLimits[trial % std::size(kLimits)];
      const ReferenceChoice want =
          ReferenceLeastOverlapEnlargement(t.entries, t.rect, limit);
      tied_trials += want.tied ? 1 : 0;
      ASSERT_EQ(ChooseLeastOverlapEnlargement(t.entries, t.rect, limit),
                want.index)
          << "seed " << seed << " n " << n << " limit " << limit
          << " rect " << t.rect.ToString();
    }
  }
  // The generator must actually produce full ties, or the tie-break half
  // of the contract goes untested.
  EXPECT_GT(tied_trials, size_t{100});
}

TEST(ChooseSubtreeTest, AreaChooserMatchesPlainLoop) {
  constexpr int kTrials = 2000;
  for (const size_t n : kNodeSizes) {
    for (int trial = 0; trial < kTrials; ++trial) {
      const uint64_t seed = 0xa7eaULL * 1000003 + n * 100000 + trial;
      const Trial t = MakeTrial(seed, n);
      ASSERT_EQ(ChooseLeastAreaEnlargement(t.entries, t.rect),
                ReferenceLeastAreaEnlargement(t.entries, t.rect))
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(ChooseSubtreeTest, ManyContainingEntriesFallBackToCandidateOrder) {
  // 204 identical entries all contain the rectangle: every candidate ties
  // on (0, 0, area), more of them than the candidate limit, so the answer
  // is decided by the candidate order alone.
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 204; ++i) {
    entries.push_back(Entry{Rect{0.25f, 0.25f, 0.75f, 0.75f}, i});
  }
  const Rect rect{0.5f, 0.5f, 0.5f, 0.5f};
  for (const uint32_t limit : {0u, 1u, 32u, 203u, 204u}) {
    EXPECT_EQ(ChooseLeastOverlapEnlargement(entries, rect, limit),
              ReferenceLeastOverlapEnlargement(entries, rect, limit).index)
        << "limit " << limit;
  }
}

TEST(ChooseSubtreeTest, ZeroAreaEnlargementCanStillAddOverlap) {
  // Covering the point with `a` widens it by 1e-30, which the double area
  // (1 - 1e-30) * 1 rounds away: a has zero area enlargement without
  // containing the point, and its growth overlaps the sliver `b`. The
  // containing entry `c` (no overlap growth, larger area) must win.
  constexpr float kTiny = 1e-30f;
  const std::vector<Entry> entries = {
      Entry{Rect{kTiny, 0.0f, 1.0f, 1.0f}, 0},    // a
      Entry{Rect{0.0f, 0.6f, kTiny, 1.0f}, 1},    // b
      Entry{Rect{-1.0f, -1.0f, 2.0f, 2.0f}, 2}};  // c
  const Rect point{0.0f, 0.5f, 0.0f, 0.5f};
  ASSERT_EQ(entries[0].rect.Enlargement(point), 0.0);
  ASSERT_EQ(ReferenceLeastOverlapEnlargement(entries, point, 32).index, 2u);
  EXPECT_EQ(ChooseLeastOverlapEnlargement(entries, point, 32), 2u);
}

}  // namespace
}  // namespace rsj
