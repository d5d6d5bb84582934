#include "rtree/choose_subtree.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace rsj {

namespace {

// True when the open interiors of `a` and `b` meet. When it is false,
// OverlapArea(a, b) is exactly 0.0, and so is OverlapArea(c, b) for every
// c inside a: one of min(upper) - max(lower) is <= 0 in exact arithmetic,
// and the double subtraction of two floats keeps that sign.
bool InteriorsOverlap(const Rect& a, const Rect& b) {
  return b.xl < a.xu && a.xl < b.xu && b.yl < a.yu && a.yl < b.yu;
}

// The overlap enlargement of entries[c] for covering `rect`: the sum, in
// index order, of grown.OverlapArea(rj) - rc.OverlapArea(rj) over all
// siblings j, where grown = rc ∪ rect. Terms that are exactly +0.0 are
// skipped (see the exactness notes below), and the scan stops early,
// returning the partial sum, once `stop(partial sum)` holds.
template <typename Stop>
double OverlapEnlargement(std::span<const Entry> entries, size_t c,
                          const Rect& rect, Stop stop) {
  const Rect& rc = entries[c].rect;
  const Rect grown = rc.Union(rect);
  double sum = 0.0;
  if (grown == rc) return sum;
  for (size_t j = 0; j < entries.size(); ++j) {
    const Rect& rj = entries[j].rect;
    if (j == c || !InteriorsOverlap(grown, rj)) continue;
    sum += grown.OverlapArea(rj) - rc.OverlapArea(rj);
    if (stop(sum)) break;
  }
  return sum;
}

}  // namespace

// ChooseLeastOverlapEnlargement returns exactly the index of the plain
// loop: score every candidate c by summing, over all siblings j != c in
// index order, grown.OverlapArea(rj) - rc.OverlapArea(rj) with grown =
// rc ∪ rect; keep the first candidate with the least (overlap, area
// enlargement, area) triple. These facts make its shortcuts exact:
//
//  * Every term is >= 0. rc lies inside grown, so each overlap width and
//    height with grown is at least the one with rc in exact arithmetic,
//    and rounding (double subtraction of floats, then the product) is
//    monotone for finite coordinates. A term that is exactly 0 is +0.0
//    (x - x rounds to +0.0) and the sum starts at +0.0, so adding such a
//    term never changes the sum. Area enlargements are >= 0 likewise.
//  * Siblings whose interiors miss grown's contribute 0.0 - 0.0 (see
//    InteriorsOverlap) and are skipped; when rect already lies in rc,
//    grown equals rc and every term is x - x, so the sum is 0.0 unscanned.
//  * Partial sums never decrease (s + t >= s for t >= 0 under monotone
//    rounding), so once a candidate's partial sum exceeds the best sum
//    (or reaches it, when the candidate would lose the tie-break anyway)
//    its final sum cannot win and its scan stops.
//  * Entries with zero area enlargement hold the least key, so when at
//    most `candidate_limit` of them exist they are all candidates. If any
//    of them also adds no overlap, its triple (0, 0, area) beats every
//    candidate outside that group, and the winner is the group's
//    least-area member. When that member is unique, candidate order
//    cannot matter and it is returned without sorting; a tie falls
//    through to the ordered scan.
//
// Skipped terms are +0.0 and the others are added in the same order, so
// every completed sum is bit-identical to the plain loop's. Candidate
// order (index order, or partial_sort's order when limited) is unchanged,
// since the final tie-break depends on it.
size_t ChooseLeastOverlapEnlargement(std::span<const Entry> entries,
                                     const Rect& rect,
                                     uint32_t candidate_limit) {
  const size_t n = entries.size();
  RSJ_CHECK(n > 0);
  // Each candidate carries its area enlargement, computed once. Sorting
  // (key, index) records performs the same comparisons and moves as
  // sorting indices by an indirect key, so it yields the same order.
  struct Candidate {
    double enlargement;
    size_t index;
  };
  std::vector<Candidate> candidates(n);
  size_t zero_enlargements = 0;
  size_t zero_cost = n;  // least-area entry adding no area and no overlap
  double zero_cost_area = std::numeric_limits<double>::infinity();
  bool zero_cost_tied = false;
  for (size_t i = 0; i < n; ++i) {
    const double enlargement = entries[i].rect.Enlargement(rect);
    candidates[i] = Candidate{enlargement, i};
    if (enlargement != 0.0) continue;
    ++zero_enlargements;
    const double area = entries[i].rect.Area();
    if (area > zero_cost_area) continue;
    const auto positive = [](double sum) { return sum > 0.0; };
    if (positive(OverlapEnlargement(entries, i, rect, positive))) continue;
    zero_cost_tied = area == zero_cost_area;
    zero_cost = i;
    zero_cost_area = area;
  }
  if (zero_cost < n && !zero_cost_tied &&
      (candidate_limit == 0 || zero_enlargements <= candidate_limit)) {
    return zero_cost;
  }

  if (candidate_limit > 0 && n > candidate_limit) {
    std::partial_sort(
        candidates.begin(),
        candidates.begin() + static_cast<ptrdiff_t>(candidate_limit),
        candidates.end(), [](const Candidate& a, const Candidate& b) {
          return a.enlargement < b.enlargement;
        });
    candidates.resize(candidate_limit);
  }

  size_t best = candidates[0].index;
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (const auto& [enlargement, c] : candidates) {
    const double area = entries[c].rect.Area();
    // With a better tie-break c still wins at an equal sum; without one it
    // needs a strictly smaller sum.
    const bool wins_tie =
        enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area);
    const auto lost = [&](double overlap_delta) {
      return wins_tie ? overlap_delta > best_overlap_delta
                      : overlap_delta >= best_overlap_delta;
    };
    if (lost(0.0)) continue;
    const double overlap_delta = OverlapEnlargement(entries, c, rect, lost);
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta && wins_tie)) {
      best = c;
      best_overlap_delta = overlap_delta;
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

size_t ChooseLeastAreaEnlargement(std::span<const Entry> entries,
                                  const Rect& rect) {
  RSJ_CHECK(!entries.empty());
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

}  // namespace rsj
