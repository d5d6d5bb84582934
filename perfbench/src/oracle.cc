#include "oracle.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

namespace {

// Squared Euclidean distance between two closed rectangles, evaluated in
// double from the float coordinates.
double MinDistSquared(const rsj::Rect& a, const rsj::Rect& b) {
  double dx = 0.0;
  if (b.xu < a.xl) {
    dx = static_cast<double>(a.xl) - b.xu;
  } else if (a.xu < b.xl) {
    dx = static_cast<double>(b.xl) - a.xu;
  }
  double dy = 0.0;
  if (b.yu < a.yl) {
    dy = static_cast<double>(a.yl) - b.yu;
  } else if (a.yu < b.yl) {
    dy = static_cast<double>(b.yl) - a.yu;
  }
  return dx * dx + dy * dy;
}

bool Qualifies(const rsj::Rect& a, const rsj::Rect& b, double epsilon) {
  if (epsilon <= 0.0) {
    return a.xl <= b.xu && b.xl <= a.xu && a.yl <= b.yu && b.yl <= a.yu;
  }
  return MinDistSquared(a, b) <= epsilon * epsilon;
}

std::vector<uint32_t> OrderByLowX(const std::vector<double>& low_x) {
  std::vector<uint32_t> order(low_x.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&low_x](uint32_t a, uint32_t b) {
    return low_x[a] < low_x[b] || (low_x[a] == low_x[b] && a < b);
  });
  return order;
}

}  // namespace

std::vector<IdPair> SweepJoin(const std::vector<rsj::Rect>& r,
                              const std::vector<rsj::Rect>& s,
                              double epsilon) {
  // R's x-extent grows by epsilon (plus a rounding margin), so the sweep
  // finds a superset of the qualifying pairs; Qualifies() decides.
  const double grow = epsilon > 0.0 ? epsilon * (1.0 + 1e-9) + 1e-12 : 0.0;
  std::vector<double> r_lo(r.size()), r_hi(r.size());
  for (size_t i = 0; i < r.size(); ++i) {
    r_lo[i] = static_cast<double>(r[i].xl) - grow;
    r_hi[i] = static_cast<double>(r[i].xu) + grow;
  }
  std::vector<double> s_lo(s.size()), s_hi(s.size());
  for (size_t j = 0; j < s.size(); ++j) {
    s_lo[j] = s[j].xl;
    s_hi[j] = s[j].xu;
  }
  const std::vector<uint32_t> ro = OrderByLowX(r_lo);
  const std::vector<uint32_t> so = OrderByLowX(s_lo);

  std::vector<IdPair> out;
  size_t i = 0, j = 0;
  while (i < ro.size() && j < so.size()) {
    if (r_lo[ro[i]] <= s_lo[so[j]]) {
      // r opens first: every s opening before r closes overlaps it in x.
      const uint32_t a = ro[i++];
      for (size_t k = j; k < so.size() && s_lo[so[k]] <= r_hi[a]; ++k) {
        if (Qualifies(r[a], s[so[k]], epsilon)) out.emplace_back(a, so[k]);
      }
    } else {
      const uint32_t b = so[j++];
      for (size_t k = i; k < ro.size() && r_lo[ro[k]] <= s_hi[b]; ++k) {
        if (Qualifies(r[ro[k]], s[b], epsilon)) out.emplace_back(ro[k], b);
      }
    }
  }
  return out;
}

}  // namespace perfbench
