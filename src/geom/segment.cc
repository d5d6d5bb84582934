#include "geom/segment.h"

#include "common/logging.h"

namespace rsj {

int Orientation(const Point& a, const Point& b, const Point& c) {
  const double cross = (static_cast<double>(b.x) - a.x) *
                           (static_cast<double>(c.y) - a.y) -
                       (static_cast<double>(b.y) - a.y) *
                           (static_cast<double>(c.x) - a.x);
  if (cross > 0.0) return 1;
  if (cross < 0.0) return -1;
  return 0;
}

bool PointOnSegment(const Point& p, const Segment& s) {
  if (Orientation(s.a, s.b, p) != 0) return false;
  return s.Mbr().Contains(p);
}

bool SegmentsIntersect(const Segment& s, const Segment& t) {
  // Cheap reject via bounding boxes.
  if (!s.Mbr().Intersects(t.Mbr())) return false;

  const int o1 = Orientation(s.a, s.b, t.a);
  const int o2 = Orientation(s.a, s.b, t.b);
  const int o3 = Orientation(t.a, t.b, s.a);
  const int o4 = Orientation(t.a, t.b, s.b);

  // Proper crossing: the endpoints of each segment straddle the other.
  if (o1 * o2 < 0 && o3 * o4 < 0) return true;

  // Degenerate cases: an endpoint lies on the other segment (covers
  // collinear overlap together with the bounding-box test above).
  if (o1 == 0 && PointOnSegment(t.a, s)) return true;
  if (o2 == 0 && PointOnSegment(t.b, s)) return true;
  if (o3 == 0 && PointOnSegment(s.a, t)) return true;
  if (o4 == 0 && PointOnSegment(s.b, t)) return true;
  return false;
}

bool PolylinesIntersect(std::span<const Point> a, std::span<const Point> b) {
  if (a.empty() || b.empty()) return false;
  const size_t na = a.size() == 1 ? 1 : a.size() - 1;
  const size_t nb = b.size() == 1 ? 1 : b.size() - 1;
  // Segment k of a chain; a single vertex is one zero-length segment.
  const auto seg = [](std::span<const Point> c, size_t k) {
    return Segment{c[k], c[c.size() == 1 ? k : k + 1]};
  };
  // A plain nested loop: SegmentsIntersect opens with its own MBR reject,
  // and the workloads' chains are short (1–4 segments), so a batched
  // segment-MBR prefilter costs more in heap allocations than it saves.
  for (size_t i = 0; i < na; ++i) {
    for (size_t j = 0; j < nb; ++j) {
      if (SegmentsIntersect(seg(a, i), seg(b, j))) return true;
    }
  }
  return false;
}

Rect PolylineMbr(std::span<const Point> chain) {
  RSJ_CHECK_MSG(!chain.empty(), "polyline must have at least one vertex");
  Rect mbr = Rect::BoundingBox(chain[0], chain[0]);
  for (const Point& p : chain.subspan(1)) {
    mbr.ExpandToInclude(Rect::BoundingBox(p, p));
  }
  return mbr;
}

}  // namespace rsj
