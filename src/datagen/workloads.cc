#include "datagen/workloads.h"

#include <algorithm>

#include "common/logging.h"
#include "datagen/tiger_like.h"

namespace rsj {

namespace {

size_t Scaled(size_t count, double scale) {
  return std::max<size_t>(1, static_cast<size_t>(count * scale));
}

Dataset StreetsMap(size_t count, uint64_t walk_seed) {
  StreetsConfig config;
  config.object_count = count;
  config.seed = walk_seed;
  return GenerateStreets(config);
}

Dataset RiversMap(size_t count) {
  RiversConfig config;
  config.object_count = count;
  return GenerateRivers(config);
}

}  // namespace

const char* TestCaseName(TestCase test) {
  switch (test) {
    case TestCase::kA:
      return "A";
    case TestCase::kB:
      return "B";
    case TestCase::kC:
      return "C";
    case TestCase::kD:
      return "D";
    case TestCase::kE:
      return "E";
  }
  return "?";
}

// GCC 12 libstdc++ -Wrestrict false positive in the inlined string assign.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
#endif
Workload MakeWorkload(TestCase test, double scale) {
  RSJ_CHECK(scale > 0.0 && scale <= 1.0);
  Workload w;
  w.label = TestCaseName(test);
  switch (test) {
    case TestCase::kA:
      w.paper_r_count = 131461;
      w.paper_s_count = 128971;
      w.paper_intersections = 86094;
      w.r = StreetsMap(Scaled(w.paper_r_count, scale), /*walk_seed=*/1);
      w.s = RiversMap(Scaled(w.paper_s_count, scale));
      break;
    case TestCase::kB:
      w.paper_r_count = 131461;
      w.paper_s_count = 131192;
      w.paper_intersections = 154262;
      w.r = StreetsMap(Scaled(w.paper_r_count, scale), /*walk_seed=*/1);
      w.s = StreetsMap(Scaled(w.paper_s_count, scale), /*walk_seed=*/7);
      w.s.name = std::string("streets(2nd map)");
      break;
    case TestCase::kC:
      w.paper_r_count = 598677;
      w.paper_s_count = 128971;
      w.paper_intersections = 395189;
      w.r = StreetsMap(Scaled(w.paper_r_count, scale), /*walk_seed=*/1);
      w.r.name = std::string("streets(full)");
      w.s = RiversMap(Scaled(w.paper_s_count, scale));
      break;
    case TestCase::kD:
      w.paper_r_count = 128971;
      w.paper_s_count = 128971;
      w.paper_intersections = 505583;
      w.r = RiversMap(Scaled(w.paper_r_count, scale));
      w.s = w.r;  // identical relation; trees are built independently
      break;
    case TestCase::kE: {
      w.paper_r_count = 67527;
      w.paper_s_count = 33696;
      w.paper_intersections = 543069;
      RegionsConfig fine;
      fine.object_count = Scaled(w.paper_r_count, scale);
      fine.seed = 3;
      w.r = GenerateRegions(fine);
      RegionsConfig coarse;
      coarse.object_count = Scaled(w.paper_s_count, scale);
      coarse.seed = 11;
      w.s = GenerateRegions(coarse);
      w.s.name = std::string("regions(coarse)");
      break;
    }
  }
  return w;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace rsj
