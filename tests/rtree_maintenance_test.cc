// Randomized maintenance test: seeded batches of inserts, deletes and
// delete+reinsert churn against every split policy on small and large
// pages. After every batch the tree must pass RTree::Validate(), hold
// exactly the live objects, and answer window queries like a brute-force
// scan. Failures name the configuration, seed and batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "datagen/rng.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

struct MaintenanceCase {
  SplitPolicy policy;
  uint32_t page_size;
  bool forced_reinsert;
  const char* name;
};

// The object pool: uniform and clustered rectangles, exact duplicates and
// zero-area rectangles, so condensation meets ties and degenerate MBRs.
// A pool sorted by lower x arrives as a left-to-right sweep, so the data
// space keeps growing and every directory level's entries grow with it.
std::vector<Rect> MakePool(uint64_t seed, size_t count, bool sweep) {
  std::vector<Rect> pool = testutil::RandomRects(count / 2, seed, 0.04);
  const std::vector<Rect> clustered =
      testutil::ClusteredRects(count - pool.size(), seed + 1, 6, 0.01);
  pool.insert(pool.end(), clustered.begin(), clustered.end());
  Rng rng(seed + 2);
  for (size_t i = 1; i < pool.size(); i += 7) {
    pool[i] = pool[rng.UniformInt(i)];  // duplicate of an earlier object
  }
  for (size_t i = 3; i < pool.size(); i += 11) {
    pool[i].xu = pool[i].xl;  // zero width
  }
  if (sweep) {
    std::sort(pool.begin(), pool.end(),
              [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  }
  return pool;
}

std::vector<uint32_t> BruteForce(const std::vector<Rect>& pool,
                                 const std::vector<bool>& live,
                                 const Rect& window) {
  std::vector<uint32_t> out;
  for (uint32_t id = 0; id < pool.size(); ++id) {
    if (live[id] && pool[id].Intersects(window)) out.push_back(id);
  }
  return out;
}

void RunSequence(const MaintenanceCase& c, uint64_t seed, bool sweep) {
  constexpr size_t kPool = 3000;
  constexpr int kBatches = 40;
  constexpr int kBatchOps = 100;
  const std::vector<Rect> pool = MakePool(seed, kPool, sweep);
  PagedFile file(c.page_size);
  RTreeOptions options;
  options.page_size = c.page_size;
  options.split_policy = c.policy;
  options.forced_reinsert = c.forced_reinsert;
  RTree tree(&file, options);

  Rng rng(seed ^ 0x5eed);
  std::vector<bool> live(kPool, false);
  std::vector<uint32_t> live_ids, dead_ids(kPool);
  for (uint32_t id = 0; id < kPool; ++id) dead_ids[id] = kPool - 1 - id;
  // Inserts take the most recently freed id, so never-inserted objects
  // arrive in pool order; deletes pick a random live object.
  const auto take = [&rng](std::vector<uint32_t>* ids) {
    const size_t k = rng.UniformInt(ids->size());
    const uint32_t id = (*ids)[k];
    (*ids)[k] = ids->back();
    ids->pop_back();
    return id;
  };

  for (int batch = 0; batch < kBatches; ++batch) {
    SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed) +
                 (sweep ? " sweep" : "") + " batch " + std::to_string(batch));
    // Early batches mostly grow the tree (to three levels on 1 KB pages),
    // later ones mostly shrink it.
    const double insert_share = batch < 28 ? 0.75 : 0.3;
    for (int op = 0; op < kBatchOps; ++op) {
      const double u = rng.Uniform();
      if ((u < insert_share || live_ids.empty()) && !dead_ids.empty()) {
        const uint32_t id = dead_ids.back();
        dead_ids.pop_back();
        tree.Insert(pool[id], id);
        live[id] = true;
        live_ids.push_back(id);
      } else if (u < 0.85 && !live_ids.empty()) {
        const uint32_t id = take(&live_ids);
        ASSERT_TRUE(tree.Delete(pool[id], id)) << "id " << id;
        live[id] = false;
        dead_ids.push_back(id);
      } else if (!live_ids.empty()) {
        // Churn: delete and reinsert the same object.
        const uint32_t id = live_ids[rng.UniformInt(live_ids.size())];
        ASSERT_TRUE(tree.Delete(pool[id], id)) << "id " << id;
        tree.Insert(pool[id], id);
      }
    }
    if (!dead_ids.empty()) {
      const uint32_t id = dead_ids[rng.UniformInt(dead_ids.size())];
      EXPECT_FALSE(tree.Delete(pool[id], id)) << "absent id " << id;
    }

    for (const std::string& e : tree.Validate()) ADD_FAILURE() << e;
    ASSERT_EQ(tree.size(), live_ids.size());
    for (int q = 0; q < 4; ++q) {
      const double side = rng.Uniform(0.0, 0.3);
      const double x = rng.Uniform(0.0, 1.0 - side);
      const double y = rng.Uniform(0.0, 1.0 - side);
      const Rect window{static_cast<Coord>(x), static_cast<Coord>(y),
                        static_cast<Coord>(x + side),
                        static_cast<Coord>(y + side)};
      std::vector<uint32_t> got;
      tree.WindowQuery(window, &got);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, BruteForce(pool, live, window))
          << "window " << window.ToString();
    }
  }
}

class RTreeMaintenanceTest
    : public ::testing::TestWithParam<MaintenanceCase> {};

TEST_P(RTreeMaintenanceTest, SeededChurnKeepsTreeValidAndQueriesExact) {
  for (const uint64_t seed : {11u, 12u}) {
    RunSequence(GetParam(), seed, /*sweep=*/false);
    RunSequence(GetParam(), seed, /*sweep=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndPageSizes, RTreeMaintenanceTest,
    ::testing::Values(
        MaintenanceCase{SplitPolicy::kRStar, kPageSize1K, true, "rstar_1k"},
        MaintenanceCase{SplitPolicy::kRStar, kPageSize1K, false,
                        "rstar_noreinsert_1k"},
        MaintenanceCase{SplitPolicy::kRStar, kPageSize4K, true, "rstar_4k"},
        MaintenanceCase{SplitPolicy::kQuadratic, kPageSize1K, false,
                        "quadratic_1k"},
        MaintenanceCase{SplitPolicy::kLinear, kPageSize1K, false,
                        "linear_1k"}),
    [](const ::testing::TestParamInfo<MaintenanceCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rsj
