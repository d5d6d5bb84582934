// Tests for CSV dataset interchange and the analytic cost estimator.

#include <gtest/gtest.h>

#include <filesystem>

#include "datagen/io.h"
#include "datagen/tiger_like.h"
#include "join/cost_estimator.h"
#include "join/join_runner.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

class CsvIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rsj_io_test_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()) +
             ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(CsvIoTest, RoundTripWithGeometry) {
  StreetsConfig config;
  config.object_count = 500;
  const Dataset original = GenerateStreets(config);
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string()));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name, original.name);
  ASSERT_EQ(loaded->objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    ASSERT_EQ(loaded->objects[i].id, original.objects[i].id);
    ASSERT_EQ(loaded->objects[i].chain.size(),
              original.objects[i].chain.size());
    // Coordinates survive the %.9g round trip exactly (floats).
    ASSERT_EQ(loaded->objects[i].mbr, original.objects[i].mbr);
    for (size_t v = 0; v < original.objects[i].chain.size(); ++v) {
      ASSERT_EQ(loaded->objects[i].chain[v], original.objects[i].chain[v]);
    }
  }
}

TEST_F(CsvIoTest, RoundTripWithoutGeometry) {
  RegionsConfig config;
  config.object_count = 300;
  const Dataset original = GenerateRegions(config);
  ASSERT_TRUE(WriteDatasetCsv(original, path_.string(),
                              /*with_geometry=*/false));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->objects.size(), original.objects.size());
  for (size_t i = 0; i < original.objects.size(); ++i) {
    ASSERT_EQ(loaded->objects[i].mbr, original.objects[i].mbr);
    EXPECT_TRUE(loaded->objects[i].chain.empty());
  }
}

TEST_F(CsvIoTest, MissingFile) {
  EXPECT_FALSE(ReadDatasetCsv("/nonexistent/dataset.csv").has_value());
}

TEST_F(CsvIoTest, MalformedRowRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# rsj dataset: broken\n1,0.1,0.2,not_a_number,0.4\n", f);
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

TEST_F(CsvIoTest, InvalidMbrRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("7,0.9,0.2,0.1,0.4\n", f);  // xl > xu
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

TEST_F(CsvIoTest, GeometryMbrMismatchRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("7,0.0,0.0,1.0,1.0,5 5 6 6\n", f);  // chain outside MBR
  std::fclose(f);
  EXPECT_FALSE(ReadDatasetCsv(path_.string()).has_value());
}

TEST_F(CsvIoTest, LoadedDatasetJoinsLikeOriginal) {
  StreetsConfig sc;
  sc.object_count = 400;
  RiversConfig rc;
  rc.object_count = 350;
  const Dataset streets = GenerateStreets(sc);
  const Dataset rivers = GenerateRivers(rc);
  ASSERT_TRUE(WriteDatasetCsv(streets, path_.string()));
  const auto loaded = ReadDatasetCsv(path_.string());
  ASSERT_TRUE(loaded.has_value());

  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation a(streets.Mbrs(), topt);
  IndexedRelation a2(loaded->Mbrs(), topt);
  IndexedRelation b(rivers.Mbrs(), topt);
  JoinOptions jopt;
  EXPECT_EQ(RunSpatialJoin(a.tree(), b.tree(), jopt).pair_count,
            RunSpatialJoin(a2.tree(), b.tree(), jopt).pair_count);
}

// --- cost estimator ---

TEST(CostEstimatorTest, ProfileCountsLevels) {
  const auto rects = testutil::RandomRects(2000, 61, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation rel(rects, topt);
  const auto profile = ProfileTree(rel.tree());
  ASSERT_EQ(profile.size(), static_cast<size_t>(rel.tree().height()));
  EXPECT_EQ(profile[0].entries, rects.size());  // leaf level holds the data
  size_t total_nodes = 0;
  for (const LevelProfile& level : profile) total_nodes += level.nodes;
  EXPECT_EQ(total_nodes, rel.tree().ComputeStats().TotalPages());
  EXPECT_GT(profile[0].mean_width, 0.0);
}

TEST(CostEstimatorTest, UniformDataWithinSmallFactor) {
  // Uniform rectangles satisfy the estimator's assumption: the predicted
  // result cardinality and I/O must land within a small factor.
  const auto rects_r = testutil::RandomRects(4000, 62, 0.01);
  const auto rects_s = testutil::RandomRects(4000, 63, 0.01);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  IndexedRelation r(rects_r, topt);
  IndexedRelation s(rects_s, topt);
  const JoinCostEstimate estimate = EstimateJoinCost(r.tree(), s.tree());

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ1;
  jopt.buffer_bytes = 0;
  const auto measured = RunSpatialJoin(r.tree(), s.tree(), jopt);

  EXPECT_GT(estimate.result_pairs, 0.3 * measured.pair_count);
  EXPECT_LT(estimate.result_pairs, 3.0 * measured.pair_count);
  EXPECT_GT(estimate.page_reads, 0.3 * measured.stats.disk_reads);
  EXPECT_LT(estimate.page_reads, 3.0 * measured.stats.disk_reads);
  EXPECT_GT(estimate.sj1_comparisons,
            0.2 * measured.stats.TotalComparisons());
  EXPECT_LT(estimate.sj1_comparisons,
            5.0 * measured.stats.TotalComparisons());
  EXPECT_GT(estimate.node_pairs, 0.3 * measured.stats.node_pairs);
  EXPECT_LT(estimate.node_pairs, 3.0 * measured.stats.node_pairs);
}

TEST(CostEstimatorTest, SkewBreaksTheUniformityAssumption) {
  // The paper's point (§4): "analytical results are restricted ... to
  // uniformly distributed data very rarely occurring in real applications".
  // Returns {estimated, measured} result pairs.
  const auto estimate_and_measure = [](const std::vector<Rect>& rects_r,
                                       const std::vector<Rect>& rects_s) {
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    IndexedRelation r(rects_r, topt);
    IndexedRelation s(rects_s, topt);
    const double estimate = EstimateJoinCost(r.tree(), s.tree()).result_pairs;
    const auto measured = RunSpatialJoin(r.tree(), s.tree(), JoinOptions{});
    return std::pair<double, double>(
        estimate, static_cast<double>(measured.pair_count));
  };

  // Clustered relations whose clusters do not coincide: the uniform model
  // spreads the clusters over the whole space and misestimates the
  // overlap.
  const auto [clustered_est, clustered_act] =
      estimate_and_measure(testutil::ClusteredRects(4000, 64, 3, 0.01),
                           testutil::ClusteredRects(4000, 65, 3, 0.01));
  const double ratio = clustered_est / std::max(1.0, clustered_act);
  EXPECT_TRUE(ratio > 2.0 || ratio < 0.5)
      << "estimate " << clustered_est << " vs measured " << clustered_act;

  // Both sides piled into one corner: the model spreads the 80% corner
  // share over the whole space and underestimates the result (1,637
  // estimated against 21,357 actual pairs when recorded). A skew-aware
  // estimator flips this expectation.
  const auto [skewed_est, skewed_act] = estimate_and_measure(
      testutil::SkewedRects(4000, 303), testutil::SkewedRects(4000, 404));
  EXPECT_GT(skewed_act, 5.0 * skewed_est)
      << "estimate " << skewed_est << " vs measured " << skewed_act;
}

}  // namespace
}  // namespace rsj
