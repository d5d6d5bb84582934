// Tests for saving/loading indexed relations: round trips, query
// equivalence, corruption (header and page bodies) and truncation
// detection.

#include "storage/persistence.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "join/join_runner.h"
#include "rtree/entry.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rsj_persistence_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

StoredTreeMeta MetaOf(const RTree& tree) {
  StoredTreeMeta meta;
  meta.root_page = tree.root_page();
  meta.height = tree.height();
  meta.size = tree.size();
  meta.options = tree.options();
  return meta;
}

TEST_F(PersistenceTest, RoundTripPreservesQueries) {
  const auto rects = testutil::ClusteredRects(2000, 71);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);

  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->tree->size(), tree.size());
  EXPECT_EQ(loaded->tree->height(), tree.height());
  EXPECT_EQ(loaded->tree->root_page(), tree.root_page());
  EXPECT_TRUE(loaded->tree->Validate().empty());

  const auto windows = testutil::RandomRects(30, 72, 0.2);
  for (const Rect& w : windows) {
    std::vector<uint32_t> original;
    std::vector<uint32_t> reloaded;
    tree.WindowQuery(w, &original);
    loaded->tree->WindowQuery(w, &reloaded);
    std::sort(original.begin(), original.end());
    std::sort(reloaded.begin(), reloaded.end());
    ASSERT_EQ(original, reloaded);
  }
}

TEST_F(PersistenceTest, LoadedTreeIsMutable) {
  const auto rects = testutil::RandomRects(500, 73, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());

  loaded->tree->Insert(Rect{0.5f, 0.5f, 0.51f, 0.51f}, 9999);
  EXPECT_EQ(loaded->tree->size(), rects.size() + 1);
  ASSERT_TRUE(loaded->tree->Delete(rects[7], 7));
  EXPECT_TRUE(loaded->tree->Validate().empty());
}

TEST_F(PersistenceTest, JoinOnLoadedTrees) {
  const auto rects_r = testutil::ClusteredRects(800, 74);
  const auto rects_s = testutil::ClusteredRects(700, 75);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file_r(topt.page_size);
  RTree tree_r = BuildRTree(&file_r, rects_r, topt);
  PagedFile file_s(topt.page_size);
  RTree tree_s = BuildRTree(&file_s, rects_s, topt);

  JoinOptions jopt;
  jopt.algorithm = JoinAlgorithm::kSJ4;
  const auto before = RunSpatialJoin(tree_r, tree_s, jopt, true);

  const std::string path_s = path_.string() + ".s";
  ASSERT_TRUE(SaveIndexedRelation(file_r, MetaOf(tree_r), path_.string()));
  ASSERT_TRUE(SaveIndexedRelation(file_s, MetaOf(tree_s), path_s));
  auto loaded_r = LoadIndexedRelation(path_.string());
  auto loaded_s = LoadIndexedRelation(path_s);
  ASSERT_TRUE(loaded_r.has_value());
  ASSERT_TRUE(loaded_s.has_value());
  const auto after =
      RunSpatialJoin(*loaded_r->tree, *loaded_s->tree, jopt, true);
  EXPECT_EQ(testutil::Canonical(after.chunks),
            testutil::Canonical(before.chunks));
  std::filesystem::remove(path_s);
}

TEST_F(PersistenceTest, MissingFile) {
  EXPECT_FALSE(LoadIndexedRelation("/nonexistent/rsj.idx").has_value());
}

TEST_F(PersistenceTest, TruncatedFileRejected) {
  const auto rects = testutil::RandomRects(300, 76, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));

  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size / 2);
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

TEST_F(PersistenceTest, CorruptedHeaderRejected) {
  const auto rects = testutil::RandomRects(300, 77, 0.02);
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree = BuildRTree(&file, rects, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));

  // Flip a byte inside the header region.
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16, SEEK_SET);
  const unsigned char garbage = 0xFF;
  std::fwrite(&garbage, 1, 1, f);
  std::fclose(f);
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

// Overwrites `size` bytes of the first entry of the saved root page, at
// `field_offset` within the entry (0 = xl, 16 = child reference). Pages
// are the file's tail, one page_size block per allocated page.
void PatchRootEntry(const std::filesystem::path& path, const PagedFile& file,
                    PageId root, size_t field_offset, const void* bytes,
                    size_t size) {
  const auto file_size = std::filesystem::file_size(path);
  const auto page_offset =
      file_size - (file.allocated_pages() - root) * file.page_size();
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(page_offset + kNodeHeaderBytes +
                                  field_offset),
             SEEK_SET);
  std::fwrite(bytes, size, 1, f);
  std::fclose(f);
}

class CorruptPageTest : public PersistenceTest {
 protected:
  void SetUp() override {
    PersistenceTest::SetUp();
    RTreeOptions topt;
    topt.page_size = kPageSize1K;
    file_ = std::make_unique<PagedFile>(topt.page_size);
    tree_ = std::make_unique<RTree>(
        BuildRTree(file_.get(), testutil::ClusteredRects(2000, 79), topt));
    ASSERT_GE(tree_->height(), 2);  // the root holds child references
    ASSERT_TRUE(SaveIndexedRelation(*file_, MetaOf(*tree_), path_.string()));
  }

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<RTree> tree_;
};

TEST_F(CorruptPageTest, ChildReferenceOutsideTheFileRejected) {
  // A join over this tree reads page 0x7ffffff0 of a file with a few
  // dozen pages.
  const uint32_t ref = 0x7ffffff0u;
  PatchRootEntry(path_, *file_, tree_->root_page(), 16, &ref, sizeof(ref));
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

TEST_F(CorruptPageTest, WidenedDirectoryMbrRejected) {
  // Joins over this tree run without error; the stored MBR no longer
  // equals its child's union.
  const Coord xl = -1.0f;
  PatchRootEntry(path_, *file_, tree_->root_page(), 0, &xl, sizeof(xl));
  EXPECT_FALSE(LoadIndexedRelation(path_.string()).has_value());
}

TEST_F(PersistenceTest, EmptyTreeRoundTrip) {
  RTreeOptions topt;
  topt.page_size = kPageSize1K;
  PagedFile file(topt.page_size);
  RTree tree(&file, topt);
  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tree->size(), 0u);
  std::vector<uint32_t> results;
  loaded->tree->WindowQuery(Rect{0, 0, 1, 1}, &results);
  EXPECT_TRUE(results.empty());
}

TEST_F(PersistenceTest, OptionsSurviveRoundTrip) {
  RTreeOptions topt;
  topt.page_size = kPageSize2K;
  topt.split_policy = SplitPolicy::kQuadratic;
  topt.forced_reinsert = false;
  topt.min_fill_fraction = 0.3;
  PagedFile file(topt.page_size);
  RTree tree(&file, topt);
  const auto rects = testutil::RandomRects(300, 78, 0.02);
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);

  ASSERT_TRUE(SaveIndexedRelation(file, MetaOf(tree), path_.string()));
  auto loaded = LoadIndexedRelation(path_.string());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->tree->options().split_policy, SplitPolicy::kQuadratic);
  EXPECT_FALSE(loaded->tree->options().forced_reinsert);
  EXPECT_DOUBLE_EQ(loaded->tree->options().min_fill_fraction, 0.3);
  EXPECT_EQ(loaded->file->page_size(), kPageSize2K);
}

}  // namespace
}  // namespace rsj
