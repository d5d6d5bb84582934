// Frozen page checksums of insertion-built R-trees.
//
// Every tree below is built one object at a time and then hashed page by
// page, every byte of every allocated page included. The expected values
// were captured once and must never change: insertion-path optimizations
// are only allowed when they leave each tree identical page for page, so
// the paper's Table 1 structures cannot drift. A mismatch message prints
// the new value; a deliberate change to tree construction must say why in
// the change that updates the table.
//
// Each case also pins a hash of its input rectangles. The workload
// generator draws through libm (pow, log, cos), so if a platform's libm
// rounds differently the input check fails first and names the cause,
// rather than reporting a tree difference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "datagen/rng.h"
#include "datagen/workloads.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"

namespace rsj {
namespace {

// Workload scale of the golden builds: small enough for sanitizer runs,
// large enough for a three-level tree on 1 KB pages (test C's R).
constexpr double kGoldenScale = 0.01;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t HashRects(uint64_t h, std::span<const Rect> rects) {
  for (const Rect& r : rects) {
    const float coords[4] = {r.xl, r.yl, r.xu, r.yu};
    h = Fnv1a(h, coords, sizeof(coords));
  }
  return h;
}

// Hash of every byte of every page the file ever allocated (freed pages
// included: their stale bytes are part of the file image too), plus the
// tree's root, height and size.
uint64_t HashTree(uint64_t h, const RTree& tree) {
  const PagedFile& file = tree.file();
  const uint64_t header[4] = {file.allocated_pages(), tree.root_page(),
                              static_cast<uint64_t>(tree.height()),
                              tree.size()};
  h = Fnv1a(h, header, sizeof(header));
  for (PageId id = 0; id < file.allocated_pages(); ++id) {
    h = Fnv1a(h, file.PageData(id), file.page_size());
  }
  return h;
}

struct TreeConfig {
  SplitPolicy policy;
  uint32_t page_size;
  const char* name;
};

constexpr TreeConfig kConfigs[] = {
    {SplitPolicy::kRStar, kPageSize1K, "rstar_1k"},
    {SplitPolicy::kRStar, kPageSize4K, "rstar_4k"},
    {SplitPolicy::kQuadratic, kPageSize1K, "quadratic_1k"},
    {SplitPolicy::kQuadratic, kPageSize4K, "quadratic_4k"},
    {SplitPolicy::kLinear, kPageSize1K, "linear_1k"},
    {SplitPolicy::kLinear, kPageSize4K, "linear_4k"},
};
constexpr size_t kNumConfigs = std::size(kConfigs);

RTreeOptions OptionsFor(const TreeConfig& config) {
  RTreeOptions options;
  options.page_size = config.page_size;
  options.split_policy = config.policy;
  return options;
}

void ExpectValid(const RTree& tree, const char* what) {
  for (const std::string& e : tree.Validate()) {
    ADD_FAILURE() << what << ": " << e;
  }
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL", v);
  return buf;
}

// --- workloads A-E, both relations, built by insertion ---------------------

struct WorkloadGolden {
  TestCase test;
  uint64_t input_hash;
  uint64_t tree_hash[kNumConfigs];  // in kConfigs order
};

constexpr WorkloadGolden kWorkloadGolden[] = {
    {TestCase::kA,
     0x5999af7491d64345ULL,
     {0x8e8d981521df7873ULL, 0xa372cf9e37f6bc5aULL, 0x2bc765ac640f02e2ULL,
      0x598e9a69cdb3a3ccULL, 0x5521f364e2504addULL, 0x7bb6ce61049f0044ULL}},
    {TestCase::kB,
     0xd376d877e3391d9eULL,
     {0x7b31fd0016bfa932ULL, 0x080b2dd58222504aULL, 0xaf560ebebb9e24dcULL,
      0x184c711f709b89f0ULL, 0x0fc48af72989dfd9ULL, 0xad8e3206e91ebcb9ULL}},
    {TestCase::kC,
     0x6f3b41ae2bb61fd1ULL,
     {0x3456bf890c40b766ULL, 0xb830deed9cddcb16ULL, 0x1643e114aa321aa4ULL,
      0x6110f4aa8236078fULL, 0x05f539a24f11e2dbULL, 0x5d7517b43e43f2e9ULL}},
    {TestCase::kD,
     0x171341b63ae4c335ULL,
     {0x9ff08657170256a5ULL, 0xa493bf5251d5b211ULL, 0x5f30eaa5e423aa75ULL,
      0xe0b192819a1ecc7dULL, 0x7ee1551c510c64b5ULL, 0x776ce9bdebd9119dULL}},
    {TestCase::kE,
     0xeb21c1f0557e4249ULL,
     {0x10f2add99eb64e18ULL, 0x2f2001edb350d8ceULL, 0x5b1e6397c758291eULL,
      0x50d6df72b6070fe3ULL, 0x61aace5d82683d0bULL, 0xe0c85fcb8d7863deULL}},
};

void PrintTo(const WorkloadGolden& golden, std::ostream* os) {
  *os << TestCaseName(golden.test);
}

class WorkloadGoldenTest : public ::testing::TestWithParam<WorkloadGolden> {};

TEST_P(WorkloadGoldenTest, InsertionBuiltTreesMatchFrozenPages) {
  const WorkloadGolden& golden = GetParam();
  const Workload w = MakeWorkload(golden.test, kGoldenScale);
  const std::vector<Rect> r = w.r.Mbrs();
  const std::vector<Rect> s = w.s.Mbrs();
  ASSERT_EQ(HashRects(HashRects(kFnvOffset, r), s), golden.input_hash)
      << "workload " << w.label << " generated different rectangles (got "
      << Hex(HashRects(HashRects(kFnvOffset, r), s))
      << "); the tree hashes below are only meaningful for the frozen input";

  for (size_t c = 0; c < kNumConfigs; ++c) {
    const TreeConfig& config = kConfigs[c];
    uint64_t h = kFnvOffset;
    for (const std::vector<Rect>* rel : {&r, &s}) {
      PagedFile file(config.page_size);
      RTree tree(&file, OptionsFor(config));
      for (uint32_t i = 0; i < rel->size(); ++i) tree.Insert((*rel)[i], i);
      ExpectValid(tree, config.name);
      h = HashTree(h, tree);
    }
    EXPECT_EQ(h, golden.tree_hash[c])
        << "workload " << w.label << " " << config.name << ": got " << Hex(h);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAToE, WorkloadGoldenTest, ::testing::ValuesIn(kWorkloadGolden),
    [](const ::testing::TestParamInfo<WorkloadGolden>& info) {
      return std::string(TestCaseName(info.param.test));
    });

// --- seeded insert / delete / reinsert sequence ----------------------------

// Inserts uniform random rectangles (libm-free input), deletes a random
// half of them in random order, reinserts those, and finally inserts a
// fresh tail, so that condensation, orphan reinsertion, root shrinking and
// page reuse all shape the final file image.
uint64_t MaintenanceHash(const TreeConfig& config) {
  const std::vector<Rect> rects =
      testutil::RandomRects(2400, /*seed=*/0x601d, /*extent=*/0.03);
  PagedFile file(config.page_size);
  RTree tree(&file, OptionsFor(config));
  const uint32_t head = 1800;
  for (uint32_t i = 0; i < head; ++i) tree.Insert(rects[i], i);

  Rng rng(0x601e);
  std::vector<uint32_t> order(head);
  for (uint32_t i = 0; i < head; ++i) order[i] = i;
  for (uint32_t i = head; i-- > 1;) {
    std::swap(order[i], order[rng.UniformInt(i + 1)]);
  }
  const std::span<const uint32_t> victims(order.data(), head / 2);
  for (const uint32_t id : victims) {
    EXPECT_TRUE(tree.Delete(rects[id], id)) << config.name << " id " << id;
  }
  ExpectValid(tree, config.name);
  for (const uint32_t id : victims) tree.Insert(rects[id], id);
  for (uint32_t i = head; i < rects.size(); ++i) tree.Insert(rects[i], i);
  ExpectValid(tree, config.name);
  EXPECT_EQ(tree.size(), rects.size());
  return HashTree(HashRects(kFnvOffset, rects), tree);
}

constexpr uint64_t kMaintenanceGolden[kNumConfigs] = {
    0x34f44b4215ea9b88ULL, 0x6bb4ea43769db699ULL, 0xd82241c0698ab236ULL,
    0x1f38f19571eff055ULL, 0x22f797a1769dae20ULL, 0x0fd1b7f2bdc39f8dULL};

TEST(MaintenanceGoldenTest, InsertDeleteReinsertMatchesFrozenPages) {
  for (size_t c = 0; c < kNumConfigs; ++c) {
    const uint64_t h = MaintenanceHash(kConfigs[c]);
    EXPECT_EQ(h, kMaintenanceGolden[c])
        << kConfigs[c].name << ": got " << Hex(h);
  }
}

// --- left-to-right sweep ---------------------------------------------------

// Inserts uniform random rectangles in order of lower x, so the data space
// grows with every insert and the entries of every directory level,
// including the root's of a three-level tree, keep growing.
uint64_t SweepHash(const TreeConfig& config) {
  std::vector<Rect> rects =
      testutil::RandomRects(3000, /*seed=*/0x5eeb, /*extent=*/0.01);
  std::sort(rects.begin(), rects.end(),
            [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  PagedFile file(config.page_size);
  RTree tree(&file, OptionsFor(config));
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  ExpectValid(tree, config.name);
  if (config.page_size == kPageSize1K) EXPECT_EQ(tree.height(), 3);
  return HashTree(HashRects(kFnvOffset, rects), tree);
}

constexpr uint64_t kSweepGolden[kNumConfigs] = {
    0x7dcb8e9b7443f470ULL, 0x0b90318bb6a48bd9ULL, 0xd47e6b61f0eb168eULL,
    0x409a707de81d0ff5ULL, 0xdaab21dd7e2fa57aULL, 0x686f9c3b00392591ULL};

TEST(SweepGoldenTest, SortedInsertionMatchesFrozenPages) {
  for (size_t c = 0; c < kNumConfigs; ++c) {
    const uint64_t h = SweepHash(kConfigs[c]);
    EXPECT_EQ(h, kSweepGolden[c]) << kConfigs[c].name << ": got " << Hex(h);
  }
}

// --- signed zeros ----------------------------------------------------------

// Rectangles whose lower corners sit on -0.0 or +0.0 in random mix: equal
// values with two encodings, so parent MBRs on the axes store whichever
// sign the MBR computation keeps, and the page bytes pin that choice.
uint64_t SignedZeroHash(const TreeConfig& config) {
  std::vector<Rect> rects =
      testutil::RandomRects(3000, /*seed=*/0x2e50, /*extent=*/0.05);
  Rng rng(0x2e51);
  for (Rect& r : rects) {
    const uint64_t pick = rng.UniformInt(8);
    if (pick & 1) r.xl = (pick & 4) ? -0.0f : 0.0f;
    if (pick & 2) r.yl = (pick & 4) ? 0.0f : -0.0f;
  }
  PagedFile file(config.page_size);
  RTree tree(&file, OptionsFor(config));
  for (uint32_t i = 0; i < rects.size(); ++i) tree.Insert(rects[i], i);
  ExpectValid(tree, config.name);
  for (uint32_t i = 0; i < rects.size(); i += 3) {
    EXPECT_TRUE(tree.Delete(rects[i], i)) << config.name << " id " << i;
  }
  for (uint32_t i = 0; i < rects.size(); i += 3) tree.Insert(rects[i], i);
  ExpectValid(tree, config.name);
  return HashTree(HashRects(kFnvOffset, rects), tree);
}

constexpr uint64_t kSignedZeroGolden[kNumConfigs] = {
    0xa843c115d148baa6ULL, 0x0049583acda956b9ULL, 0x617c73a23539c387ULL,
    0x7f3630ef2df49559ULL, 0xd5248b59531a4b4dULL, 0x8f714d3fda3b3f93ULL};

TEST(SignedZeroGoldenTest, ZeroCoordinatesMatchFrozenPages) {
  for (size_t c = 0; c < kNumConfigs; ++c) {
    const uint64_t h = SignedZeroHash(kConfigs[c]);
    EXPECT_EQ(h, kSignedZeroGolden[c])
        << kConfigs[c].name << ": got " << Hex(h);
  }
}

}  // namespace
}  // namespace rsj
