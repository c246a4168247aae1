// Contract-layer tests: macro on/off behaviour, the failure-handler
// report format, the runtime-check switch, and — for every layer with a
// deep validator — a deliberately corrupted structure that must make the
// validator abort. The validators are always compiled, so these death
// tests fire in release builds too (the corrupted-input tests enable the
// runtime subset first); the SJ_VALIDATE CI leg additionally exercises
// the compiled-in macro branch.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "api/backend.hpp"
#include "common/contracts.hpp"
#include "common/datagen.hpp"
#include "common/dataset.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/shard_plan.hpp"
#include "core/validate.hpp"

namespace sj {
namespace {

/// Force the runtime-check subset on for one scope (death-test children
/// inherit the parent's flag state, so tests set it inside the statement
/// under test as well).
struct RuntimeChecksGuard {
  RuntimeChecksGuard() { contracts::set_runtime_checks(true); }
  ~RuntimeChecksGuard() { contracts::set_runtime_checks(false); }
};

// ------------------------------------------------------------- the macros

TEST(Contracts, CompiledStateMatchesMacroFlag) {
  EXPECT_EQ(contracts::kCompiledIn, SJ_CONTRACTS_ENABLED == 1);
}

TEST(Contracts, MacrosEvaluateOperandsOnlyWhenCompiledIn) {
  int calls = 0;
  auto observed = [&] {
    ++calls;
    return true;
  };
  SJ_EXPECT(observed(), "expect operand");
  SJ_ENSURE(observed(), "ensure operand");
  SJ_INVARIANT(observed(), "invariant operand");
#if SJ_CONTRACTS_ENABLED
  EXPECT_EQ(calls, 3);
#else
  // Compiled out: the condition must NOT be evaluated — contracts cost
  // nothing in release builds.
  EXPECT_EQ(calls, 0);
#endif
}

#if SJ_CONTRACTS_ENABLED
TEST(ContractsDeath, FailedExpectAborts) {
  EXPECT_DEATH(SJ_EXPECT(1 == 2, "a failing precondition"),
               "SJ_EXPECT violation: 1 == 2");
}
#else
TEST(Contracts, FailedConditionIsIgnoredWhenCompiledOut) {
  SJ_EXPECT(1 == 2, "never evaluated");
  SJ_ENSURE(false, "never evaluated");
  SJ_INVARIANT(false, "never evaluated");
}
#endif

TEST(ContractsDeath, FailureReportNamesExpressionSiteAndContext) {
  EXPECT_DEATH(
      contracts::fail("SJ_EXPECT", "a == b", "some_file.cpp", 42,
                      "context message"),
      "SJ_EXPECT violation: a == b\n  at some_file.cpp:42\n"
      "  context: context message");
}

TEST(Contracts, RuntimeSwitchTogglesActive) {
  if (!contracts::kCompiledIn) {
    EXPECT_FALSE(contracts::active());
  }
  {
    RuntimeChecksGuard guard;
    EXPECT_TRUE(contracts::active());
    EXPECT_TRUE(contracts::runtime_checks());
  }
  EXPECT_FALSE(contracts::runtime_checks());
}

TEST(Contracts, ValidationTimeAccumulates) {
  contracts::reset_validation_seconds();
  EXPECT_EQ(contracts::validation_seconds(), 0.0);
  const Dataset d = datagen::uniform(256, 2, 0.0, 100.0, /*seed=*/7);
  const GridIndex index(d, 0.1);
  validate::grid_index(index, d, "timer accumulation");
  EXPECT_GT(contracts::validation_seconds(), 0.0);
  contracts::reset_validation_seconds();
  EXPECT_EQ(contracts::validation_seconds(), 0.0);
}

// ------------------------------------------------- grid layer validators

TEST(Contracts, GridIndexValidatorAcceptsRealIndex) {
  const Dataset d = datagen::sdss_like(500, /*seed=*/11);
  const GridIndex index(d, 0.2);
  validate::grid_index(index, d, "well-formed index");
}

/// A minimal hand-built cell-major view of a 1-d layout: `points` is its
/// one coordinate plane, and the view carries nothing else.
GridDeviceView tiny_cell_major_view(const std::vector<double>& points,
                                    const std::vector<std::uint32_t>& orig) {
  GridDeviceView v;
  v.coord[0] = points.data();
  v.n = points.size();
  v.dim = 1;
  v.orig = orig.data();
  v.cell_major = true;
  return v;
}

TEST(ContractsDeath, DeviceGridValidatorRejectsBrokenOrigPermutation) {
  const std::vector<double> points{0.1, 0.2, 0.3, 0.4};
  std::vector<std::uint32_t> orig{0, 1, 2, 3};
  GridDeviceView view = tiny_cell_major_view(points, orig);
  validate::device_grid(view, nullptr, "intact view");  // sanity: passes
  orig[3] = 2;  // slot 3 duplicates original id 2: no longer a bijection
  EXPECT_DEATH(validate::device_grid(view, nullptr, "corrupted orig map"),
               "SJ_CHECK violation.*corrupted orig map");
}

TEST(ContractsDeath, DeviceGridValidatorRejectsGapInCellRanges) {
  // Legacy layout: the image that stages B and G.
  const std::vector<double> rows{0.1, 0.2, 0.3, 0.4};
  const std::vector<std::uint32_t> A{0, 1, 2, 3};
  const std::vector<std::uint64_t> B{5, 9};
  // Cell ranges must tile [0, 4); {0,1} then {3,3} leaves slot 2 orphaned.
  std::vector<GridIndex::CellRange> G{{0, 1}, {2, 3}};
  GridDeviceView view;
  view.points = rows.data();
  view.n = rows.size();
  view.dim = 1;
  view.A = A.data();
  view.B = B.data();
  view.b_size = B.size();
  view.G = G.data();
  validate::device_grid(view, nullptr, "intact ranges");  // sanity: passes
  G[1].min = 3;
  EXPECT_DEATH(validate::device_grid(view, nullptr, "cell range gap"),
               "SJ_CHECK violation.*cell range gap");
}

TEST(ContractsDeath, DeviceGridValidatorRejectsSoaPlaneDrift) {
  // Slot k holds point orig[k] of the dataset.
  const Dataset d(1, {0.4, 0.3, 0.2, 0.1});
  std::vector<double> plane{0.1, 0.2, 0.3, 0.4};
  const std::vector<std::uint32_t> orig{3, 2, 1, 0};
  const GridDeviceView view = tiny_cell_major_view(plane, orig);
  validate::device_grid(view, &d, "intact plane");  // sanity: passes
  plane[2] = 0.35;  // slot 2 no longer holds point orig[2]
  EXPECT_DEATH(validate::device_grid(view, &d, "soa plane drift"),
               "SJ_CHECK violation.*soa plane drift");
}

TEST(ContractsDeath, DeviceGridValidatorRejectsIndexOnCellMajorImage) {
  // A cell-major image stages planes and orig only; B, G or masks beside
  // them are a staging bug (the grouped kernel never reads them).
  const std::vector<double> points{0.1, 0.2, 0.3, 0.4};
  const std::vector<std::uint32_t> orig{0, 1, 2, 3};
  const std::vector<std::uint64_t> B{5};
  const std::vector<GridIndex::CellRange> G{{0, 3}};
  GridDeviceView view = tiny_cell_major_view(points, orig);
  view.B = B.data();
  view.b_size = B.size();
  view.G = G.data();
  EXPECT_DEATH(validate::device_grid(view, nullptr, "index on cell-major"),
               "SJ_CHECK violation.*index on cell-major");
}

TEST(ContractsDeath, CellTableValidatorRejectsCorruptTable) {
  const Dataset d = datagen::uniform(200, 2, 0.0, 10.0, /*seed=*/5);
  const GridIndex index(d, 1.0);
  ASSERT_FALSE(index.cell_table().empty());
  ASSERT_GE(index.num_nonempty_cells(), 2u);
  validate::cell_table(index.cell_table(), index.B(), "intact table");
  std::vector<std::uint32_t> table = index.cell_table();
  table[index.B()[0]] = 1;  // B[0]'s cell no longer maps back to index 0
  EXPECT_DEATH(validate::cell_table(table, index.B(), "corrupt cell table"),
               "SJ_CHECK violation.*corrupt cell table");
  table = index.cell_table();
  std::uint64_t empty = 0;
  while (table[empty] != kEmptyCell) ++empty;
  table[empty] = 0;  // an empty cell claims B[0] as well
  EXPECT_DEATH(
      validate::cell_table(table, index.B(), "stray cell table entry"),
      "SJ_CHECK violation.*stray cell table entry");
}

// -------------------------------------------------- adjacency validator

// A self-join's groups are cells in identity order: the validator binds
// group g's positions to cell g's slots.
TEST(Contracts, CellAdjacencyValidatorAcceptsWellFormedCsr) {
  const std::vector<GridIndex::CellRange> cells{{0, 3}};
  GroupAdjacencyHost adj;
  adj.group_offsets = {0, 4};
  adj.ranges = {{0, 2, 0}, {2, 4, 1}};
  adj.offsets = {0, 2};
  adj.weights = {8};
  validate::group_adjacency(adj, cells.data(), 4,
                            "well-formed cell adjacency");
}

TEST(ContractsDeath, CellAdjacencyValidatorRejectsOutOfBoundsRange) {
  const std::vector<GridIndex::CellRange> cells{{0, 3}};
  GroupAdjacencyHost adj;
  adj.group_offsets = {0, 4};
  adj.ranges = {{0, 5, 0}};  // slot space has only 4 slots
  adj.offsets = {0, 1};
  adj.weights = {5};
  EXPECT_DEATH(validate::group_adjacency(adj, cells.data(), 4,
                                         "range past the slot space"),
               "SJ_CHECK violation.*range past the slot space");
}

TEST(ContractsDeath, CellAdjacencyValidatorRejectsOverlappingRanges) {
  const std::vector<GridIndex::CellRange> cells{{0, 3}};
  GroupAdjacencyHost adj;
  adj.group_offsets = {0, 4};
  adj.ranges = {{0, 3, 0}, {2, 4, 0}};  // [0,3) and [2,4) overlap
  adj.offsets = {0, 2};
  adj.weights = {7};
  EXPECT_DEATH(validate::group_adjacency(adj, cells.data(), 4,
                                         "overlapping candidate ranges"),
               "SJ_CHECK violation.*overlapping candidate ranges");
}

TEST(ContractsDeath, CellAdjacencyValidatorRejectsNonMonotoneOffsets) {
  const std::vector<GridIndex::CellRange> cells{{0, 1}, {2, 3}};
  GroupAdjacencyHost adj;
  adj.group_offsets = {0, 2, 4};
  adj.ranges = {{0, 2, 0}};
  adj.offsets = {0, 1, 0};  // CSR must be non-decreasing and end at size
  adj.weights = {2, 0};
  EXPECT_DEATH(validate::group_adjacency(adj, cells.data(), 4,
                                         "broken csr offsets"),
               "SJ_CHECK violation.*broken csr offsets");
}

TEST(ContractsDeath, CellAdjacencyValidatorRejectsOffsetDriftedFromCell) {
  const std::vector<GridIndex::CellRange> cells{{0, 1}, {2, 3}};
  GroupAdjacencyHost adj;
  adj.group_offsets = {0, 2, 4};
  adj.ranges = {{0, 4, 0}, {0, 4, 0}};
  adj.offsets = {0, 1, 2};
  adj.weights = {8, 8};
  validate::group_adjacency(adj, cells.data(), 4, "intact cell groups");
  adj.group_offsets[1] = 3;  // group 1 no longer starts at cell 1's slots
  EXPECT_DEATH(validate::group_adjacency(adj, cells.data(), 4,
                                         "group offset drifted from cell"),
               "SJ_CHECK violation.*group offset drifted from cell");
}

// A join's groups are its queries in sorted order.
TEST(ContractsDeath, JoinAdjacencyValidatorRejectsDuplicateQueryOrder) {
  GroupAdjacencyHost adj;
  adj.query_order = {0, 0};  // query 1 lost, query 0 doubled
  adj.group_offsets = {0, 2};
  adj.ranges = {{0, 2, 0}};
  adj.offsets = {0, 1};
  adj.weights = {4};
  EXPECT_DEATH(validate::group_adjacency(adj, nullptr, 4,
                                         "query order not a permutation"),
               "SJ_CHECK violation.*query order not a permutation");
}

TEST(ContractsDeath, JoinAdjacencyValidatorRejectsEmptyGroup) {
  GroupAdjacencyHost adj;
  adj.query_order = {0, 1};
  adj.group_offsets = {0, 2, 2};  // second group holds no queries
  adj.ranges = {{0, 2, 0}, {2, 3, 0}};
  adj.offsets = {0, 1, 2};
  adj.weights = {4, 1};
  EXPECT_DEATH(
      validate::group_adjacency(adj, nullptr, 4, "empty query group"),
      "SJ_CHECK violation.*empty query group");
}

// ------------------------------------------------- shard plan validators

TEST(Contracts, ShardBoundariesValidatorAcceptsRealPlan) {
  const std::vector<std::uint64_t> weights{4, 1, 1, 9, 2, 2};
  const std::vector<std::uint32_t> bounds = plan_shard_boundaries(weights, 3);
  validate::shard_boundaries(bounds, weights.size(), "planned boundaries");
}

TEST(ContractsDeath, ShardBoundariesValidatorRejectsEmptyShard) {
  const std::vector<std::uint32_t> bounds{0, 2, 2, 4};  // shard 1 owns nothing
  EXPECT_DEATH(validate::shard_boundaries(bounds, 4, "empty shard"),
               "SJ_CHECK violation.*empty shard");
}

TEST(ContractsDeath, ShardBoundariesValidatorRejectsUncoveredUnits) {
  const std::vector<std::uint32_t> bounds{0, 2, 3};  // unit 3 unowned
  EXPECT_DEATH(validate::shard_boundaries(bounds, 4, "uncovered units"),
               "SJ_CHECK violation.*uncovered units");
}

/// A two-unit slice over slots [0, 2) with one halo interval [2, 4).
ShardSlice tiny_slice() {
  const std::vector<CandidateRange> ranges{{0, 2, 0}, {1, 4, 0}};
  const std::vector<std::uint64_t> offsets{0, 1, 2};
  const std::vector<std::uint64_t> weights{3, 5};
  return make_shard_slice(ranges, offsets, weights, 0, 2, 0, 2);
}

TEST(Contracts, ShardSliceValidatorAcceptsRealSlice) {
  const ShardSlice slice = tiny_slice();
  validate::shard_slice(slice, 4, "well-formed slice");
}

TEST(ContractsDeath, ShardSliceValidatorRejectsBrokenHaloNumbering) {
  ShardSlice slice = tiny_slice();
  ASSERT_FALSE(slice.halo.empty());
  slice.halo[0].local_begin += 1;  // halo no longer follows the owned span
  EXPECT_DEATH(validate::shard_slice(slice, 4, "broken halo numbering"),
               "SJ_CHECK violation.*broken halo numbering");
}

TEST(ContractsDeath, ShardSliceValidatorRejectsHaloInsideOwnedSpan) {
  ShardSlice slice = tiny_slice();
  ASSERT_FALSE(slice.halo.empty());
  slice.halo[0].begin = 1;  // [1, 4) now overlaps the owned span [0, 2)
  EXPECT_DEATH(validate::shard_slice(slice, 4, "halo inside owned span"),
               "SJ_CHECK violation.*halo inside owned span");
}

TEST(ContractsDeath, ShardSliceValidatorRejectsRangePastLocalSlots) {
  ShardSlice slice = tiny_slice();
  ASSERT_FALSE(slice.ranges.empty());
  slice.ranges.back().end = slice.local_points() + 1;
  EXPECT_DEATH(validate::shard_slice(slice, 4, "range past local slots"),
               "SJ_CHECK violation.*range past local slots");
}

// ---------------------------------------------------- api finalize layer

TEST(ContractsDeath, FinalizeOutcomeRejectsKeyOutsideKeySpace) {
  EXPECT_DEATH(
      {
        contracts::set_runtime_checks(true);
        api::JoinOutcome out;
        ResultSet pairs;
        pairs.add(/*key=*/7, /*value=*/0);  // key space is [0, 4)
        api::finalize_outcome(out, std::move(pairs), api::RunConfig{}, 4);
      },
      "SJ_CHECK violation.*pair key must index the key space");
}

TEST(Contracts, FinalizeOutcomeHistogramCrossCheckPasses) {
  RuntimeChecksGuard guard;
  api::JoinOutcome out;
  ResultSet pairs;
  pairs.add(0, 1);
  pairs.add(1, 0);
  pairs.add(1, 1);
  api::RunConfig config;
  config.mode = ResultMode::kHistogram;
  api::finalize_outcome(out, std::move(pairs), config, 2);
  ASSERT_EQ(out.histogram.size(), 2u);
  EXPECT_EQ(out.histogram[0], 1u);
  EXPECT_EQ(out.histogram[1], 2u);
  EXPECT_EQ(out.total_pairs, 3u);
}

}  // namespace
}  // namespace sj
