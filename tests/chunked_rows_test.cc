// ChunkedRows (src/trace/chunked_rows.h): the append-only chunked table
// that holds a trace's pod running records. Pins indexing, iteration,
// copy/move and Grow at and across chunk boundaries against a std::vector
// reference, that existing rows never move, and the simulator's fill
// pattern — one serial Grow, then ShardCrew::ParallelFor writing row
// base + i in place — at several lane counts. Labeled `concurrency` so
// tools/sanitize_runner.sh also runs the parallel fill under TSan and
// ASan+UBSan.
#include "src/trace/chunked_rows.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "src/common/shard_crew.h"

namespace optum {
namespace {

struct Row {
  int64_t id = 0;
  double value = 0.0;
  bool operator==(const Row&) const = default;
};

using Rows = ChunkedRows<Row>;
constexpr size_t kChunk = Rows::kChunkRows;

static_assert(std::forward_iterator<Rows::iterator>);
static_assert(std::forward_iterator<Rows::const_iterator>);

Row MakeRow(size_t i) { return Row{static_cast<int64_t>(i), 0.5 * static_cast<double>(i)}; }

// Compares size, operator[] and iteration (const and mutable) to `want`.
void ExpectRows(Rows& rows, const std::vector<Row>& want) {
  ASSERT_EQ(rows.size(), want.size());
  EXPECT_EQ(rows.empty(), want.empty());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(rows[i], want[i]) << "row " << i;
  }
  const Rows& const_rows = rows;
  size_t i = 0;
  for (const Row& row : const_rows) {
    ASSERT_EQ(row, want[i]) << "const iteration, row " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
  i = 0;
  for (Row& row : rows) {
    ASSERT_EQ(row, want[i]) << "mutable iteration, row " << i;
    ++i;
  }
  EXPECT_EQ(i, want.size());
}

TEST(ChunkedRowsTest, PushBackAcrossChunkBoundariesKeepsRowsInPlace) {
  Rows rows;
  std::vector<Row> want;
  ExpectRows(rows, want);
  rows.push_back(MakeRow(0));
  want.push_back(MakeRow(0));
  const Row* first = &rows[0];
  for (size_t i = 1; i < 2 * kChunk + 5; ++i) {
    rows.push_back(MakeRow(i));
    want.push_back(MakeRow(i));
  }
  EXPECT_EQ(&rows[0], first);  // growth never moves an existing row
  ExpectRows(rows, want);
}

TEST(ChunkedRowsTest, GrowReturnsFirstNewIndex) {
  Rows rows;
  std::vector<Row> want;
  // Grow of 0 on an empty table, of 1, of exactly one chunk, of 0 again at
  // a non-boundary size, and of ranges that straddle one and two boundaries.
  for (const size_t n : {size_t{0}, size_t{1}, kChunk, size_t{0}, kChunk - 4, size_t{7},
                         2 * kChunk + 3}) {
    SCOPED_TRACE(::testing::Message() << "Grow(" << n << ") at size " << rows.size());
    const size_t base = rows.Grow(n);
    EXPECT_EQ(base, want.size());
    for (size_t i = 0; i < n; ++i) {
      rows[base + i] = MakeRow(base + i);
      want.push_back(MakeRow(base + i));
    }
    ExpectRows(rows, want);
  }
}

TEST(ChunkedRowsTest, MutableIterationWritesRows) {
  Rows rows;
  for (size_t i = 0; i < kChunk + 9; ++i) {
    rows.push_back(MakeRow(i));
  }
  for (Row& row : rows) {
    row.value = -row.value;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].value, -MakeRow(i).value) << "row " << i;
  }
}

TEST(ChunkedRowsTest, CopyIsDeepAndMoveEmptiesTheSource) {
  Rows rows;
  std::vector<Row> want;
  for (size_t i = 0; i < kChunk + 17; ++i) {
    rows.push_back(MakeRow(i));
    want.push_back(MakeRow(i));
  }

  Rows copy(rows);
  ExpectRows(copy, want);
  copy[kChunk].value = 1e9;  // the copy owns its own chunks
  EXPECT_EQ(rows[kChunk], want[kChunk]);

  Rows assigned;
  assigned.push_back(MakeRow(99));
  assigned = rows;
  ExpectRows(assigned, want);

  Rows moved(std::move(copy));
  EXPECT_TRUE(copy.empty());  // a moved-from table is empty
  EXPECT_EQ(moved[kChunk].value, 1e9);

  Rows move_assigned;
  move_assigned = std::move(assigned);
  EXPECT_TRUE(assigned.empty());
  ExpectRows(move_assigned, want);

  // A moved-from table is reusable.
  assigned.push_back(MakeRow(5));
  ExpectRows(assigned, {MakeRow(5)});

  const Rows empty;
  Rows empty_copy(empty);
  EXPECT_TRUE(empty_copy.empty());
}

// The simulator's record path: Grow serially, then write row base + i on
// the crew. Rounds of uneven size cross two chunk boundaries, some inside
// a round, and must match a serial std::vector fill at every lane count.
TEST(ChunkedRowsTest, ParallelForFillMatchesSerialVector) {
  const std::vector<size_t> rounds = {kChunk - 100, 250, 3, kChunk + 1000, 0, 4321};
  std::vector<Row> want;
  for (const size_t n : rounds) {
    for (size_t i = 0; i < n; ++i) {
      want.push_back(MakeRow(want.size()));
    }
  }
  ASSERT_GT(want.size(), 2 * kChunk);
  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    ShardCrew crew(lanes);
    Rows rows;
    for (const size_t n : rounds) {
      const size_t base = rows.Grow(n);
      crew.ParallelFor(n, [&](size_t i) { rows[base + i] = MakeRow(base + i); });
    }
    ExpectRows(rows, want);
  }
}

}  // namespace
}  // namespace optum
