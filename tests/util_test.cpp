// Unit tests for src/util: Status/Result, string helpers, RNG, tables,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>

#include "util/file_view.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace shapestats {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kParseError, StatusCode::kNotFound,
                    StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
                    StatusCode::kIOError, StatusCode::kUnsupported,
                    StatusCode::kInternal, StatusCode::kAborted}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  ASSIGN_OR_RETURN(int h, Half(x));
  *out = h;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = -1;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status st = UseHalf(3, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out, 5);  // untouched on error
}

TEST(StringUtilTest, TrimAndAffixes) {
  EXPECT_EQ(Trim("  ab\t\n"), "ab");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("  "), "");
  EXPECT_TRUE(StartsWith("prefix:rest", "prefix:"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", ".nt"));
}

TEST(StringUtilTest, IsAsciiSpaceMatchesCLocaleIsspace) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(IsAsciiSpace(static_cast<char>(c)), std::isspace(c) != 0) << c;
  }
  EXPECT_EQ(Trim("\v\f\r x \r\f\v"), "x");
}

TEST(StringUtilTest, ReadFileReadsEveryByte) {
  std::string bytes;
  for (int i = 0; i < 70000; ++i) bytes += static_cast<char>(i % 251);
  const std::string path = ::testing::TempDir() + "/read_file.bin";
  std::ofstream(path, std::ios::binary) << bytes;
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
  Result<std::string> missing = ReadFile(path + ".missing");
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
}

// A regular file is mapped; the mapping moves with the view and an empty
// file reads as empty text.
TEST(FileViewTest, MapsAFileAndMovesWithIt) {
  std::string bytes;
  for (int i = 0; i < 70000; ++i) bytes += static_cast<char>(i % 253);
  const std::string path = ::testing::TempDir() + "/file_view.bin";
  std::ofstream(path, std::ios::binary) << bytes;
  Result<FileView> view = FileView::Open(path);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->text(), bytes);
  FileView moved = std::move(view).value();
  EXPECT_EQ(moved.text(), bytes);
  const std::string empty_path = ::testing::TempDir() + "/file_view_empty.bin";
  std::ofstream(empty_path, std::ios::binary).flush();
  Result<FileView> empty = FileView::Open(empty_path);
  ASSERT_TRUE(empty.ok());
  moved = std::move(empty).value();
  EXPECT_TRUE(moved.text().empty());
  Result<FileView> missing = FileView::Open(path + ".missing");
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);
  EXPECT_EQ(missing.status().message(), "cannot open " + path + ".missing");
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(1000000000ULL), "1,000,000,000");
}

TEST(StringUtilTest, CompactDouble) {
  EXPECT_EQ(CompactDouble(1.0), "1");
  EXPECT_EQ(CompactDouble(1.50), "1.5");
  EXPECT_EQ(CompactDouble(0.25), "0.25");
  EXPECT_EQ(CompactDouble(std::numeric_limits<double>::infinity()), "inf");
}

TEST(StringUtilTest, LiteralEscapingRoundTrips) {
  std::string raw = "line1\nline2\t\"quoted\"\\slash";
  EXPECT_EQ(UnescapeLiteral(EscapeLiteral(raw)), raw);
  EXPECT_EQ(EscapeLiteral("\n"), "\\n");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, ZipfInRangeAndSkewed) {
  Rng rng(11);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Zipf(100, 1.2);
    ASSERT_LT(v, 100u);
    counts[v]++;
  }
  // Rank 0 must dominate rank 50 by a wide margin under s=1.2.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(RngTest, ZipfHandlesSLessEqualOne) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.Zipf(50, 0.8), 50u);
  }
  EXPECT_EQ(rng.Zipf(1, 1.5), 0u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "count"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "12345"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| name      | count |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 12345 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| x | "), std::string::npos);
}

TEST(ThreadPoolTest, SequentialPoolRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_TRUE(pool.sequential());
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.ParallelFor(0, 8, [&](size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForChunksPartitionsRange) {
  util::ThreadPool pool(4);
  constexpr size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelForChunks(10, 10 + kN, /*min_chunk=*/64,
                         [&](size_t begin, size_t end) {
                           ASSERT_LE(begin, end);
                           for (size_t i = begin; i < end; ++i) {
                             hits[i - 10].fetch_add(1);
                           }
                         });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  util::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelForChunks(5, 5, 16, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SubmitExecutesTask) {
  std::atomic<bool> ran{false};
  {
    util::ThreadPool pool(3);
    pool.Submit([&] { ran.store(true); });
  }  // destructor drains the queue
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, 8, [&](size_t i) {
    pool.ParallelFor(0, 8, [&](size_t j) { sum.fetch_add(i * 8 + j); });
  });
  // sum of 0..63
  EXPECT_EQ(sum.load(), 2016u);
}

TEST(ThreadPoolTest, StatsCountTasks) {
  util::ThreadPool pool(4);
  pool.ParallelFor(0, 100, [](size_t) {});
  auto snap = pool.stats();
  EXPECT_EQ(snap.num_threads, 4u);
  EXPECT_GT(snap.tasks_executed, 0u);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(util::ThreadPool::DefaultThreads(), 1u);
  EXPECT_GE(util::ThreadPool::Shared().num_threads(), 1u);
}

}  // namespace
}  // namespace shapestats
