#include "experiments/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace oasis {
namespace experiments {
namespace {

/// Unique temp path per test, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_("/tmp/oasis_csv_test_" + tag + ".csv") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ScoredPool MakePool() {
  ScoredPool pool;
  pool.scores = {-1.25, 0.5, 2.75};
  pool.predictions = {0, 0, 1};
  pool.threshold = 1.0;
  return pool;
}

TEST(SplitCsvLineTest, Basics) {
  const std::vector<std::string> cells = SplitCsvLine("a,b,,c");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "");
  EXPECT_EQ(SplitCsvLine("solo").size(), 1u);
  // Windows line endings are stripped.
  EXPECT_EQ(SplitCsvLine("x,y\r")[1], "y");
}

TEST(PoolCsvTest, RoundTripWithTruth) {
  TempFile file("roundtrip");
  ScoredPool pool = MakePool();
  const std::vector<uint8_t> truth{0, 1, 1};
  ASSERT_TRUE(WritePoolCsv(file.path(), pool, &truth).ok());

  LoadedPool loaded = ReadPoolCsv(file.path()).ValueOrDie();
  ASSERT_TRUE(loaded.has_truth);
  EXPECT_EQ(loaded.pool.scores, pool.scores);
  EXPECT_EQ(loaded.pool.predictions, pool.predictions);
  EXPECT_EQ(loaded.truth, truth);
  EXPECT_FALSE(loaded.pool.scores_are_probabilities);  // Scores outside [0,1].
}

TEST(PoolCsvTest, RoundTripWithoutTruth) {
  TempFile file("notruth");
  ScoredPool pool = MakePool();
  ASSERT_TRUE(WritePoolCsv(file.path(), pool).ok());
  LoadedPool loaded = ReadPoolCsv(file.path()).ValueOrDie();
  EXPECT_FALSE(loaded.has_truth);
  EXPECT_TRUE(loaded.truth.empty());
  EXPECT_EQ(loaded.pool.scores, pool.scores);
}

TEST(PoolCsvTest, UnitIntervalScoresDetectedAsProbabilities) {
  TempFile file("probs");
  ScoredPool pool;
  pool.scores = {0.1, 0.6, 0.9};
  pool.predictions = {0, 1, 1};
  pool.scores_are_probabilities = true;
  pool.threshold = 0.5;
  ASSERT_TRUE(WritePoolCsv(file.path(), pool).ok());
  LoadedPool loaded = ReadPoolCsv(file.path()).ValueOrDie();
  EXPECT_TRUE(loaded.pool.scores_are_probabilities);
  EXPECT_DOUBLE_EQ(loaded.pool.threshold, 0.5);
}

TEST(PoolCsvTest, ReadRejectsBadFiles) {
  EXPECT_FALSE(ReadPoolCsv("/tmp/oasis_csv_test_does_not_exist.csv").ok());

  TempFile file("bad");
  {
    std::ofstream out(file.path());
    out << "wrong,header\n1,2\n";
  }
  EXPECT_FALSE(ReadPoolCsv(file.path()).ok());

  {
    std::ofstream out(file.path());
    out << "score,prediction\nnot_a_number,1\n";
  }
  EXPECT_FALSE(ReadPoolCsv(file.path()).ok());

  {
    std::ofstream out(file.path());
    out << "score,prediction\n0.5,7\n";
  }
  EXPECT_FALSE(ReadPoolCsv(file.path()).ok());

  {
    std::ofstream out(file.path());
    out << "score,prediction\n0.25,0\n0.5abc,1\n";  // Trailing bytes.
  }
  const Result<LoadedPool> trailing = ReadPoolCsv(file.path());
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().message(), "ReadPoolCsv: bad score at line 3");

  {
    std::ofstream out(file.path());
    out << "score,prediction\n";  // Header only.
  }
  EXPECT_FALSE(ReadPoolCsv(file.path()).ok());
}

TEST(PoolCsvTest, WriteRejectsMismatchedTruth) {
  TempFile file("mismatch");
  ScoredPool pool = MakePool();
  const std::vector<uint8_t> short_truth{1};
  EXPECT_FALSE(WritePoolCsv(file.path(), pool, &short_truth).ok());
}

TEST(CurvesCsvTest, LongFormatOutput) {
  TempFile file("curves");
  ErrorCurve curve;
  curve.method = "OASIS-30";
  curve.budgets = {100, 200};
  curve.mean_abs_error = {0.5, 0.25};
  curve.stddev = {0.4, 0.2};
  curve.mean_estimate = {0.6, 0.62};
  curve.frac_defined = {0.9, 1.0};
  ASSERT_TRUE(WriteCurvesCsv(file.path(), {curve}).ok());

  std::ifstream in(file.path());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "method,labels,mean_abs_error,stddev,mean_estimate,frac_defined");
  std::getline(in, line);
  EXPECT_EQ(SplitCsvLine(line)[0], "OASIS-30");
  EXPECT_EQ(SplitCsvLine(line)[1], "100");
  int rows = 1;
  while (std::getline(in, line) && !line.empty()) ++rows;
  EXPECT_EQ(rows, 2);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
