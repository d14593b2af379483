// Differential suite for the columnar batch executor: the row engine is
// the oracle (docs/executor.md). Every plan here runs twice — vectorized
// on and off — and the outputs must be byte-identical *sequences*: same
// rows, same order, same value kinds. Two corpora:
//   * an ESQL corpus over the FilmDb schema, with the rewriter both on and
//     off (four pipeline variants per query), and
//   * LERA plans over the soundness verifier's corner databases
//     (src/verify/instance.h): duplicates, NULLs, empties, seeded random
//     fills — the corners where 3VL and bag semantics diverge first.
// The suite also proves it is not vacuous: the vectorized runs must report
// batch work (exec.batches > 0) and zero fallbacks on supported shapes.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "term/parser.h"
#include "lera_corpus.h"
#include "testutil.h"
#include "verify/instance.h"

namespace eds::exec {
namespace {

using term::TermRef;

// Byte-identical sequences: order matters, value kinds matter (Int(2) and
// Real(2.0) compare equal but are different bytes on the wire).
void ExpectSameSequence(const Rows& vec, const Rows& row,
                        const std::string& label) {
  ASSERT_EQ(vec.size(), row.size()) << label;
  for (size_t i = 0; i < vec.size(); ++i) {
    ASSERT_EQ(vec[i].size(), row[i].size()) << label << " row " << i;
    for (size_t j = 0; j < vec[i].size(); ++j) {
      EXPECT_EQ(vec[i][j].kind(), row[i][j].kind())
          << label << " row " << i << " col " << j;
      EXPECT_EQ(value::Compare(vec[i][j], row[i][j]), 0)
          << label << " row " << i << " col " << j << ": "
          << vec[i][j].ToString() << " vs " << row[i][j].ToString();
    }
  }
}

// ---------------- ESQL corpus over FilmDb ----------------

const char* kEsqlCorpus[] = {
    "SELECT Winner FROM BEATS",
    "SELECT Winner, Loser FROM BEATS WHERE Winner > 3",
    "SELECT Winner FROM BEATS WHERE Winner > 2 AND Loser < 9",
    "SELECT Winner FROM BEATS WHERE Winner = 1 OR Loser = 10",
    "SELECT B1.Winner, B2.Loser FROM BEATS B1, BEATS B2 "
    "WHERE B1.Loser = B2.Winner",
    "SELECT B1.Winner, B2.Loser FROM BEATS B1, BEATS B2 "
    "WHERE B1.Loser = B2.Winner AND B1.Winner > 2",
    "SELECT Numf, Title FROM FILM WHERE Title <> 'Zorba'",
    "SELECT F.Title FROM FILM F, APPEARS_IN A WHERE F.Numf = A.Numf",
    "SELECT F.Title, B.Loser FROM FILM F, BEATS B WHERE F.Numf = B.Winner",
    "SELECT Numf FROM FILM WHERE Numf < 3",
};

TEST(VecDiffTest, EsqlCorpusMatchesRowEngine) {
  testutil::FilmDb db;
  size_t vec_batches = 0;
  for (const char* esql : kEsqlCorpus) {
    for (bool rewrite : {true, false}) {
      QueryOptions on, off;
      on.rewrite = off.rewrite = rewrite;
      on.exec_options.vectorized = true;
      off.exec_options.vectorized = false;
      auto vec = db.session.Query(esql, on);
      auto row = db.session.Query(esql, off);
      ASSERT_TRUE(vec.ok()) << esql << ": " << vec.status().ToString();
      ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
      const std::string label =
          std::string(esql) + (rewrite ? " [rewrite]" : " [raw]");
      ExpectSameSequence(vec->rows, row->rows, label);
      EXPECT_EQ(vec->exec_stats.vec_fallbacks, 0u) << label;
      EXPECT_EQ(row->exec_stats.batches, 0u) << label;  // oracle stays scalar
      vec_batches += vec->exec_stats.batches;
    }
  }
  // Not vacuous: the corpus exercised the kernels.
  EXPECT_GT(vec_batches, 0u);
}

TEST(VecDiffTest, RecursiveViewMatchesRowEngine) {
  testutil::FilmDb db;
  EDS_ASSERT_OK(db.session.ExecuteScript(R"(
    CREATE VIEW BETTER_THAN (W, L) AS (
      SELECT Winner, Loser FROM BEATS
      UNION
      SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.L = B2.W );
  )"));
  for (const char* esql :
       {"SELECT W, L FROM BETTER_THAN",
        "SELECT W FROM BETTER_THAN WHERE L = 10"}) {
    QueryOptions on, off;
    on.exec_options.vectorized = true;
    off.exec_options.vectorized = false;
    auto vec = db.session.Query(esql, on);
    auto row = db.session.Query(esql, off);
    ASSERT_TRUE(vec.ok()) << esql << ": " << vec.status().ToString();
    ASSERT_TRUE(row.ok()) << esql << ": " << row.status().ToString();
    ExpectSameSequence(vec->rows, row->rows, esql);
    EXPECT_EQ(vec->exec_stats.vec_fallbacks, 0u) << esql;
  }
}

// ---------------- LERA plans over the verifier's corner databases -------

TEST(VecDiffTest, LeraCorpusMatchesRowEngineOnCornerDatabases) {
  auto env = verify::VerifyEnv::Create(/*seed=*/42, /*random_databases=*/4);
  EDS_ASSERT_OK(env.status());
  size_t vec_batches = 0;
  size_t vec_fallbacks = 0;
  for (const char* text : testutil::kLeraCorpus) {
    auto plan = term::ParseTerm(text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    for (const auto& instance : (*env)->instances()) {
      ExecOptions on, off;
      on.vectorized = true;
      off.vectorized = false;
      Executor vec_exec(&(*env)->catalog(), instance.db.get(), on);
      Executor row_exec(&(*env)->catalog(), instance.db.get(), off);
      Result<Rows> vec = vec_exec.Execute(*plan);
      Result<Rows> row = row_exec.Execute(*plan);
      const std::string label = std::string(text) + " @" + instance.name;
      // The engines must agree on success; on error the fallback contract
      // guarantees the row path's error is the one surfaced.
      ASSERT_EQ(vec.ok(), row.ok())
          << label << ": " << (vec.ok() ? row.status() : vec.status())
                 .ToString();
      if (!vec.ok()) continue;
      ExpectSameSequence(*vec, *row, label);
      EXPECT_EQ(row_exec.stats().batches, 0u) << label;
      vec_batches += vec_exec.stats().batches;
      vec_fallbacks += vec_exec.stats().vec_fallbacks;
    }
  }
  EXPECT_GT(vec_batches, 0u);
  // Every corpus shape is kernel-supported: nothing fell back to the oracle.
  EXPECT_EQ(vec_fallbacks, 0u);
}

// The ExecStats charge model must not depend on which engine ran: logical
// qualification counts and scan counts are engine-invariant (the span args
// batch_count/rows_per_batch carry the kernel-level detail instead).
TEST(VecDiffTest, ScanAndOutputTalliesMatchRowEngine) {
  testutil::FilmDb db;
  auto plan = term::ParseTerm(
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), "
      "($1.2 = $2.1), LIST($1.1, $2.2))");
  ASSERT_TRUE(plan.ok());
  ExecStats vec_stats, row_stats;
  ExecOptions on, off;
  on.vectorized = true;
  off.vectorized = false;
  ASSERT_TRUE(db.session.Run(*plan, on, &vec_stats).ok());
  ASSERT_TRUE(db.session.Run(*plan, off, &row_stats).ok());
  EXPECT_EQ(vec_stats.rows_scanned, row_stats.rows_scanned);
  EXPECT_EQ(vec_stats.rows_output, row_stats.rows_output);
  EXPECT_GT(vec_stats.batches, 0u);
  EXPECT_EQ(row_stats.batches, 0u);
}

// Plans whose filters refine one selection vector instead of gathering
// after every conjunct: many column-vs-literal conjuncts (literal on
// either side, int/real/string literals against int columns), MEMBER of a
// literal in a set-valued column, and joins whose residual conjuncts
// narrow the matched pairs. Compared as rendered text, so value kinds and
// row order both count.
TEST(VecDiffTest, SelectionVectorFiltersMatchRowEngine) {
  testutil::FilmDb db;
  const char* kPlans[] = {
      // 10 literal conjuncts over one input.
      "SEARCH(LIST(RELATION('BEATS')), (($1.1 > 1) AND ($1.1 < 9) AND "
      "($1.2 <> 5) AND (2 <= $1.2) AND ($1.1 <> 7) AND ($1.2 >= 3) AND "
      "(10 > $1.1) AND ($1.1 < 8.5) AND ($1.1 <> 'x') AND ($1.2 = $1.2)), "
      "LIST($1.2, $1.1))",
      // MEMBER(literal, column), plain and negated, in SEARCH and FILTER.
      "SEARCH(LIST(RELATION('FILM')), MEMBER('Adventure', $1.3), "
      "LIST($1.1, $1.2))",
      "SEARCH(LIST(RELATION('FILM')), ((NOT MEMBER('Science Fiction', $1.3)) "
      "AND ($1.1 > 0)), LIST($1.2, $1.3))",
      "FILTER(RELATION('FILM'), MEMBER('Comedy', $1.3))",
      // Joins with residual conjuncts after the equi key, including
      // literal and MEMBER residuals on a later input.
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS')), "
      "(($1.2 = $2.1) AND ($1.1 < $2.2) AND ($2.2 <> 6) AND ($1.1 <> 4)), "
      "LIST($2.2, $1.1))",
      "SEARCH(LIST(RELATION('BEATS'), RELATION('BEATS'), RELATION('FILM')), "
      "(($1.2 = $2.1) AND ($3.1 = $1.1) AND ($1.1 < $2.2) AND "
      "MEMBER('Adventure', $3.3) AND ($2.1 <> $3.1)), "
      "LIST($1.1, $2.2, $3.2))",
      "JOIN(RELATION('BEATS'), RELATION('BEATS'), "
      "(($1.2 = $2.1) AND ($1.1 < $2.2) AND ($1.1 <> 4) AND (3 < $2.2)))",
  };
  for (const char* text : kPlans) {
    auto plan = term::ParseTerm(text);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    ExecOptions on, off;
    on.vectorized = true;
    off.vectorized = false;
    ExecStats vec_stats, row_stats;
    auto vec = db.session.Run(*plan, on, &vec_stats);
    auto row = db.session.Run(*plan, off, &row_stats);
    ASSERT_TRUE(vec.ok()) << text << ": " << vec.status().ToString();
    ASSERT_TRUE(row.ok()) << text << ": " << row.status().ToString();
    ASSERT_FALSE(row->empty()) << text;  // not vacuous
    ExpectSameSequence(*vec, *row, text);
    for (size_t i = 0; i < vec->size() && i < row->size(); ++i) {
      for (size_t j = 0; j < (*vec)[i].size(); ++j) {
        EXPECT_EQ((*vec)[i][j].ToString(), (*row)[i][j].ToString()) << text;
      }
    }
    EXPECT_EQ(vec_stats.vec_fallbacks, 0u) << text;
    EXPECT_GT(vec_stats.batches, 0u) << text;
    EXPECT_EQ(row_stats.batches, 0u) << text;
  }
}

}  // namespace
}  // namespace eds::exec
