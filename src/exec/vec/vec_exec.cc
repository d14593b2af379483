#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "exec/vec/kernels.h"
#include "exec/vec/vec_eval.h"
#include "lera/lera.h"

// Vectorized implementations of the executor's relational operators.
// Contract with the row path: results (rows, values, ordering, errors the
// user sees) are byte-identical. Anything a kernel cannot reproduce —
// ragged intermediates, hash-incompatible join keys, per-row errors,
// output blow-ups past the batch caps — returns a non-OK status and the
// caller reruns the row-path oracle. Only ResourceExhausted (a governor
// trip) is final.

namespace eds::exec {

using term::TermList;
using term::TermRef;
using value::Value;

namespace {

// Pair-count caps: past these a batched join materializes index vectors
// large enough that the row path's streaming loop is the safer choice.
constexpr size_t kMaxCrossPairs = size_t{1} << 22;
constexpr size_t kMaxJoinPairs = size_t{1} << 24;

// Largest input index referenced by an expression (0 if none); mirrors the
// helper in operators.cc.
int64_t MaxInputIndex(const TermRef& expr) {
  std::vector<lera::AttrRef> attrs;
  lera::CollectAttrs(expr, &attrs);
  int64_t max = 0;
  for (const lera::AttrRef& a : attrs) max = std::max(max, a.input);
  return max;
}

struct StageCtx {
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;
  ExecStats* stats = nullptr;
};

// Which columns of each input (inputs[i][j]: column j + 1 of input i + 1)
// some expression still reads.
using ColumnNeeds = std::vector<std::vector<bool>>;

void MarkNeeds(const TermRef& expr, ColumnNeeds* needs) {
  std::vector<lera::AttrRef> attrs;
  lera::CollectAttrs(expr, &attrs);
  for (const lera::AttrRef& a : attrs) {
    if (a.input < 1 || static_cast<size_t>(a.input) > needs->size()) continue;
    std::vector<bool>& cols = (*needs)[static_cast<size_t>(a.input) - 1];
    if (a.column >= 1 && static_cast<size_t>(a.column) <= cols.size()) {
      cols[static_cast<size_t>(a.column) - 1] = true;
    }
  }
}

vec::ExprFrame MakeFrame(size_t rows, const StageCtx& sc) {
  vec::ExprFrame frame;
  frame.rows = rows;
  frame.db = sc.db;
  frame.library = sc.library;
  return frame;
}

// Appends inputs 1..offsets.size()-1 of the combination batch `left`, read
// at `rows` (null: every row).
void AddLeftInputs(const vec::Batch& left, const std::vector<uint32_t>& offsets,
                   const vec::SelectionVector* rows, vec::ExprFrame* frame) {
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    frame->inputs.push_back(vec::ExprFrame::Over(
        left, offsets[i], offsets[i + 1] - offsets[i], rows));
  }
}

// A frame where input `k` is the only bound input, read at `rows` (null:
// every row); inputs 1..k-1 get zero-width ranges, so a stray reference to
// them errors instead of aliasing the wrong column.
vec::ExprFrame RightFrame(const vec::Batch& batch,
                          const vec::SelectionVector* rows, size_t k,
                          const StageCtx& sc) {
  vec::ExprFrame frame =
      MakeFrame(rows == nullptr ? batch.rows : rows->size(), sc);
  frame.inputs.resize(k - 1);
  frame.inputs.push_back(vec::ExprFrame::Over(
      batch, 0, static_cast<uint32_t>(batch.cols.size()), rows));
  return frame;
}

// One nested-loop level, vectorized: extends the combination batch `left`
// (columns of inputs 1..k-1, rows in lexicographic combination order) with
// input k. `conjuncts` are this level's conjuncts (every one references
// input k and nothing higher). They split into
//   - rhs-only conjuncts (reference input k alone): narrow input k's row
//     selection;
//   - equi conjuncts (EQ with one side over inputs 1..k-1 and the other
//     over input k, hash-compatible keys): one multi-key hash join;
//   - everything else: residual filters narrowing the matched pairs.
// Filters only ever refine row indices; column data is gathered once, at
// the end, and only for the columns `needs` marks (read by a later stage
// or the output) — the others stay empty. The hash join emits pairs in
// (left asc, right asc) order and every refinement keeps order, so the
// combined batch is in exactly the row engine's emission order. `offsets`
// (size k) gains input k's width on return.
Result<vec::Batch> JoinStage(const vec::Batch& left,
                             std::vector<uint32_t>* offsets,
                             const vec::Batch& right, size_t k,
                             const TermList& conjuncts,
                             const ColumnNeeds& needs, const StageCtx& sc) {
  TermList rhs_only, residual;
  std::vector<std::array<TermRef, 2>> equi;  // {prev-side, k-side}
  for (const TermRef& c : conjuncts) {
    std::vector<lera::AttrRef> attrs;
    lera::CollectAttrs(c, &attrs);
    bool refs_prev = false;
    for (const lera::AttrRef& a : attrs) {
      if (a.input < static_cast<int64_t>(k)) {
        refs_prev = true;
        break;
      }
    }
    if (!refs_prev) {
      rhs_only.push_back(c);
      continue;
    }
    bool is_equi = false;
    if (c->is_apply() && c->functor() == term::kEq && c->args().size() == 2) {
      auto side = [&](const TermRef& s) {
        std::vector<lera::AttrRef> sa;
        lera::CollectAttrs(s, &sa);
        bool prev = false, cur = false;
        for (const lera::AttrRef& a : sa) {
          if (a.input == static_cast<int64_t>(k)) {
            cur = true;
          } else {
            prev = true;
          }
        }
        return prev ? (cur ? 3 : 1) : (cur ? 2 : 0);
      };
      const int lc = side(c->arg(0)), rc = side(c->arg(1));
      if (lc == 1 && rc == 2) {
        equi.push_back({c->arg(0), c->arg(1)});
        is_equi = true;
      } else if (lc == 2 && rc == 1) {
        equi.push_back({c->arg(1), c->arg(0)});
        is_equi = true;
      }
    }
    if (!is_equi) residual.push_back(c);
  }

  // Input k's surviving rows; null until a filter narrows them.
  vec::SelectionVector right_sel;
  const vec::SelectionVector* right_rows = nullptr;
  for (const TermRef& c : rhs_only) {
    vec::ExprFrame rf = RightFrame(right, right_rows, k, sc);
    sc.stats->qual_evaluations += rf.rows;
    EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                         vec::EvalPredicateBatch(c, rf));
    ++sc.stats->batches;
    sc.stats->vec_rows += rf.rows;
    right_sel = right_rows == nullptr ? std::move(sel)
                                      : vec::Compose(right_sel, sel);
    right_rows = &right_sel;
  }
  const size_t right_count =
      right_rows == nullptr ? right.rows : right_rows->size();

  vec::JoinPairs pairs;
  if (left.rows != 0 && right_count != 0) {
    std::vector<vec::ColumnPtr> lcols, rcols;
    std::vector<const vec::ColumnVector*> lraw, rraw;
    std::vector<vec::HashClass> classes;
    if (!equi.empty()) {
      vec::ExprFrame lf = MakeFrame(left.rows, sc);
      AddLeftInputs(left, *offsets, nullptr, &lf);
      vec::ExprFrame rf = RightFrame(right, right_rows, k, sc);
      for (const auto& [prev_side, cur_side] : equi) {
        EDS_ASSIGN_OR_RETURN(vec::ColumnPtr lc,
                             vec::EvalExprBatch(prev_side, lf));
        EDS_ASSIGN_OR_RETURN(vec::ColumnPtr rc,
                             vec::EvalExprBatch(cur_side, rf));
        const vec::HashClass ca = vec::ClassifyKey(*lc);
        const vec::HashClass cb = vec::ClassifyKey(*rc);
        if (!vec::HashCompatible(ca, cb)) {
          // Tuples or mixed-kind keys: compare pairwise instead.
          residual.push_back(term::Term::Apply(
              term::kEq, {prev_side, cur_side}));
          continue;
        }
        // Charged as logical qualification applications — the pairings the
        // row engine would have probed (|left| x |right|) — not the O(n+m)
        // hash-join work, so cost comparisons against the row path (e.g.
        // semi-naive vs naive deltas) stay meaningful.
        sc.stats->qual_evaluations += left.rows * right_count;
        lcols.push_back(lc);
        rcols.push_back(rc);
        lraw.push_back(lc.get());
        rraw.push_back(rc.get());
        classes.push_back(vec::CombineClasses(ca, cb));
      }
    }
    if (!lraw.empty()) {
      EDS_ASSIGN_OR_RETURN(pairs,
                           vec::HashJoin(lraw, rraw, classes, left.rows,
                                         right_count, kMaxJoinPairs));
    } else {
      EDS_ASSIGN_OR_RETURN(
          pairs, vec::CrossPairs(left.rows, right_count, kMaxCrossPairs));
    }
  }
  ++sc.stats->batches;
  sc.stats->vec_rows += pairs.left.size();
  // The pairs index the selected rows of input k; map them to its cells.
  if (right_rows != nullptr) {
    for (uint32_t& r : pairs.right) r = right_sel[r];
  }

  for (const TermRef& c : residual) {
    vec::ExprFrame cf = MakeFrame(pairs.left.size(), sc);
    AddLeftInputs(left, *offsets, &pairs.left, &cf);
    cf.inputs.push_back(vec::ExprFrame::Over(
        right, 0, static_cast<uint32_t>(right.cols.size()), &pairs.right));
    sc.stats->qual_evaluations += cf.rows;
    EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                         vec::EvalPredicateBatch(c, cf));
    ++sc.stats->batches;
    sc.stats->vec_rows += cf.rows;
    pairs.left = vec::Compose(pairs.left, sel);
    pairs.right = vec::Compose(pairs.right, sel);
  }

  const uint32_t right_width = static_cast<uint32_t>(right.cols.size());
  offsets->push_back(offsets->back() + right_width);
  vec::Batch combined;
  combined.rows = pairs.left.size();
  combined.cols.resize(offsets->back());
  for (size_t i = 0; i < k; ++i) {
    const bool is_right = i + 1 == k;
    const vec::Batch& src = is_right ? right : left;
    const vec::SelectionVector& at = is_right ? pairs.right : pairs.left;
    const uint32_t first = is_right ? 0 : (*offsets)[i];
    for (uint32_t j = 0; j < (*offsets)[i + 1] - (*offsets)[i]; ++j) {
      if (needs[i][j]) {
        combined.cols[(*offsets)[i] + j] = src.cols[first + j].Gather(at);
      }
    }
  }
  return combined;
}

// Runs the nested-loop levels 1..n over the inputs' batches, level k's
// conjuncts applied at stage k, and returns the combination batch: one
// column per input column, rows in the row engine's emission order. Only
// the columns `output` marks, or a later stage reads, are materialized.
Result<vec::Batch> RunStages(const std::vector<const vec::Batch*>& inputs,
                             const std::vector<TermList>& conjuncts_at,
                             ColumnNeeds output, const StageCtx& sc,
                             gov::QueryGuard* guard) {
  const size_t n = inputs.size();
  // needs_after[k]: what stages after k and the output read.
  std::vector<ColumnNeeds> needs_after(n + 1);
  needs_after[n] = std::move(output);
  for (size_t k = n; k > 1; --k) {
    needs_after[k - 1] = needs_after[k];
    for (const TermRef& c : conjuncts_at[k]) MarkNeeds(c, &needs_after[k - 1]);
  }
  // The combination batch starts as the empty prefix (one row, no
  // columns) and gains one input per stage.
  vec::Batch acc;
  acc.rows = 1;
  std::vector<uint32_t> offsets{0};
  for (size_t k = 1; k <= n; ++k) {
    if (guard != nullptr && guard->Check()) return guard->TripStatus();
    EDS_ASSIGN_OR_RETURN(acc, JoinStage(acc, &offsets, *inputs[k - 1], k,
                                        conjuncts_at[k], needs_after[k], sc));
    if (acc.rows == 0) break;
  }
  return acc;
}

// Evaluates the projection list over the frame and assembles output rows.
Result<Rows> ProjectRows(const TermList& projections,
                         const vec::ExprFrame& frame, ExecStats* stats) {
  std::vector<vec::ColumnPtr> cols;
  cols.reserve(projections.size());
  for (const TermRef& p : projections) {
    EDS_ASSIGN_OR_RETURN(vec::ColumnPtr col, vec::EvalExprBatch(p, frame));
    ++stats->batches;
    stats->vec_rows += frame.rows;
    cols.push_back(std::move(col));
  }
  Rows out;
  out.reserve(frame.rows);
  for (size_t r = 0; r < frame.rows; ++r) {
    Row row;
    row.reserve(cols.size());
    for (const vec::ColumnPtr& col : cols) row.push_back(col->ValueAt(r));
    out.push_back(std::move(row));
  }
  return out;
}

ColumnNeeds NoNeeds(const std::vector<const vec::Batch*>& inputs) {
  ColumnNeeds needs;
  for (const vec::Batch* b : inputs) needs.emplace_back(b->cols.size(), false);
  return needs;
}

}  // namespace

Result<Rows> Executor::SearchWithInputsMaybeVec(
    const term::TermRef& search, const std::vector<const Rows*>& inputs,
    const std::vector<const vec::Batch*>& batches) {
  if (options_.vectorized) {
    ExecStats saved = stats_;
    Result<Rows> out = EvalSearchWithInputsVec(search, inputs, batches);
    if (out.ok() || out.status().code() == StatusCode::kResourceExhausted) {
      return out;
    }
    stats_ = saved;
    ++stats_.vec_fallbacks;
  }
  return EvalSearchWithInputs(search, inputs);
}

Result<Rows> Executor::EvalSearchWithInputsVec(
    const term::TermRef& search, const std::vector<const Rows*>& inputs,
    const std::vector<const vec::Batch*>& batches) {
  EDS_ASSIGN_OR_RETURN(TermRef qual, lera::SearchQual(search));
  EDS_ASSIGN_OR_RETURN(TermList projections, lera::SearchProjections(search));
  const size_t n = inputs.size();
  std::vector<TermList> conjuncts_at(n + 1);
  for (const TermRef& c : term::Conjuncts(qual)) {
    const int64_t level = MaxInputIndex(c);
    if (level < 0 || static_cast<size_t>(level) > n) {
      return Status::RuntimeError("qualification references input beyond " +
                                  std::to_string(n));
    }
    conjuncts_at[static_cast<size_t>(level)].push_back(c);
  }

  // Level-0 conjuncts are input-independent: evaluated once, scalar,
  // exactly as the row path does (including its errors, which are real).
  EvalContext ctx0 = MakeExprContext();
  ctx0.current.assign(n, nullptr);
  for (const TermRef& c : conjuncts_at[0]) {
    ++stats_.qual_evaluations;
    EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx0));
    if (!ok) return Rows{};
  }

  // Columnar images of the inputs: stored tables arrive as cached batches,
  // everything else (fixpoint deltas, materialized subtrees) converts here.
  std::vector<vec::Batch> converted(n);
  std::vector<const vec::Batch*> in_batches(n);
  for (size_t i = 0; i < n; ++i) {
    if (batches[i] != nullptr) {
      in_batches[i] = batches[i];
      continue;
    }
    if (!vec::Batch::FromRows(*inputs[i], &converted[i])) {
      return Status::Unsupported("ragged input rows");
    }
    in_batches[i] = &converted[i];
  }
  for (size_t i = 0; i < n; ++i) {
    if (in_batches[i]->rows == 0) return Rows{};
  }

  StageCtx sc{db_, &catalog_->functions(), &stats_};
  ColumnNeeds output = NoNeeds(in_batches);
  for (const TermRef& p : projections) MarkNeeds(p, &output);
  EDS_ASSIGN_OR_RETURN(vec::Batch acc,
                       RunStages(in_batches, conjuncts_at, std::move(output),
                                 sc, options_.guard));
  if (acc.rows == 0) return Rows{};

  vec::ExprFrame pf = MakeFrame(acc.rows, sc);
  uint32_t first = 0;
  for (const vec::Batch* b : in_batches) {
    const uint32_t width = static_cast<uint32_t>(b->cols.size());
    pf.inputs.push_back(vec::ExprFrame::Over(acc, first, width, nullptr));
    first += width;
  }
  return ProjectRows(projections, pf, &stats_);
}

Result<const Rows*> Executor::ChildRows(const term::TermRef& t,
                                        const FixEnv& env, Rows* owned,
                                        const vec::Batch** batch,
                                        bool* borrowed) {
  if (const Rows* stored = TryBorrowStoredRows(t, env, batch)) {
    *borrowed = true;
    return stored;
  }
  *batch = nullptr;
  *borrowed = false;
  Result<Rows> rows = Eval(t, env);
  EDS_RETURN_IF_ERROR(rows.status());
  *owned = std::move(*rows);
  return owned;
}

Result<Rows> Executor::EvalFilterVec(const term::TermRef& t,
                                     const FixEnv& env) {
  Rows owned;
  const vec::Batch* tb = nullptr;
  bool borrowed = false;
  EDS_ASSIGN_OR_RETURN(const Rows* child,
                       ChildRows(t->arg(0), env, &owned, &tb, &borrowed));
  vec::Batch conv;
  if (tb == nullptr) {
    if (!vec::Batch::FromRows(*child, &conv)) {
      return Status::Unsupported("ragged filter input");
    }
    tb = &conv;
  }
  StageCtx sc{db_, &catalog_->functions(), &stats_};
  vec::ExprFrame frame = RightFrame(*tb, nullptr, 1, sc);
  stats_.qual_evaluations += tb->rows;
  EDS_ASSIGN_OR_RETURN(vec::SelectionVector sel,
                       vec::EvalPredicateBatch(t->arg(1), frame));
  ++stats_.batches;
  stats_.vec_rows += tb->rows;
  Rows out = tb->ToRows(&sel);
  // The row path charges borrowed children through the child's Eval; the
  // vectorized path charges at the end so a fallback never double-counts.
  if (borrowed && options_.guard != nullptr &&
      options_.guard->AddRows(child->size())) {
    return options_.guard->TripStatus();
  }
  return out;
}

Result<Rows> Executor::EvalProjectVec(const term::TermRef& t,
                                      const FixEnv& env) {
  if (!t->arg(1)->IsApply(term::kList)) {
    return Status::InvalidArgument("malformed PROJECT");
  }
  Rows owned;
  const vec::Batch* tb = nullptr;
  bool borrowed = false;
  EDS_ASSIGN_OR_RETURN(const Rows* child,
                       ChildRows(t->arg(0), env, &owned, &tb, &borrowed));
  vec::Batch conv;
  if (tb == nullptr) {
    if (!vec::Batch::FromRows(*child, &conv)) {
      return Status::Unsupported("ragged project input");
    }
    tb = &conv;
  }
  StageCtx sc{db_, &catalog_->functions(), &stats_};
  EDS_ASSIGN_OR_RETURN(
      Rows out,
      ProjectRows(t->arg(1)->args(), RightFrame(*tb, nullptr, 1, sc), &stats_));
  if (borrowed && options_.guard != nullptr &&
      options_.guard->AddRows(child->size())) {
    return options_.guard->TripStatus();
  }
  return out;
}

Result<Rows> Executor::EvalJoinVec(const term::TermRef& t, const FixEnv& env) {
  Rows owned_a, owned_b;
  const vec::Batch* ba = nullptr;
  const vec::Batch* bb = nullptr;
  bool borrowed_a = false, borrowed_b = false;
  EDS_ASSIGN_OR_RETURN(
      const Rows* a, ChildRows(t->arg(0), env, &owned_a, &ba, &borrowed_a));
  EDS_ASSIGN_OR_RETURN(
      const Rows* b, ChildRows(t->arg(1), env, &owned_b, &bb, &borrowed_b));
  vec::Batch conv_a, conv_b;
  if (ba == nullptr) {
    if (!vec::Batch::FromRows(*a, &conv_a)) {
      return Status::Unsupported("ragged join input");
    }
    ba = &conv_a;
  }
  if (bb == nullptr) {
    if (!vec::Batch::FromRows(*b, &conv_b)) {
      return Status::Unsupported("ragged join input");
    }
    bb = &conv_b;
  }

  Rows out;
  if (!a->empty() && !b->empty()) {
    std::vector<TermList> conjuncts_at(3);
    for (const TermRef& c : term::Conjuncts(t->arg(2))) {
      const int64_t level = MaxInputIndex(c);
      if (level < 0 || level > 2) {
        return Status::RuntimeError(
            "join qualification references input beyond 2");
      }
      conjuncts_at[static_cast<size_t>(level)].push_back(c);
    }
    EvalContext ctx0 = MakeExprContext();
    ctx0.current.assign(2, nullptr);
    bool level0_false = false;
    for (const TermRef& c : conjuncts_at[0]) {
      ++stats_.qual_evaluations;
      EDS_ASSIGN_OR_RETURN(bool ok, EvalPredicate(c, &ctx0));
      if (!ok) {
        level0_false = true;
        break;
      }
    }
    if (!level0_false) {
      // A JOIN is a two-input SEARCH that outputs every column.
      const std::vector<const vec::Batch*> in_batches{ba, bb};
      ColumnNeeds output = NoNeeds(in_batches);
      for (std::vector<bool>& cols : output) cols.assign(cols.size(), true);
      StageCtx sc{db_, &catalog_->functions(), &stats_};
      EDS_ASSIGN_OR_RETURN(vec::Batch combined,
                           RunStages(in_batches, conjuncts_at,
                                     std::move(output), sc, options_.guard));
      out = combined.ToRows();
    }
  }
  const size_t charge =
      (borrowed_a ? a->size() : 0) + (borrowed_b ? b->size() : 0);
  if (charge > 0 && options_.guard != nullptr &&
      options_.guard->AddRows(charge)) {
    return options_.guard->TripStatus();
  }
  return out;
}

void Executor::DedupMaybeVec(Rows* rows) {
  const size_t before = rows->size();
  if (options_.vectorized && vec::VecDedupRows(rows, &stats_.batches)) {
    stats_.vec_rows += before;
    return;
  }
  DedupRows(rows);
}

}  // namespace eds::exec
