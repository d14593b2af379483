#ifndef EDS_EXEC_VEC_VEC_EVAL_H_
#define EDS_EXEC_VEC_VEC_EVAL_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/expr_eval.h"
#include "exec/vec/column.h"
#include "exec/vec/kernels.h"
#include "term/term.h"

namespace eds::exec::vec {

// Shared so ATTR references can alias a batch column without copying it.
using ColumnPtr = std::shared_ptr<const ColumnVector>;

// Batch evaluation context: `rows` logical rows over the operator's bound
// inputs. ATTR(i, j) reads column j of inputs[i-1] at that input's row
// index (logical row r is cell rows[r], or cell r when rows is null), so a
// filter or join residual evaluates over a selection of its inputs'
// columns without gathering them first.
struct ExprFrame {
  struct Input {
    const ColumnVector* cols = nullptr;  // the input's first column
    uint32_t width = 0;
    const SelectionVector* rows = nullptr;
    // Length of the input's materialized columns. A column a stage did not
    // materialize (nothing later reads it) is empty, and reading it is an
    // error rather than an out-of-bounds access.
    size_t cells = 0;
  };
  size_t rows = 0;
  std::vector<Input> inputs;
  const Database* db = nullptr;
  const value::FunctionLibrary* library = nullptr;

  // Input over columns [first, first + width) of `batch`.
  static Input Over(const Batch& batch, uint32_t first, uint32_t width,
                    const SelectionVector* rows) {
    return Input{batch.cols.data() + first, width, rows, batch.rows};
  }
};

// Evaluates a scalar expression over every logical row of the frame.
// Comparisons and AND/OR/NOT run as columnar kernels; a comparison or
// MEMBER(literal, column) against a constant runs a column-vs-scalar kernel
// reading the column where it lies; other constants broadcast; ATTR aliases
// the input column zero-copy (gathers it when the input has a row index);
// everything else (FIELD, VALUE, quantifiers, function calls, collection
// literals) evaluates per row through the scalar EvalExpr, so semantics
// cannot drift. Errors make the calling operator fall back to the row
// path, which reproduces the precise per-row diagnostic; note a batched
// AND/OR evaluates both operands, so a row the scalar path would have
// short-circuited past can surface an error here — the fallback then
// yields the scalar path's (error-free) answer.
Result<ColumnPtr> EvalExprBatch(const term::TermRef& expr,
                                const ExprFrame& frame);

// Qualification semantics over the frame: the logical rows whose predicate
// is a valid TRUE (NULL counts as false, non-boolean is a TypeError),
// ascending.
Result<SelectionVector> EvalPredicateBatch(const term::TermRef& qual,
                                           const ExprFrame& frame);

// out[i] = base[sel[i]]: narrows a row index by a selection over it.
SelectionVector Compose(const SelectionVector& base,
                        const SelectionVector& sel);

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_VEC_EVAL_H_
