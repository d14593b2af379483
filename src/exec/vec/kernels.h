#ifndef EDS_EXEC_VEC_KERNELS_H_
#define EDS_EXEC_VEC_KERNELS_H_

#include <vector>

#include "common/result.h"
#include "exec/vec/column.h"

namespace eds::exec::vec {

// Batched primitives mirroring the scalar builtins exactly: same 3VL
// behaviour, same value::Compare ordering, same errors. Any error returned
// here makes the executor fall back to the row path for the operator, so
// kernels may report errors coarsely — the row path then reproduces the
// precise per-row diagnostic.

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

// A column read at a selection: logical row r is cell (*idx)[r], or cell r
// when idx is null. Kernels take views so a filter or join residual reads
// a batch column where it lies instead of gathering it first.
struct ColumnView {
  const ColumnVector* col = nullptr;
  const SelectionVector* idx = nullptr;

  size_t Cell(size_t r) const { return idx == nullptr ? r : (*idx)[r]; }
};

// EQ/NE/LT/LE/GT/GE over `n` logical rows of two views: NULL operand ->
// NULL, otherwise Bool(pred(value::Compare)). Never errors (comparisons are
// defined across kinds via the total order).
ColumnVector CompareColumns(CmpOp op, ColumnView a, ColumnView b, size_t n);

// The same comparison against one constant, without broadcasting it:
// `a op scalar`, or `scalar op a` when scalar_left.
ColumnVector CompareScalar(CmpOp op, ColumnView a, const value::Value& scalar,
                           bool scalar_left, size_t n);

// MEMBER(elem, cell) over `n` logical rows (value::CollectionContains);
// TypeError when a cell is not a collection, NULL included, as the MEMBER
// builtin raises.
Result<ColumnVector> MemberScalar(const value::Value& elem, ColumnView coll,
                                  size_t n);

// Three-valued AND/OR/NOT over columns; errors when a row that is not
// decided by FALSE/TRUE-domination has a non-boolean operand (the scalar
// evaluator's TypeError).
Result<ColumnVector> AndColumns(const ColumnVector& a, const ColumnVector& b);
Result<ColumnVector> OrColumns(const ColumnVector& a, const ColumnVector& b);
Result<ColumnVector> NotColumn(const ColumnVector& a);

// WHERE semantics over a predicate column: row i selected iff the cell is
// a valid TRUE (NULL and FALSE dropped); a valid non-boolean cell is a
// TypeError, as in EvalPredicate.
Result<SelectionVector> SelectTrue(const ColumnVector& pred);

// Join-key hashability of a column: numeric lanes hash via the widened
// double (consistent with Int(2) == Real(2.0)), bool lanes directly,
// generic columns only when every non-null value is a string (resp. every
// non-null value numeric). kNone keys force the conjunct into the residual
// (nested-loop) filter.
// kAny marks a column with no non-null values (kNullOnly): its keys never
// match anything, so it is compatible with every class.
enum class HashClass { kNone, kNumeric, kBool, kString, kAny };
HashClass ClassifyKey(const ColumnVector& col);
// Compatible when both sides can hash equal values to equal hashes.
bool HashCompatible(HashClass a, HashClass b);
// The class HashJoin should hash a (left, right) key pair under: the
// concrete side's class when one side is kAny.
HashClass CombineClasses(HashClass a, HashClass b);
// Hash of a non-null cell under `cls` (caller guarantees !IsNull(i)).
uint64_t HashCell(const ColumnVector& col, size_t i, HashClass cls);

// Matched row-index pairs of a join stage, in (left asc, right asc)
// lexicographic order — exactly the row engine's nested-loop emission
// order.
struct JoinPairs {
  SelectionVector left, right;
};

// Hash equi-join over parallel key columns (all conjuncts must match; NULL
// keys never match). `classes[k]` is CombineClasses over the k-th key pair.
// Errors with Unsupported when the output would exceed `max_pairs` (caller
// falls back to the row path rather than materializing a blow-up).
Result<JoinPairs> HashJoin(const std::vector<const ColumnVector*>& left_keys,
                           const std::vector<const ColumnVector*>& right_keys,
                           const std::vector<HashClass>& classes,
                           size_t left_rows, size_t right_rows,
                           size_t max_pairs);

// Full cross product of row indices, same order/cap contract.
Result<JoinPairs> CrossPairs(size_t left_rows, size_t right_rows,
                             size_t max_pairs);

// Set-semantics dedup of `rows` in place (sorted output, identical to
// DedupRows) via columnar hash grouping. Returns false when the input is
// too small or ragged to be worth the conversion — the caller then runs
// the sort-based row dedup. `batches` (may be null) counts kernel batches.
bool VecDedupRows(std::vector<std::vector<value::Value>>* rows,
                  size_t* batches);

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_KERNELS_H_
