#include "exec/vec/vec_eval.h"

#include <string>
#include <utility>

#include "lera/lera.h"

namespace eds::exec::vec {

using term::TermRef;
using value::Value;

namespace {

// Column `a` of the frame, read at its input's row index.
Result<ColumnView> ResolveAttr(const lera::AttrRef& a, const ExprFrame& frame) {
  if (a.input < 1 || static_cast<size_t>(a.input) > frame.inputs.size()) {
    return Status::RuntimeError("ATTR input index out of range");
  }
  const ExprFrame::Input& in = frame.inputs[static_cast<size_t>(a.input) - 1];
  if (a.column < 1 || static_cast<uint32_t>(a.column) > in.width) {
    return Status::RuntimeError("ATTR column index out of range");
  }
  const ColumnVector* col = in.cols + (a.column - 1);
  if (col->size() != in.cells) {
    return Status::Unsupported("ATTR column not materialized");
  }
  return ColumnView{col, in.rows};
}

Result<ColumnView> ResolveAttr(const TermRef& expr, const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(lera::AttrRef a, lera::GetAttr(expr));
  return ResolveAttr(a, frame);
}

Result<ColumnPtr> EvalAttr(const TermRef& expr, const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(ColumnView v, ResolveAttr(expr, frame));
  if (v.idx != nullptr) {
    return ColumnPtr(std::make_shared<ColumnVector>(v.col->Gather(*v.idx)));
  }
  // Aliasing constructor: borrow the batch's column, no copy, no ownership.
  return ColumnPtr(ColumnPtr{}, v.col);
}

// An operand as a view: ATTRs read in place, anything else is evaluated
// into `holder`.
Result<ColumnView> EvalView(const TermRef& expr, const ExprFrame& frame,
                            ColumnPtr* holder) {
  if (lera::IsAttr(expr)) return ResolveAttr(expr, frame);
  EDS_ASSIGN_OR_RETURN(*holder, EvalExprBatch(expr, frame));
  return ColumnView{holder->get(), nullptr};
}

ColumnPtr Broadcast(const Value& v, size_t n) {
  auto col = std::make_shared<ColumnVector>();
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) col->AppendValue(v);
  return col;
}

// Slow lane: evaluate the expression with the scalar evaluator once per
// row. Each input's current row carries the cells the expression reads
// (the rest stay NULL — EvalExpr reaches cells only through ATTR), so it
// costs what the row engine costs, and semantics are identical by
// construction.
Result<ColumnPtr> EvalPerRow(const TermRef& expr, const ExprFrame& frame) {
  const size_t n = frame.rows;
  auto out = std::make_shared<ColumnVector>();
  if (n == 0) return ColumnPtr(std::move(out));
  const size_t inputs = frame.inputs.size();
  std::vector<Row> rows(inputs);
  for (size_t i = 0; i < inputs; ++i) {
    rows[i].assign(frame.inputs[i].width, Value::Null());
  }
  struct Read {
    Value* cell;  // the slot in rows[] the expression reads
    ColumnView view;
  };
  std::vector<Read> reads;
  std::vector<lera::AttrRef> attrs;
  lera::CollectAttrs(expr, &attrs);
  for (const lera::AttrRef& a : attrs) {
    EDS_ASSIGN_OR_RETURN(ColumnView view, ResolveAttr(a, frame));
    reads.push_back({&rows[static_cast<size_t>(a.input) - 1]
                          [static_cast<size_t>(a.column) - 1],
                     view});
  }
  EvalContext ctx;
  ctx.db = frame.db;
  ctx.library = frame.library;
  ctx.current.resize(inputs);
  for (size_t i = 0; i < inputs; ++i) ctx.current[i] = &rows[i];
  out->Reserve(n);
  for (size_t r = 0; r < n; ++r) {
    for (const Read& rd : reads) *rd.cell = rd.view.col->ValueAt(rd.view.Cell(r));
    EDS_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, &ctx));
    out->AppendValue(v);
  }
  return ColumnPtr(std::move(out));
}

bool CmpOpFor(const std::string& f, CmpOp* op) {
  if (f == term::kEq) *op = CmpOp::kEq;
  else if (f == term::kNe) *op = CmpOp::kNe;
  else if (f == term::kLt) *op = CmpOp::kLt;
  else if (f == term::kLe) *op = CmpOp::kLe;
  else if (f == term::kGt) *op = CmpOp::kGt;
  else if (f == term::kGe) *op = CmpOp::kGe;
  else return false;
  return true;
}

}  // namespace

Result<ColumnPtr> EvalExprBatch(const TermRef& expr, const ExprFrame& frame) {
  if (expr->is_constant()) return Broadcast(expr->constant(), frame.rows);
  if (lera::IsAttr(expr)) return EvalAttr(expr, frame);
  if (expr->is_apply()) {
    const std::string& f = expr->functor();
    CmpOp op;
    if (CmpOpFor(f, &op) && expr->args().size() == 2) {
      const TermRef& l = expr->arg(0);
      const TermRef& r = expr->arg(1);
      ColumnPtr lh, rh;
      if (l->is_constant() != r->is_constant()) {
        const bool scalar_left = l->is_constant();
        EDS_ASSIGN_OR_RETURN(ColumnView v,
                             EvalView(scalar_left ? r : l, frame, &lh));
        return ColumnPtr(std::make_shared<ColumnVector>(CompareScalar(
            op, v, (scalar_left ? l : r)->constant(), scalar_left,
            frame.rows)));
      }
      EDS_ASSIGN_OR_RETURN(ColumnView a, EvalView(l, frame, &lh));
      EDS_ASSIGN_OR_RETURN(ColumnView b, EvalView(r, frame, &rh));
      return ColumnPtr(
          std::make_shared<ColumnVector>(CompareColumns(op, a, b, frame.rows)));
    }
    // MEMBER(literal, column): the library's MEMBER, minus the per-row
    // argument vectors.
    if (f == "MEMBER" && expr->args().size() == 2 &&
        expr->arg(0)->is_constant() && !expr->arg(1)->is_constant() &&
        frame.library != nullptr) {
      ColumnPtr holder;
      EDS_ASSIGN_OR_RETURN(ColumnView coll,
                           EvalView(expr->arg(1), frame, &holder));
      EDS_ASSIGN_OR_RETURN(
          ColumnVector member,
          MemberScalar(expr->arg(0)->constant(), coll, frame.rows));
      return ColumnPtr(std::make_shared<ColumnVector>(std::move(member)));
    }
    if ((f == term::kAnd || f == term::kOr) && expr->args().size() >= 2) {
      EDS_ASSIGN_OR_RETURN(ColumnPtr acc, EvalExprBatch(expr->arg(0), frame));
      for (size_t i = 1; i < expr->args().size(); ++i) {
        EDS_ASSIGN_OR_RETURN(ColumnPtr next,
                             EvalExprBatch(expr->arg(i), frame));
        Result<ColumnVector> combined = f == term::kAnd
                                            ? AndColumns(*acc, *next)
                                            : OrColumns(*acc, *next);
        EDS_RETURN_IF_ERROR(combined.status());
        acc = std::make_shared<ColumnVector>(std::move(*combined));
      }
      return acc;
    }
    if (f == term::kNot && expr->args().size() == 1) {
      EDS_ASSIGN_OR_RETURN(ColumnPtr a, EvalExprBatch(expr->arg(0), frame));
      EDS_ASSIGN_OR_RETURN(ColumnVector negated, NotColumn(*a));
      return ColumnPtr(std::make_shared<ColumnVector>(std::move(negated)));
    }
  }
  return EvalPerRow(expr, frame);
}

Result<SelectionVector> EvalPredicateBatch(const TermRef& qual,
                                           const ExprFrame& frame) {
  EDS_ASSIGN_OR_RETURN(ColumnPtr pred, EvalExprBatch(qual, frame));
  return SelectTrue(*pred);
}

SelectionVector Compose(const SelectionVector& base,
                        const SelectionVector& sel) {
  SelectionVector out;
  out.reserve(sel.size());
  for (uint32_t i : sel) out.push_back(base[i]);
  return out;
}

}  // namespace eds::exec::vec
