#include "exec/vec/kernels.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "term/term.h"
#include "value/collection_lib.h"

namespace eds::exec::vec {
namespace {

using value::Value;
using value::ValueKind;

// splitmix64 finalizer: cheap, well-distributed, deterministic.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashDoubleBits(double d) {
  if (d == 0) d = 0;  // fold -0.0 onto +0.0, consistent with value::Compare
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(bits);
}

inline uint64_t HashStringBytes(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, then mixed
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

// Hash of a NULL cell; only compared against other NULLs of the same
// column, so any fixed constant works.
constexpr uint64_t kNullCellHash = 0x7fb5d329728ea185ULL;

constexpr uint64_t kRowHashSeed = 0x84222325cbf29ce4ULL;

inline int Sign(int64_t x, int64_t y) { return x < y ? -1 : (x > y ? 1 : 0); }
inline int Sign(double x, double y) { return x < y ? -1 : (x > y ? 1 : 0); }

template <typename Pred>
ColumnVector CompareImpl(ColumnView va, ColumnView vb, size_t n, Pred pred) {
  const ColumnVector& a = *va.col;
  const ColumnVector& b = *vb.col;
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  const bool clean = a.all_valid() && b.all_valid();
  if (clean && a.lane() == Lane::kInt64 && b.lane() == Lane::kInt64) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = pred(Sign(a.IntAt(va.Cell(i)), b.IntAt(vb.Cell(i)))) ? 1 : 0;
    }
  } else if (clean && a.is_numeric_lane() && b.is_numeric_lane()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] =
          pred(Sign(a.NumericAt(va.Cell(i)), b.NumericAt(vb.Cell(i)))) ? 1 : 0;
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t x = va.Cell(i), y = vb.Cell(i);
      if (a.IsNull(x) || b.IsNull(y)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = pred(a.CompareCells(x, b, y)) ? 1 : 0;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

// `cell op s` (or `s op cell` under kScalarLeft) per logical row, reading
// typed lanes directly; other lanes go through value::Compare.
template <bool kScalarLeft, typename Pred>
ColumnVector CompareScalarImpl(ColumnView va, const Value& s, size_t n,
                               Pred pred) {
  const ColumnVector& a = *va.col;
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (s.is_null()) {
    valid.assign((n + 63) >> 6, 0);  // NULL operand: every row NULL
    return ColumnVector::FromBoolData(std::move(out), std::move(valid), n);
  }
  auto run = [&](auto cmp_at) {
    if (a.all_valid()) {
      for (size_t i = 0; i < n; ++i) out[i] = pred(cmp_at(va.Cell(i))) ? 1 : 0;
      return;
    }
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t x = va.Cell(i);
      if (a.IsNull(x)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = pred(cmp_at(x)) ? 1 : 0;
    }
  };
  auto order = [](auto cell, auto scalar) {
    return kScalarLeft ? Sign(scalar, cell) : Sign(cell, scalar);
  };
  if (a.lane() == Lane::kInt64 && s.kind() == ValueKind::kInt) {
    const int64_t y = s.AsInt();
    run([&](size_t x) { return order(a.IntAt(x), y); });
  } else if (a.is_numeric_lane() && s.is_numeric()) {
    const double y = s.AsReal();
    run([&](size_t x) { return order(a.NumericAt(x), y); });
  } else if (a.lane() == Lane::kGeneric) {
    run([&](size_t x) {
      return kScalarLeft ? value::Compare(s, a.GenericAt(x))
                         : value::Compare(a.GenericAt(x), s);
    });
  } else {
    run([&](size_t x) {
      return kScalarLeft ? value::Compare(s, a.ValueAt(x))
                         : value::Compare(a.ValueAt(x), s);
    });
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

// Calls fn with the predicate over value::Compare's sign that `op` tests.
template <typename Fn>
auto WithCmpPred(CmpOp op, Fn fn) {
  switch (op) {
    case CmpOp::kNe: return fn([](int c) { return c != 0; });
    case CmpOp::kLt: return fn([](int c) { return c < 0; });
    case CmpOp::kLe: return fn([](int c) { return c <= 0; });
    case CmpOp::kGt: return fn([](int c) { return c > 0; });
    case CmpOp::kGe: return fn([](int c) { return c >= 0; });
    case CmpOp::kEq: break;
  }
  return fn([](int c) { return c == 0; });
}

}  // namespace

ColumnVector CompareColumns(CmpOp op, ColumnView a, ColumnView b, size_t n) {
  return WithCmpPred(op, [&](auto pred) { return CompareImpl(a, b, n, pred); });
}

ColumnVector CompareScalar(CmpOp op, ColumnView a, const Value& scalar,
                           bool scalar_left, size_t n) {
  return WithCmpPred(op, [&](auto pred) {
    return scalar_left ? CompareScalarImpl<true>(a, scalar, n, pred)
                       : CompareScalarImpl<false>(a, scalar, n, pred);
  });
}

Result<ColumnVector> MemberScalar(const Value& elem, ColumnView coll,
                                  size_t n) {
  std::vector<uint8_t> out(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t x = coll.Cell(i);
    // Typed lanes hold scalars or NULLs, never collections.
    if (coll.col->lane() != Lane::kGeneric ||
        !coll.col->GenericAt(x).is_collection()) {
      return Status::TypeError("MEMBER: expected a collection");
    }
    out[i] = value::CollectionContains(coll.col->GenericAt(x), elem) ? 1 : 0;
  }
  return ColumnVector::FromBoolData(std::move(out), {}, 0);
}

Result<ColumnVector> AndColumns(const ColumnVector& a, const ColumnVector& b) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && b.lane() == Lane::kBool && a.all_valid() &&
      b.all_valid()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (a.BoolAt(i) && b.BoolAt(i)) ? 1 : 0;
    }
  } else if (a.lane() == Lane::kBool && b.lane() == Lane::kBool) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const bool an = a.IsNull(i), bn = b.IsNull(i);
      // FALSE dominates NULL, exactly as in the scalar LogicalAnd.
      if ((!an && !a.BoolAt(i)) || (!bn && !b.BoolAt(i))) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      } else if (an || bn) {
        ++nulls;
      } else {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
      }
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      const Value y = b.ValueAt(i);
      const bool has_false =
          (x.kind() == ValueKind::kBool && !x.AsBool()) ||
          (y.kind() == ValueKind::kBool && !y.AsBool());
      if (has_false) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        continue;
      }
      if (x.is_null() || y.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool || y.kind() != ValueKind::kBool) {
        return Status::TypeError("AND requires boolean operands");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = 1;  // neither false, neither null, both bool => both true
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<ColumnVector> OrColumns(const ColumnVector& a, const ColumnVector& b) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && b.lane() == Lane::kBool && a.all_valid() &&
      b.all_valid()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (a.BoolAt(i) || b.BoolAt(i)) ? 1 : 0;
    }
  } else if (a.lane() == Lane::kBool && b.lane() == Lane::kBool) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const bool an = a.IsNull(i), bn = b.IsNull(i);
      // TRUE dominates NULL, exactly as in the scalar LogicalOr.
      if ((!an && a.BoolAt(i)) || (!bn && b.BoolAt(i))) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
      } else if (an || bn) {
        ++nulls;
      } else {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      const Value y = b.ValueAt(i);
      const bool has_true = (x.kind() == ValueKind::kBool && x.AsBool()) ||
                            (y.kind() == ValueKind::kBool && y.AsBool());
      if (has_true) {
        valid[i >> 6] |= uint64_t{1} << (i & 63);
        out[i] = 1;
        continue;
      }
      if (x.is_null() || y.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool || y.kind() != ValueKind::kBool) {
        return Status::TypeError("OR requires boolean operands");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<ColumnVector> NotColumn(const ColumnVector& a) {
  const size_t n = a.size();
  std::vector<uint8_t> out(n, 0);
  std::vector<uint64_t> valid;
  size_t nulls = 0;
  if (a.lane() == Lane::kBool && a.all_valid()) {
    for (size_t i = 0; i < n; ++i) out[i] = a.BoolAt(i) ? 0 : 1;
  } else if (a.lane() == Lane::kBool || a.lane() == Lane::kNullOnly) {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      if (a.IsNull(i)) {
        ++nulls;
        continue;
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = a.BoolAt(i) ? 0 : 1;
    }
  } else {
    valid.assign((n + 63) >> 6, 0);
    for (size_t i = 0; i < n; ++i) {
      const Value x = a.ValueAt(i);
      if (x.is_null()) {
        ++nulls;
        continue;
      }
      if (x.kind() != ValueKind::kBool) {
        return Status::TypeError("NOT requires a boolean operand");
      }
      valid[i >> 6] |= uint64_t{1} << (i & 63);
      out[i] = x.AsBool() ? 0 : 1;
    }
  }
  return ColumnVector::FromBoolData(std::move(out), std::move(valid), nulls);
}

Result<SelectionVector> SelectTrue(const ColumnVector& pred) {
  const size_t n = pred.size();
  SelectionVector sel;
  switch (pred.lane()) {
    case Lane::kNullOnly:
      return sel;  // all NULL: nothing selected
    case Lane::kBool:
      sel.reserve(n);
      if (pred.all_valid()) {
        for (size_t i = 0; i < n; ++i) {
          if (pred.BoolAt(i)) sel.push_back(static_cast<uint32_t>(i));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (!pred.IsNull(i) && pred.BoolAt(i)) {
            sel.push_back(static_cast<uint32_t>(i));
          }
        }
      }
      return sel;
    case Lane::kGeneric:
      for (size_t i = 0; i < n; ++i) {
        const Value& v = pred.GenericAt(i);
        if (v.is_null()) continue;
        if (v.kind() != ValueKind::kBool) {
          return Status::TypeError("qualification is not a boolean");
        }
        if (v.AsBool()) sel.push_back(static_cast<uint32_t>(i));
      }
      return sel;
    default:
      // A whole column of valid non-booleans: the scalar path would raise
      // the TypeError on the first row.
      if (n == 0 || pred.null_count() == n) return sel;
      return Status::TypeError("qualification is not a boolean");
  }
}

HashClass ClassifyKey(const ColumnVector& col) {
  switch (col.lane()) {
    case Lane::kInt64:
    case Lane::kFloat64:
      return HashClass::kNumeric;
    case Lane::kBool:
      return HashClass::kBool;
    case Lane::kNullOnly:
      return HashClass::kAny;
    case Lane::kGeneric:
      break;
  }
  HashClass cls = HashClass::kAny;
  for (size_t i = 0; i < col.size(); ++i) {
    const Value& v = col.GenericAt(i);
    HashClass want;
    switch (v.kind()) {
      case ValueKind::kNull:
        continue;
      case ValueKind::kInt:
      case ValueKind::kReal:
        want = HashClass::kNumeric;
        break;
      case ValueKind::kBool:
        want = HashClass::kBool;
        break;
      case ValueKind::kString:
        want = HashClass::kString;
        break;
      default:
        return HashClass::kNone;  // tuples/collections: residual compare
    }
    if (cls == HashClass::kAny) {
      cls = want;
    } else if (cls != want) {
      return HashClass::kNone;
    }
  }
  return cls;
}

bool HashCompatible(HashClass a, HashClass b) {
  if (a == HashClass::kNone || b == HashClass::kNone) return false;
  return a == b || a == HashClass::kAny || b == HashClass::kAny;
}

HashClass CombineClasses(HashClass a, HashClass b) {
  return a == HashClass::kAny ? b : a;
}

uint64_t HashCell(const ColumnVector& col, size_t i, HashClass cls) {
  switch (cls) {
    case HashClass::kNumeric: {
      const double d = col.is_numeric_lane() ? col.NumericAt(i)
                                             : col.GenericAt(i).AsReal();
      return HashDoubleBits(d);
    }
    case HashClass::kBool: {
      const bool v = col.lane() == Lane::kBool ? col.BoolAt(i)
                                               : col.GenericAt(i).AsBool();
      return Mix64(v ? 3 : 7);
    }
    case HashClass::kString:
      return HashStringBytes(col.GenericAt(i).AsString());
    default:
      return 0;  // kAny columns have no non-null cells; kNone never hashed
  }
}

Result<JoinPairs> HashJoin(const std::vector<const ColumnVector*>& left_keys,
                           const std::vector<const ColumnVector*>& right_keys,
                           const std::vector<HashClass>& classes,
                           size_t left_rows, size_t right_rows,
                           size_t max_pairs) {
  JoinPairs out;
  if (left_rows == 0 || right_rows == 0) return out;
  if (right_rows > (size_t{1} << 30) || left_rows > (size_t{1} << 30)) {
    return Status::Unsupported("hash join input too large");
  }
  const size_t nkeys = left_keys.size();
  size_t buckets = 16;
  while (buckets < right_rows * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(right_rows, -1);
  std::vector<uint64_t> rhash(right_rows, 0);
  std::vector<uint8_t> rnull(right_rows, 0);
  for (size_t j = 0; j < right_rows; ++j) {
    uint64_t h = kRowHashSeed;
    for (size_t k = 0; k < nkeys; ++k) {
      if (right_keys[k]->IsNull(j)) {
        rnull[j] = 1;
        break;
      }
      h = Mix64(h ^ HashCell(*right_keys[k], j, classes[k]));
    }
    rhash[j] = h;
  }
  // Insert build rows in reverse so each bucket chain is ascending; probe
  // traversal then emits matches in the row engine's nested-loop order.
  for (size_t j = right_rows; j-- > 0;) {
    if (rnull[j]) continue;
    const size_t b = rhash[j] & mask;
    nxt[j] = heads[b];
    heads[b] = static_cast<int32_t>(j);
  }
  for (size_t i = 0; i < left_rows; ++i) {
    uint64_t h = kRowHashSeed;
    bool any_null = false;
    for (size_t k = 0; k < nkeys; ++k) {
      if (left_keys[k]->IsNull(i)) {
        any_null = true;
        break;
      }
      h = Mix64(h ^ HashCell(*left_keys[k], i, classes[k]));
    }
    if (any_null) continue;
    for (int32_t j = heads[h & mask]; j >= 0; j = nxt[j]) {
      if (rhash[j] != h) continue;
      bool eq = true;
      for (size_t k = 0; k < nkeys; ++k) {
        if (left_keys[k]->CompareCells(i, *right_keys[k], j) != 0) {
          eq = false;
          break;
        }
      }
      if (!eq) continue;
      if (out.left.size() >= max_pairs) {
        return Status::Unsupported("hash join output exceeds batch cap");
      }
      out.left.push_back(static_cast<uint32_t>(i));
      out.right.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

Result<JoinPairs> CrossPairs(size_t left_rows, size_t right_rows,
                             size_t max_pairs) {
  JoinPairs out;
  if (left_rows == 0 || right_rows == 0) return out;
  if (left_rows > max_pairs / right_rows) {
    return Status::Unsupported("cross product exceeds batch cap");
  }
  out.left.reserve(left_rows * right_rows);
  out.right.reserve(left_rows * right_rows);
  for (size_t i = 0; i < left_rows; ++i) {
    for (size_t j = 0; j < right_rows; ++j) {
      out.left.push_back(static_cast<uint32_t>(i));
      out.right.push_back(static_cast<uint32_t>(j));
    }
  }
  return out;
}

bool VecDedupRows(std::vector<std::vector<value::Value>>* rows,
                  size_t* batches) {
  const size_t n = rows->size();
  if (n < 64 || n > (size_t{1} << 30)) return false;
  Batch b;
  if (!Batch::FromRows(*rows, &b)) return false;
  if (batches) ++*batches;
  // Row hashes, accumulated column-major. Each column uses one hashing
  // scheme for all its cells, so Compare-equal cells within a column hash
  // equal (generic columns go through HashConstantValue, which already
  // folds Int(2)/Real(2.0)).
  std::vector<uint64_t> h(n, kRowHashSeed);
  for (const ColumnVector& c : b.cols) {
    switch (c.lane()) {
      case Lane::kInt64:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash
                          : Mix64(static_cast<uint64_t>(c.IntAt(i)));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kFloat64:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash : HashDoubleBits(c.RealAt(i));
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kBool:
        for (size_t i = 0; i < n; ++i) {
          const uint64_t cell =
              c.IsNull(i) ? kNullCellHash : Mix64(c.BoolAt(i) ? 3 : 7);
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
      case Lane::kNullOnly:
        for (size_t i = 0; i < n; ++i) h[i] = Mix64(h[i] ^ kNullCellHash);
        break;
      case Lane::kGeneric:
        for (size_t i = 0; i < n; ++i) {
          const Value& v = c.GenericAt(i);
          const uint64_t cell =
              v.is_null() ? kNullCellHash : term::internal::HashConstantValue(v);
          h[i] = Mix64(h[i] ^ cell);
        }
        break;
    }
  }
  // Group by hash, keeping the first occurrence of each distinct row.
  size_t buckets = 16;
  while (buckets < n * 2) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<int32_t> heads(buckets, -1);
  std::vector<int32_t> nxt(n, -1);
  std::vector<uint32_t> survivors;
  survivors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t bkt = h[i] & mask;
    bool dup = false;
    for (int32_t j = heads[bkt]; j >= 0; j = nxt[j]) {
      if (h[j] != h[i]) continue;
      bool eq = true;
      for (const ColumnVector& c : b.cols) {
        if (c.CompareCells(i, c, j) != 0) {
          eq = false;
          break;
        }
      }
      if (eq) {
        dup = true;
        break;
      }
    }
    if (!dup) {
      survivors.push_back(static_cast<uint32_t>(i));
      nxt[i] = heads[bkt];  // only survivors enter the chains
      heads[bkt] = static_cast<int32_t>(i);
    }
  }
  // Same sorted output as the row engine's DedupRows.
  std::sort(survivors.begin(), survivors.end(),
            [&](uint32_t x, uint32_t y) {
              for (const ColumnVector& c : b.cols) {
                const int cmp = c.CompareCells(x, c, y);
                if (cmp != 0) return cmp < 0;
              }
              return false;
            });
  std::vector<std::vector<Value>> out;
  out.reserve(survivors.size());
  for (uint32_t i : survivors) out.push_back(std::move((*rows)[i]));
  rows->swap(out);
  return true;
}

}  // namespace eds::exec::vec
