#ifndef EDS_EXEC_VEC_COLUMN_H_
#define EDS_EXEC_VEC_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "value/value.h"

namespace eds::exec::vec {

// Row indices selected out of a batch, always ascending, so every gather
// preserves the row order the row-at-a-time executor would have produced —
// the vectorized path must be byte-identical, ordering included.
using SelectionVector = std::vector<uint32_t>;

// Physical layout of one column. A column starts undecided (kNullOnly) and
// commits to a typed lane on its first non-null value; a later value of any
// other kind demotes the whole column to kGeneric (boxed Values, still O(1)
// to copy). Int and Real deliberately do NOT share a lane: reconstructed
// Values must match the row engine's exactly, and widening Int(2) to 2.0
// would change the output representation.
enum class Lane : uint8_t { kNullOnly, kInt64, kFloat64, kBool, kGeneric };

// One column of a batch: a typed data vector plus a validity bitmap (bit
// set = non-null). kGeneric columns carry nullness in the Values themselves
// and keep no bitmap.
class ColumnVector {
 public:
  ColumnVector() = default;

  Lane lane() const { return lane_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool all_valid() const { return null_count_ == 0; }
  bool is_numeric_lane() const {
    return lane_ == Lane::kInt64 || lane_ == Lane::kFloat64;
  }

  bool IsNull(size_t i) const {
    switch (lane_) {
      case Lane::kNullOnly: return true;
      case Lane::kGeneric: return generic_[i].is_null();
      default:
        return (valid_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
    }
  }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double RealAt(size_t i) const { return reals_[i]; }
  // Either numeric lane widened to double (callers check is_numeric_lane()).
  double NumericAt(size_t i) const {
    return lane_ == Lane::kInt64 ? static_cast<double>(ints_[i]) : reals_[i];
  }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  const value::Value& GenericAt(size_t i) const { return generic_[i]; }

  // Reconstructs the cell as a Value identical to what the row engine
  // would carry for it.
  value::Value ValueAt(size_t i) const;

  void Reserve(size_t n);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendReal(double v);
  void AppendBool(bool v);
  void AppendValue(const value::Value& v);

  // New column holding rows sel[0..k) of this one.
  ColumnVector Gather(const SelectionVector& sel) const;

  // Bulk assembly of a kBool column from kernel output: `data` holds 0/1
  // per row, `valid` the packed bitmap (empty means every row valid; must
  // otherwise be (n+63)/64 words with `null_count` clear bits within n).
  static ColumnVector FromBoolData(std::vector<uint8_t> data,
                                   std::vector<uint64_t> valid,
                                   size_t null_count);

  // value::Compare over cell i of this and cell j of `other`.
  int CompareCells(size_t i, const ColumnVector& other, size_t j) const;

 private:
  void DemoteToGeneric();
  void PushValidity(bool valid);

  Lane lane_ = Lane::kNullOnly;
  size_t size_ = 0;
  size_t null_count_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<uint8_t> bools_;
  std::vector<value::Value> generic_;
  std::vector<uint64_t> valid_;  // bit set = non-null (typed lanes only)
};

// A batch: the columnar image of a Rows block. All columns share `rows`.
struct Batch {
  size_t rows = 0;
  std::vector<ColumnVector> cols;

  // False when the input is ragged (rows of differing arity) — stored
  // tables never are, but derived row sets can be.
  static bool FromRows(const std::vector<std::vector<value::Value>>& rows,
                       Batch* out);
  // The rows, or only rows sel[0..k) when `sel` is given.
  std::vector<std::vector<value::Value>> ToRows(
      const SelectionVector* sel = nullptr) const;
};

}  // namespace eds::exec::vec

#endif  // EDS_EXEC_VEC_COLUMN_H_
