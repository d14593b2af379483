#include "value/value.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "common/strings.h"

namespace eds::value {

namespace internal {
thread_local uint64_t value_copies = 0;
}  // namespace internal

uint64_t ValueCopyCount() { return internal::value_copies; }

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull: return "NULL";
    case ValueKind::kBool: return "BOOLEAN";
    case ValueKind::kInt: return "INT";
    case ValueKind::kReal: return "REAL";
    case ValueKind::kString: return "CHAR";
    case ValueKind::kTuple: return "TUPLE";
    case ValueKind::kSet: return "SET";
    case ValueKind::kBag: return "BAG";
    case ValueKind::kList: return "LIST";
    case ValueKind::kArray: return "ARRAY";
    case ValueKind::kObjectRef: return "OBJECT";
  }
  return "?";
}

Value Value::Bool(bool b) {
  Value v;
  v.kind_ = ValueKind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Int(int64_t i) {
  Value v;
  v.kind_ = ValueKind::kInt;
  v.int_ = i;
  return v;
}

Value Value::Real(double d) {
  Value v;
  v.kind_ = ValueKind::kReal;
  v.real_ = d;
  return v;
}

Value Value::String(std::string s) {
  Value v;
  v.kind_ = ValueKind::kString;
  v.string_ = std::make_shared<const std::string>(std::move(s));
  return v;
}

Value Value::ObjectRef(uint64_t oid) {
  Value v;
  v.kind_ = ValueKind::kObjectRef;
  v.oid_ = oid;
  return v;
}

Value Value::Tuple(std::vector<Value> values) {
  Value v;
  v.kind_ = ValueKind::kTuple;
  auto data = std::make_shared<TupleData>();
  data->values = std::move(values);
  v.tuple_ = std::move(data);
  return v;
}

Value Value::NamedTuple(std::vector<std::string> names,
                        std::vector<Value> values) {
  assert(names.size() == values.size());
  Value v;
  v.kind_ = ValueKind::kTuple;
  auto data = std::make_shared<TupleData>();
  data->names = std::move(names);
  data->values = std::move(values);
  v.tuple_ = std::move(data);
  return v;
}

Value Value::Set(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  Value v;
  v.kind_ = ValueKind::kSet;
  v.elems_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::Bag(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end());
  Value v;
  v.kind_ = ValueKind::kBag;
  v.elems_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::List(std::vector<Value> elements) {
  Value v;
  v.kind_ = ValueKind::kList;
  v.elems_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

Value Value::Array(std::vector<Value> elements) {
  Value v;
  v.kind_ = ValueKind::kArray;
  v.elems_ = std::make_shared<const std::vector<Value>>(std::move(elements));
  return v;
}

bool Value::AsBool() const {
  assert(kind_ == ValueKind::kBool);
  return bool_;
}

int64_t Value::AsInt() const {
  assert(kind_ == ValueKind::kInt);
  return int_;
}

double Value::AsReal() const {
  if (kind_ == ValueKind::kInt) return static_cast<double>(int_);
  assert(kind_ == ValueKind::kReal);
  return real_;
}

const std::string& Value::AsString() const {
  assert(kind_ == ValueKind::kString);
  return *string_;
}

uint64_t Value::AsObjectRef() const {
  assert(kind_ == ValueKind::kObjectRef);
  return oid_;
}

const TupleData& Value::tuple() const {
  assert(kind_ == ValueKind::kTuple);
  return *tuple_;
}

const Value* Value::FindField(const std::string& name) const {
  if (kind_ != ValueKind::kTuple) return nullptr;
  const TupleData& t = *tuple_;
  for (size_t i = 0; i < t.names.size(); ++i) {
    if (EqualsIgnoreCase(t.names[i], name)) return &t.values[i];
  }
  return nullptr;
}

const std::vector<Value>& Value::elements() const {
  assert(is_collection());
  return *elems_;
}

namespace {

int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNull: return 0;
    case ValueKind::kBool: return 1;
    case ValueKind::kInt: return 2;
    case ValueKind::kReal: return 2;  // numerics compare together
    case ValueKind::kString: return 3;
    case ValueKind::kTuple: return 4;
    case ValueKind::kSet: return 5;
    case ValueKind::kBag: return 6;
    case ValueKind::kList: return 7;
    case ValueKind::kArray: return 8;
    case ValueKind::kObjectRef: return 9;
  }
  return 10;
}

int CompareVectors(const std::vector<Value>& a, const std::vector<Value>& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

template <typename T>
int Cmp(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Compare(const Value& a, const Value& b) {
  int ra = KindRank(a.kind()), rb = KindRank(b.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.kind()) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kBool:
      return Cmp(a.AsBool(), b.AsBool());
    case ValueKind::kInt:
    case ValueKind::kReal:
      if (a.kind() == ValueKind::kInt && b.kind() == ValueKind::kInt) {
        return Cmp(a.AsInt(), b.AsInt());
      }
      return Cmp(a.AsReal(), b.AsReal());
    case ValueKind::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
    case ValueKind::kTuple:
      return CompareVectors(a.tuple().values, b.tuple().values);
    case ValueKind::kSet:
    case ValueKind::kBag:
    case ValueKind::kList:
    case ValueKind::kArray:
      return CompareVectors(a.elements(), b.elements());
    case ValueKind::kObjectRef:
      return Cmp(a.AsObjectRef(), b.AsObjectRef());
  }
  return 0;
}

bool operator==(const Value& a, const Value& b) { return Compare(a, b) == 0; }

namespace {

void AppendElements(std::string* out, const std::vector<Value>& es) {
  for (size_t i = 0; i < es.size(); ++i) {
    if (i > 0) out->append(", ");
    AppendText(out, es[i]);
  }
}

template <typename Int>
void AppendInteger(std::string* out, Int v) {
  char buf[24];  // 20 digits + sign covers every 64-bit value
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

void AppendText(std::string* out, const Value& v) {
  switch (v.kind()) {
    case ValueKind::kNull:
      out->append("NULL");
      return;
    case ValueKind::kBool:
      out->append(v.AsBool() ? "TRUE" : "FALSE");
      return;
    case ValueKind::kInt:
      AppendInteger(out, v.AsInt());
      return;
    case ValueKind::kReal: {
      // "%g" is exactly what an ostream's default float formatting prints
      // (precision 6, no floatfield flags), inf/nan spellings included.
      char buf[32];
      const int n = std::snprintf(buf, sizeof(buf), "%g", v.AsReal());
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueKind::kString:
      out->push_back('\'');
      out->append(v.AsString());
      out->push_back('\'');
      return;
    case ValueKind::kObjectRef:
      out->append("<oid:");
      AppendInteger(out, v.AsObjectRef());
      out->push_back('>');
      return;
    case ValueKind::kTuple: {
      const TupleData& t = v.tuple();
      out->push_back('(');
      for (size_t i = 0; i < t.values.size(); ++i) {
        if (i > 0) out->append(", ");
        if (!t.names.empty()) {
          out->append(t.names[i]);
          out->append(": ");
        }
        AppendText(out, t.values[i]);
      }
      out->push_back(')');
      return;
    }
    case ValueKind::kSet:
    case ValueKind::kBag: {
      const bool set = v.kind() == ValueKind::kSet;
      out->append(set ? "{" : "{|");
      AppendElements(out, v.elements());
      out->append(set ? "}" : "|}");
      return;
    }
    case ValueKind::kList:
    case ValueKind::kArray:
      out->push_back('[');
      AppendElements(out, v.elements());
      out->push_back(']');
      return;
  }
}

std::string Value::ToString() const {
  std::string out;
  AppendText(&out, *this);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  std::string text;
  AppendText(&text, v);
  return os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace eds::value
