// Goldens for the value renderer: every ValueKind has a literal expected
// text, and the three spellings of it (Value::ToString, value::AppendText,
// operator<<) agree byte for byte. Result rows travel on the wire in this
// text, so a change here is a protocol change.

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "value/value.h"

namespace eds::value {
namespace {

// Checks v renders as `want` through all three entry points. AppendText
// appends: it is called on a non-empty buffer to show it keeps the prefix.
void ExpectText(const Value& v, const std::string& want) {
  EXPECT_EQ(v.ToString(), want);
  std::string appended = "prefix|";
  AppendText(&appended, v);
  EXPECT_EQ(appended, "prefix|" + want);
  std::ostringstream os;
  os << v;
  EXPECT_EQ(os.str(), want);
}

TEST(ValueRenderTest, NullAndBools) {
  ExpectText(Value::Null(), "NULL");
  ExpectText(Value::Bool(true), "TRUE");
  ExpectText(Value::Bool(false), "FALSE");
}

TEST(ValueRenderTest, IntsAtTheEdges) {
  ExpectText(Value::Int(0), "0");
  ExpectText(Value::Int(-42), "-42");
  ExpectText(Value::Int(std::numeric_limits<int64_t>::min()),
             "-9223372036854775808");
  ExpectText(Value::Int(std::numeric_limits<int64_t>::max()),
             "9223372036854775807");
}

TEST(ValueRenderTest, RealsPrintLikeTheDefaultStreamFormat) {
  ExpectText(Value::Real(2.0), "2");
  ExpectText(Value::Real(0.1), "0.1");
  ExpectText(Value::Real(2.5), "2.5");
  ExpectText(Value::Real(1234567.0), "1.23457e+06");
  ExpectText(Value::Real(1e21), "1e+21");
  ExpectText(Value::Real(1e-7), "1e-07");
  ExpectText(Value::Real(-0.0), "-0");
  ExpectText(Value::Real(std::numeric_limits<double>::infinity()), "inf");
  ExpectText(Value::Real(-std::numeric_limits<double>::infinity()), "-inf");
  ExpectText(Value::Real(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(ValueRenderTest, StringsAreQuotedVerbatim) {
  ExpectText(Value::String(""), "''");
  ExpectText(Value::String("Quinn"), "'Quinn'");
  // No escaping: embedded quotes pass through as they are.
  ExpectText(Value::String("it's \"x\""), "'it's \"x\"'");
}

TEST(ValueRenderTest, ObjectRefs) {
  ExpectText(Value::ObjectRef(0), "<oid:0>");
  ExpectText(Value::ObjectRef(7), "<oid:7>");
  ExpectText(Value::ObjectRef(std::numeric_limits<uint64_t>::max()),
             "<oid:18446744073709551615>");
}

TEST(ValueRenderTest, Tuples) {
  ExpectText(Value::Tuple({}), "()");
  ExpectText(Value::Tuple({Value::Int(1), Value::String("a"), Value::Null()}),
             "(1, 'a', NULL)");
  ExpectText(Value::NamedTuple({"name", "age"},
                               {Value::String("Quinn"), Value::Int(40)}),
             "(name: 'Quinn', age: 40)");
}

TEST(ValueRenderTest, NestedCollections) {
  ExpectText(Value::Set({}), "{}");
  ExpectText(Value::Bag({}), "{||}");
  ExpectText(Value::List({}), "[]");
  ExpectText(Value::Array({}), "[]");
  // Sets and bags render in their canonical (sorted) order.
  ExpectText(Value::Set({Value::Int(3), Value::Int(1), Value::Int(3)}),
             "{1, 3}");
  ExpectText(Value::Bag({Value::Int(3), Value::Int(1), Value::Int(3)}),
             "{|1, 3, 3|}");
  ExpectText(Value::List({Value::Int(3), Value::Int(1)}), "[3, 1]");
  ExpectText(Value::Array({Value::Real(0.5), Value::Bool(true)}),
             "[0.5, TRUE]");
  ExpectText(
      Value::List({Value::Set({Value::String("b"), Value::String("a")}),
                   Value::Bag({Value::Tuple({Value::Int(1)})}),
                   Value::Array({Value::List({}), Value::ObjectRef(9)})}),
      "[{'a', 'b'}, {|(1)|}, [[], <oid:9>]]");
  ExpectText(Value::NamedTuple(
                 {"cats", "ids"},
                 {Value::Set({Value::String("Drama")}),
                  Value::List({Value::Int(1), Value::Int(2)})}),
             "(cats: {'Drama'}, ids: [1, 2])");
}

}  // namespace
}  // namespace eds::value
