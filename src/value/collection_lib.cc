#include "value/collection_lib.h"

#include <algorithm>

#include "common/strings.h"

namespace eds::value {

bool CollectionContains(const Value& coll, const Value& elem) {
  const auto& es = coll.elements();
  if (coll.kind() == ValueKind::kSet || coll.kind() == ValueKind::kBag) {
    return std::binary_search(es.begin(), es.end(), elem);
  }
  return std::find(es.begin(), es.end(), elem) != es.end();
}

namespace {

Status Arity(const std::string& name, const std::vector<Value>& args,
             size_t n) {
  if (args.size() != n) {
    return Status::InvalidArgument(name + " expects " + std::to_string(n) +
                                   " argument(s), got " +
                                   std::to_string(args.size()));
  }
  return Status::OK();
}

Status WantCollection(const std::string& name, const Value& v) {
  if (!v.is_collection()) {
    return Status::TypeError(name + ": expected a collection, got " +
                             std::string(ValueKindName(v.kind())));
  }
  return Status::OK();
}

Status WantSequence(const std::string& name, const Value& v) {
  if (v.kind() != ValueKind::kList && v.kind() != ValueKind::kArray) {
    return Status::TypeError(name + ": expected a list or array, got " +
                             std::string(ValueKindName(v.kind())));
  }
  return Status::OK();
}

// Rebuilds a collection of `kind` from elements, restoring canonical form.
Value Rebuild(ValueKind kind, std::vector<Value> elems) {
  switch (kind) {
    case ValueKind::kSet: return Value::Set(std::move(elems));
    case ValueKind::kBag: return Value::Bag(std::move(elems));
    case ValueKind::kArray: return Value::Array(std::move(elems));
    default: return Value::List(std::move(elems));
  }
}

bool NumericArgs(const std::vector<Value>& args) {
  for (const Value& v : args) {
    if (!v.is_numeric()) return false;
  }
  return true;
}

bool AnyReal(const std::vector<Value>& args) {
  for (const Value& v : args) {
    if (v.kind() == ValueKind::kReal) return true;
  }
  return false;
}

Result<Value> Add(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("ADD", args, 2));
  if (!NumericArgs(args)) return Status::TypeError("ADD: non-numeric operand");
  if (AnyReal(args)) return Value::Real(args[0].AsReal() + args[1].AsReal());
  return Value::Int(args[0].AsInt() + args[1].AsInt());
}

Result<Value> Sub(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("SUB", args, 2));
  if (!NumericArgs(args)) return Status::TypeError("SUB: non-numeric operand");
  if (AnyReal(args)) return Value::Real(args[0].AsReal() - args[1].AsReal());
  return Value::Int(args[0].AsInt() - args[1].AsInt());
}

Result<Value> Mul(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("MUL", args, 2));
  if (!NumericArgs(args)) return Status::TypeError("MUL: non-numeric operand");
  if (AnyReal(args)) return Value::Real(args[0].AsReal() * args[1].AsReal());
  return Value::Int(args[0].AsInt() * args[1].AsInt());
}

Result<Value> Div(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("DIV", args, 2));
  if (!NumericArgs(args)) return Status::TypeError("DIV: non-numeric operand");
  if (AnyReal(args)) {
    double d = args[1].AsReal();
    if (d == 0) return Status::RuntimeError("DIV: division by zero");
    return Value::Real(args[0].AsReal() / d);
  }
  int64_t d = args[1].AsInt();
  if (d == 0) return Status::RuntimeError("DIV: division by zero");
  return Value::Int(args[0].AsInt() / d);
}

Result<Value> Mod(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("MOD", args, 2));
  if (args[0].kind() != ValueKind::kInt || args[1].kind() != ValueKind::kInt) {
    return Status::TypeError("MOD: integer operands required");
  }
  int64_t d = args[1].AsInt();
  if (d == 0) return Status::RuntimeError("MOD: division by zero");
  return Value::Int(args[0].AsInt() % d);
}

Result<Value> Neg(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("NEG", args, 1));
  if (args[0].kind() == ValueKind::kInt) return Value::Int(-args[0].AsInt());
  if (args[0].kind() == ValueKind::kReal) return Value::Real(-args[0].AsReal());
  return Status::TypeError("NEG: non-numeric operand");
}

Result<Value> Abs(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("ABS", args, 1));
  if (args[0].kind() == ValueKind::kInt) {
    int64_t i = args[0].AsInt();
    return Value::Int(i < 0 ? -i : i);
  }
  if (args[0].kind() == ValueKind::kReal) {
    double d = args[0].AsReal();
    return Value::Real(d < 0 ? -d : d);
  }
  return Status::TypeError("ABS: non-numeric operand");
}

template <typename Pred>
Result<Value> Comparison(const char* name, Pred pred,
                         const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity(name, args, 2));
  if (args[0].is_null() || args[1].is_null()) return Value::Null();
  return Value::Bool(pred(Compare(args[0], args[1])));
}

Result<Value> LogicalAnd(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("AND", args, 2));
  // Three-valued logic: FALSE dominates NULL.
  bool has_null = args[0].is_null() || args[1].is_null();
  bool has_false =
      (args[0].kind() == ValueKind::kBool && !args[0].AsBool()) ||
      (args[1].kind() == ValueKind::kBool && !args[1].AsBool());
  if (has_false) return Value::Bool(false);
  if (has_null) return Value::Null();
  if (args[0].kind() != ValueKind::kBool || args[1].kind() != ValueKind::kBool) {
    return Status::TypeError("AND: boolean operands required");
  }
  return Value::Bool(args[0].AsBool() && args[1].AsBool());
}

Result<Value> LogicalOr(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("OR", args, 2));
  bool has_null = args[0].is_null() || args[1].is_null();
  bool has_true = (args[0].kind() == ValueKind::kBool && args[0].AsBool()) ||
                  (args[1].kind() == ValueKind::kBool && args[1].AsBool());
  if (has_true) return Value::Bool(true);
  if (has_null) return Value::Null();
  if (args[0].kind() != ValueKind::kBool || args[1].kind() != ValueKind::kBool) {
    return Status::TypeError("OR: boolean operands required");
  }
  return Value::Bool(args[0].AsBool() || args[1].AsBool());
}

Result<Value> LogicalNot(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("NOT", args, 1));
  if (args[0].is_null()) return Value::Null();
  if (args[0].kind() != ValueKind::kBool) {
    return Status::TypeError("NOT: boolean operand required");
  }
  return Value::Bool(!args[0].AsBool());
}

Result<Value> Concat(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("CONCAT", args, 2));
  if (args[0].kind() != ValueKind::kString ||
      args[1].kind() != ValueKind::kString) {
    return Status::TypeError("CONCAT: string operands required");
  }
  return Value::String(args[0].AsString() + args[1].AsString());
}

Result<Value> Length(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("LENGTH", args, 1));
  if (args[0].kind() == ValueKind::kString) {
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (args[0].is_collection()) {
    return Value::Int(static_cast<int64_t>(args[0].size()));
  }
  return Status::TypeError("LENGTH: string or collection required");
}

Result<Value> Upper(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("UPPER", args, 1));
  if (args[0].kind() != ValueKind::kString) {
    return Status::TypeError("UPPER: string required");
  }
  return Value::String(eds::ToUpperAscii(args[0].AsString()));
}

Result<Value> Lower(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("LOWER", args, 1));
  if (args[0].kind() != ValueKind::kString) {
    return Status::TypeError("LOWER: string required");
  }
  return Value::String(eds::ToLowerAscii(args[0].AsString()));
}

// ---- collection functions (Fig. 1) ----

Result<Value> Member(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("MEMBER", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("MEMBER", args[1]));
  return Value::Bool(CollectionContains(args[1], args[0]));
}

Result<Value> IsEmpty(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("ISEMPTY", args, 1));
  EDS_RETURN_IF_ERROR(WantCollection("ISEMPTY", args[0]));
  return Value::Bool(args[0].size() == 0);
}

Result<Value> Count(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("COUNT", args, 1));
  EDS_RETURN_IF_ERROR(WantCollection("COUNT", args[0]));
  return Value::Int(static_cast<int64_t>(args[0].size()));
}

Result<Value> Insert(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("INSERT", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("INSERT", args[1]));
  std::vector<Value> es = args[1].elements();
  es.push_back(args[0]);
  return Rebuild(args[1].kind(), std::move(es));
}

Result<Value> Remove(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("REMOVE", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("REMOVE", args[1]));
  std::vector<Value> es = args[1].elements();
  auto it = std::find(es.begin(), es.end(), args[0]);
  if (it != es.end()) es.erase(it);
  return Rebuild(args[1].kind(), std::move(es));
}

Result<Value> CollUnion(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("UNION", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("UNION", args[0]));
  EDS_RETURN_IF_ERROR(WantCollection("UNION", args[1]));
  std::vector<Value> es = args[0].elements();
  const auto& bs = args[1].elements();
  es.insert(es.end(), bs.begin(), bs.end());
  return Rebuild(args[0].kind(), std::move(es));
}

Result<Value> Intersection(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("INTERSECTION", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("INTERSECTION", args[0]));
  EDS_RETURN_IF_ERROR(WantCollection("INTERSECTION", args[1]));
  const auto& bs = args[1].elements();
  std::vector<Value> out;
  std::vector<Value> remaining = bs;  // multiset semantics for bags
  for (const Value& e : args[0].elements()) {
    auto it = std::find(remaining.begin(), remaining.end(), e);
    if (it != remaining.end()) {
      out.push_back(e);
      remaining.erase(it);
    }
  }
  return Rebuild(args[0].kind(), std::move(out));
}

Result<Value> Difference(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("DIFFERENCE", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("DIFFERENCE", args[0]));
  EDS_RETURN_IF_ERROR(WantCollection("DIFFERENCE", args[1]));
  std::vector<Value> remaining = args[1].elements();
  std::vector<Value> out;
  for (const Value& e : args[0].elements()) {
    auto it = std::find(remaining.begin(), remaining.end(), e);
    if (it != remaining.end()) {
      remaining.erase(it);  // cancel one occurrence (bag semantics)
    } else {
      out.push_back(e);
    }
  }
  return Rebuild(args[0].kind(), std::move(out));
}

// INCLUDE(x, y): true when x is included in y (x subseteq y).
Result<Value> Include(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("INCLUDE", args, 2));
  EDS_RETURN_IF_ERROR(WantCollection("INCLUDE", args[0]));
  EDS_RETURN_IF_ERROR(WantCollection("INCLUDE", args[1]));
  const auto& big = args[1].elements();
  for (const Value& e : args[0].elements()) {
    if (std::find(big.begin(), big.end(), e) == big.end()) {
      return Value::Bool(false);
    }
  }
  return Value::Bool(true);
}

// CHOICE(x): an arbitrary element of a non-empty collection [Manna85]. We
// deterministically return the least element so rewrites stay reproducible.
Result<Value> Choice(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("CHOICE", args, 1));
  EDS_RETURN_IF_ERROR(WantCollection("CHOICE", args[0]));
  if (args[0].size() == 0) {
    return Status::RuntimeError("CHOICE: empty collection");
  }
  return args[0].elements().front();
}

Result<Value> Append(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("APPEND", args, 2));
  EDS_RETURN_IF_ERROR(WantSequence("APPEND", args[0]));
  EDS_RETURN_IF_ERROR(WantSequence("APPEND", args[1]));
  std::vector<Value> es = args[0].elements();
  const auto& bs = args[1].elements();
  es.insert(es.end(), bs.begin(), bs.end());
  return Rebuild(args[0].kind(), std::move(es));
}

Result<Value> Nth(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("NTH", args, 2));
  EDS_RETURN_IF_ERROR(WantSequence("NTH", args[0]));
  if (args[1].kind() != ValueKind::kInt) {
    return Status::TypeError("NTH: integer index required");
  }
  int64_t i = args[1].AsInt();
  if (i < 1 || static_cast<size_t>(i) > args[0].size()) {
    return Status::RuntimeError("NTH: index out of range");
  }
  return args[0].elements()[static_cast<size_t>(i - 1)];
}

Result<Value> First(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("FIRST", args, 1));
  EDS_RETURN_IF_ERROR(WantSequence("FIRST", args[0]));
  if (args[0].size() == 0) return Status::RuntimeError("FIRST: empty");
  return args[0].elements().front();
}

Result<Value> Last(const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity("LAST", args, 1));
  EDS_RETURN_IF_ERROR(WantSequence("LAST", args[0]));
  if (args[0].size() == 0) return Status::RuntimeError("LAST: empty");
  return args[0].elements().back();
}

Result<Value> MakeSet(const std::vector<Value>& args) {
  return Value::Set(args);
}
Result<Value> MakeBag(const std::vector<Value>& args) {
  return Value::Bag(args);
}
Result<Value> MakeList(const std::vector<Value>& args) {
  return Value::List(args);
}
Result<Value> MakeArray(const std::vector<Value>& args) {
  return Value::Array(args);
}

// The Convert functions: change the collection kind. Bag->Set removes
// duplicates (the Fig. 1 example).
Result<Value> ToKind(const char* name, ValueKind kind,
                     const std::vector<Value>& args) {
  EDS_RETURN_IF_ERROR(Arity(name, args, 1));
  EDS_RETURN_IF_ERROR(WantCollection(name, args[0]));
  return Rebuild(kind, args[0].elements());
}

}  // namespace

Status FunctionLibrary::Register(const std::string& name, PureFunction fn) {
  auto [it, inserted] = by_name_.emplace(ToUpperAscii(name), std::move(fn));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("function '" + name + "' already registered");
  }
  return Status::OK();
}

void FunctionLibrary::ForceRegister(const std::string& name, PureFunction fn) {
  by_name_[ToUpperAscii(name)] = std::move(fn);
}

bool FunctionLibrary::Contains(const std::string& name) const {
  return by_name_.count(ToUpperAscii(name)) > 0;
}

Result<Value> FunctionLibrary::Call(const std::string& name,
                                    const std::vector<Value>& args) const {
  auto it = by_name_.find(ToUpperAscii(name));
  if (it == by_name_.end()) {
    return Status::NotFound("unknown function '" + name + "'");
  }
  return it->second(args);
}

std::vector<std::string> FunctionLibrary::Names() const {
  std::vector<std::string> out;
  out.reserve(by_name_.size());
  for (const auto& [name, fn] : by_name_) out.push_back(name);
  return out;
}

void FunctionLibrary::InstallBuiltins(FunctionLibrary* lib) {
  auto reg = [lib](const char* name, PureFunction fn) {
    lib->ForceRegister(name, std::move(fn));
  };
  reg("ADD", Add);
  reg("SUB", Sub);
  reg("MUL", Mul);
  reg("DIV", Div);
  reg("MOD", Mod);
  reg("NEG", Neg);
  reg("ABS", Abs);
  reg("EQ", [](const std::vector<Value>& a) {
    return Comparison("EQ", [](int c) { return c == 0; }, a);
  });
  reg("NE", [](const std::vector<Value>& a) {
    return Comparison("NE", [](int c) { return c != 0; }, a);
  });
  reg("LT", [](const std::vector<Value>& a) {
    return Comparison("LT", [](int c) { return c < 0; }, a);
  });
  reg("LE", [](const std::vector<Value>& a) {
    return Comparison("LE", [](int c) { return c <= 0; }, a);
  });
  reg("GT", [](const std::vector<Value>& a) {
    return Comparison("GT", [](int c) { return c > 0; }, a);
  });
  reg("GE", [](const std::vector<Value>& a) {
    return Comparison("GE", [](int c) { return c >= 0; }, a);
  });
  reg("AND", LogicalAnd);
  reg("OR", LogicalOr);
  reg("NOT", LogicalNot);
  reg("CONCAT", Concat);
  reg("LENGTH", Length);
  reg("UPPER", Upper);
  reg("LOWER", Lower);
  reg("MEMBER", Member);
  reg("ISEMPTY", IsEmpty);
  reg("COUNT", Count);
  reg("INSERT", Insert);
  reg("REMOVE", Remove);
  reg("UNION", CollUnion);
  reg("INTERSECTION", Intersection);
  reg("DIFFERENCE", Difference);
  reg("INCLUDE", Include);
  reg("CHOICE", Choice);
  reg("APPEND", Append);
  reg("NTH", Nth);
  reg("FIRST", First);
  reg("LAST", Last);
  reg("MAKESET", MakeSet);
  reg("MAKEBAG", MakeBag);
  reg("MAKELIST", MakeList);
  reg("MAKEARRAY", MakeArray);
  reg("TOSET", [](const std::vector<Value>& a) {
    return ToKind("TOSET", ValueKind::kSet, a);
  });
  reg("TOBAG", [](const std::vector<Value>& a) {
    return ToKind("TOBAG", ValueKind::kBag, a);
  });
  reg("TOLIST", [](const std::vector<Value>& a) {
    return ToKind("TOLIST", ValueKind::kList, a);
  });
}

const FunctionLibrary& FunctionLibrary::Default() {
  static const FunctionLibrary* lib = [] {
    auto* l = new FunctionLibrary();
    InstallBuiltins(l);
    return l;
  }();
  return *lib;
}

}  // namespace eds::value
