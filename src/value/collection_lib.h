#ifndef EDS_VALUE_COLLECTION_LIB_H_
#define EDS_VALUE_COLLECTION_LIB_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "value/value.h"

namespace eds::value {

// MEMBER's test: whether `coll` (which must be a collection) holds an
// element equal to `elem` — binary search over sorted sets and bags, a scan
// over lists and arrays. Shared by the MEMBER builtin and the columnar
// executor's MEMBER(literal, column) kernel so the two cannot drift.
bool CollectionContains(const Value& coll, const Value& elem);

// A pure function over values: no access to the database state. These are
// the "ADT function library" of the paper — the collection functions of
// Fig. 1 plus scalar arithmetic, comparison and string functions. Both the
// execution engine and the rewriter's EVALUATE method dispatch through this
// library, and a database implementor extends the system by registering new
// functions here (the paper's extensibility story).
using PureFunction =
    std::function<Result<Value>(const std::vector<Value>& args)>;

class FunctionLibrary {
 public:
  FunctionLibrary() = default;
  FunctionLibrary(const FunctionLibrary&) = delete;
  FunctionLibrary& operator=(const FunctionLibrary&) = delete;

  // Registers `fn` under `name` (case-insensitive). AlreadyExists on
  // duplicates.
  Status Register(const std::string& name, PureFunction fn);

  // Replaces or adds a function; used by tests that stub behaviour.
  void ForceRegister(const std::string& name, PureFunction fn);

  bool Contains(const std::string& name) const;

  // Invokes `name` with `args`. NotFound if unregistered; functions
  // themselves return InvalidArgument / TypeError on bad arguments.
  Result<Value> Call(const std::string& name,
                     const std::vector<Value>& args) const;

  std::vector<std::string> Names() const;

  // A library preloaded with the builtin functions:
  //
  //   arithmetic   ADD SUB MUL DIV MOD NEG ABS
  //   comparison   EQ NE LT LE GT GE   (return kBool; total Value order)
  //   logical      AND OR NOT
  //   string       CONCAT LENGTH UPPER LOWER
  //   collections  MEMBER ISEMPTY COUNT INSERT REMOVE UNION INTERSECTION
  //                DIFFERENCE INCLUDE CHOICE APPEND NTH FIRST LAST
  //                MAKESET MAKEBAG MAKELIST MAKEARRAY
  //                TOSET TOBAG TOLIST   (the Convert functions of Fig. 1)
  static const FunctionLibrary& Default();

  // Installs the builtins above into `lib` (used to build extended copies).
  static void InstallBuiltins(FunctionLibrary* lib);

  // Replaces this library's contents with a copy of `other`'s registrations
  // (std::function handles are shared). Used by catalog::Catalog::Clone.
  void CloneFrom(const FunctionLibrary& other) { by_name_ = other.by_name_; }

 private:
  std::map<std::string, PureFunction> by_name_;  // keys upper-cased
};

}  // namespace eds::value

#endif  // EDS_VALUE_COLLECTION_LIB_H_
