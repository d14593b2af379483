#ifndef EDS_REWRITE_ENGINE_H_
#define EDS_REWRITE_ENGINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "gov/governor.h"
#include "rewrite/builtins.h"
#include "rewrite/rule.h"
#include "term/term.h"

namespace eds::obs {
class TraceSink;
}  // namespace eds::obs

namespace eds::rewrite {

// Saturation marker for block limits: apply until no rule in the block
// matches anywhere ("an infinite limit means application up to saturation",
// §4.2).
inline constexpr int64_t kSaturate = -1;

// block({rules}, value): a group of rules with an application budget. Per
// the paper, *each rule condition check* decrements the budget, not each
// successful application.
struct RuleBlock {
  std::string name;
  std::vector<Rule> rules;
  int64_t limit = kSaturate;
};

// seq({blocks}, value): the generated optimizer is a sequence of blocks
// applied in order, the whole list up to `seq_limit` times (§4.2). The same
// rule may appear in several blocks.
struct RewriteProgram {
  std::vector<RuleBlock> blocks;
  int64_t seq_limit = 1;
};

struct TraceEntry {
  std::string block;
  std::string rule;
  term::TermRef before;  // the matched subterm
  term::TermRef after;   // its replacement
};

// Per-rule cost/benefit aggregates, collected when
// RewriteOptions::profile_rules is set. `ns` is the rule's cumulative self
// time: the wall time of every candidate attempt (quick reject, match,
// constraint evaluation, instantiation) attributed to that rule, whether or
// not it fired. `nodes_delta` sums CountNodes(after) - CountNodes(before)
// over its applications — negative means the rule shrinks plans.
struct RuleProfile {
  uint64_t ns = 0;
  size_t applications = 0;
  size_t match_attempts = 0;
  size_t quick_rejects = 0;
  int64_t nodes_delta = 0;
};

struct EngineStats {
  size_t applications = 0;      // successful rule applications
  size_t condition_checks = 0;  // rule-condition checks (budget unit)
  size_t passes = 0;            // block-sequence passes executed
  size_t cycle_stops = 0;       // blocks cut short by the cycle guard
  size_t match_attempts = 0;    // candidate rules considered at a node
  size_t quick_rejects = 0;     // candidates dismissed by the pre-filter
  size_t normal_form_hits = 0;  // subtrees skipped by the normal-form memo
  size_t expr_type_hits = 0;    // InferExprType memo hits this run
  size_t expr_type_misses = 0;  // InferExprType memo misses this run
  bool safety_stop = false;     // hit RewriteOptions::max_applications
  // Set when the query governor cut the run short (deadline, node ceiling,
  // cancellation). The returned term is the best-so-far normal form —
  // semantically correct, merely under-optimized; see docs/robustness.md.
  gov::TripReason trip;
  std::map<std::string, size_t> applications_by_rule;
  // Filled only under profile_rules (empty otherwise).
  std::map<std::string, RuleProfile> rule_profiles;
};

struct RewriteOptions {
  // Global safety valve against non-terminating rule sets (termination is
  // undecidable and the DBA can add arbitrary rules, §4.2). When hit, the
  // engine stops and returns the best term so far with safety_stop set.
  size_t max_applications = 100000;
  bool collect_trace = false;
  // §7's dynamic allocation: "The limit given to a block of rules could
  // also be allocated dynamically, according to the complexity of the
  // query." When positive, every finite block limit is replaced by
  // ceil(budget_per_node × CountNodes(query)) — simple queries get small
  // budgets, complex queries large ones. Saturation (kSaturate) blocks are
  // unaffected. 0 keeps the static limits.
  double budget_per_node = 0;
  // Observability. Both default off, and the off path costs one branch per
  // instrumentation site (no clock reads, no allocation).
  //   trace_sink: records hierarchical spans — one per sequence pass, per
  //     block entry, and per *fired* rule application (attempts are far too
  //     numerous to span individually; profile_rules aggregates them).
  //   profile_rules: fills EngineStats::rule_profiles with per-rule self
  //     time and attempt/reject/delta aggregates.
  obs::TraceSink* trace_sink = nullptr;
  bool profile_rules = false;
  // Query governor (may be null, the default): checked at every
  // rule-candidate consideration and block/pass boundary. On a trip the
  // engine *degrades* — it stops and returns the best term so far with
  // EngineStats::trip set — rather than erroring, because any prefix of
  // rule applications is still a correct plan. Non-owning; must outlive
  // the Rewrite() call.
  gov::QueryGuard* guard = nullptr;
};

struct RewriteOutcome {
  term::TermRef term;
  EngineStats stats;
  std::vector<TraceEntry> trace;
};

// The rewrite engine: holds the compiled program (blocks of rules in
// sequence) and applies it to query terms. Rule applications search the
// term top-down, left to right; after an application the search restarts
// from the root so merged operators are reconsidered ("the search merging
// rule ... takes advantage of being applied more than once", §5.3).
class Engine {
 public:
  // `cat` and `builtins` must outlive the engine.
  Engine(const catalog::Catalog* cat, const BuiltinRegistry* builtins,
         RewriteProgram program);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Validates every rule in the program against the builtin registry.
  // Errors name the enclosing block and the rule (with its source location
  // when the rule came from ruledsl text).
  Status ValidateProgram() const;

  Result<RewriteOutcome> Rewrite(const term::TermRef& query,
                                 const RewriteOptions& options = {}) const;

  const RewriteProgram& program() const { return program_; }

 private:
  struct RunState;
  struct Scope;

  // A rule as the index hands it out. `ground_only` marks a rule with a
  // constraint ISA(<its own lhs>, CONSTANT) (the eval_fold rules): that
  // constraint folds the matched node, which fails at any variable leaf,
  // so the rule can never fire on a non-ground node.
  struct Candidate {
    const Rule* rule = nullptr;
    bool ground_only = false;
  };

  // Per-block discrimination index: rules keyed by their left term's root
  // functor, so a node only pays for the rules that could match it. Each
  // per-functor list is pre-merged (in block order) with the generic rules
  // — functor-variable roots match any application, variable roots match
  // anything.
  struct BlockIndex {
    std::map<std::string, std::vector<Candidate>> merged_by_functor;
    std::vector<Candidate> generic_apply;  // ?F- and var-rooted rules
    std::vector<Candidate> var_only;       // var-rooted rules
    const std::vector<Candidate>& Candidates(const term::TermRef& node) const;
  };

  // Attempts a single rule application anywhere in `node` (pre-order) using
  // the rules of `block`. Returns the rewritten node or null.
  term::TermRef TryOnce(const term::TermRef& node, const Scope& scope,
                        const RuleBlock& block, const BlockIndex& index,
                        int64_t* budget, RunState* state) const;

  // Tries the block's candidate rules at exactly `node`.
  term::TermRef TryRulesAt(const term::TermRef& node, const Scope& scope,
                           const RuleBlock& block, const BlockIndex& index,
                           int64_t* budget, RunState* state) const;

  const catalog::Catalog* catalog_;
  const BuiltinRegistry* builtins_;
  RewriteProgram program_;
  std::vector<BlockIndex> block_indexes_;  // parallel to program_.blocks
};

}  // namespace eds::rewrite

#endif  // EDS_REWRITE_ENGINE_H_
