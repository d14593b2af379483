#include "rewrite/engine.h"

#include <map>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "lera/lera.h"
#include "lera/schema.h"
#include "obs/trace.h"
#include "rewrite/match.h"

namespace eds::rewrite {

using term::Term;
using term::TermList;
using term::TermRef;

// Scope information while traversing: the input schemas visible to ATTR
// references at the current position (set when descending into the
// qualification / projection arguments of relational operators). `key`
// identifies the scope for the normal-form memo: 0 for the schema-free
// scope, otherwise a never-zero digest of the defining input terms'
// identities. The digest is operator-agnostic on purpose — identical
// (canonical) input nodes imply identical input schemas no matter which
// operator consumes them.
struct Engine::Scope {
  std::vector<lera::Schema> input_schemas;
  bool has_schemas = false;
  uint64_t key = 0;
};

struct Engine::RunState {
  const RewriteOptions* options = nullptr;
  EngineStats stats;
  std::vector<TraceEntry> trace;
  const std::string* current_block = nullptr;
  // Query governor (null when no limits are set: one branch per check
  // site). A trip unwinds the traversal to Rewrite(), which returns the
  // best-so-far term instead of an error.
  gov::QueryGuard* guard = nullptr;
  // Observability (both null/false when off; every use is behind one
  // branch). The sink receives a span per pass, block entry, and fired
  // rule; profiling aggregates per-rule self time into stats.rule_profiles.
  obs::TraceSink* sink = nullptr;
  bool profile = false;
  // Run-wide InferExprType memo keyed on (canonical expression node, scope
  // key) — the scalar sibling of schema_memo below. Entries pin their terms
  // themselves (see lera::ExprTypeMemo), so method-built temporaries can't
  // alias recycled addresses.
  lera::ExprTypeMemo expr_memo;
  // Memoized schema inference keyed by term node identity. Terms are
  // immutable, so a live node's pointer uniquely identifies its subtree;
  // `retained` keeps every intermediate root alive for the whole run so a
  // freed node's address can never be recycled into a different term and
  // alias a stale memo entry. Schema inference runs at every traversal
  // descent into a qualification/projection position, which dominates
  // rewrite time without this cache. The memo is threaded through
  // InferSchema's own recursion, so nested views cost O(depth), not
  // O(depth²).
  lera::SchemaMemo schema_memo;
  std::vector<term::TermRef> retained;

  // Per-block normal-form memo: (subtree identity, scope key) pairs proven
  // to contain no redex for that block's rules. Whether a rule matches
  // inside a subtree depends only on the subtree and the scope's input
  // schemas (constraints see the catalog, which is fixed for the run), so
  // the restart-from-root walk after an application skips every untouched
  // subtree — only the rebuilt spine above the rewrite gets rescanned.
  // Entries persist across block re-entries and sequence passes.
  struct NfKey {
    const term::Term* node;
    uint64_t scope;
    bool operator==(const NfKey& o) const {
      return node == o.node && scope == o.scope;
    }
  };
  struct NfKeyHash {
    size_t operator()(const NfKey& k) const {
      uint64_t h = reinterpret_cast<uintptr_t>(k.node);
      h ^= k.scope + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };
  using NfSet = std::unordered_set<NfKey, NfKeyHash>;
  std::vector<NfSet> nf_memo;  // parallel to program blocks
  NfSet* current_nf = nullptr;
};

namespace {

// Smallest subtree the normal-form memo will track. Below this, a rescan
// (index lookup + quick rejects) is cheaper than the memo's hashing and
// node allocation, so tracking tiny terms would tax exactly the small
// queries that have nothing to gain from skipping.
constexpr size_t kNfMemoMinNodes = 4;

// Builds a Scope::key from the identities of defining input terms.
class ScopeKeyBuilder {
 public:
  ScopeKeyBuilder& Add(const term::Term* p) {
    h_ ^= reinterpret_cast<uintptr_t>(p);
    h_ *= 1099511628211ULL;
    return *this;
  }
  // Never 0: that value is reserved for the schema-free scope.
  uint64_t Done() const { return h_ | 1; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

// Whether one of the rule's constraints is ISA(<its lhs>, CONSTANT), the
// type name written as a variable or a string, in any case (as EvalIsa
// reads it).
bool FoldsOwnLhs(const Rule& rule) {
  for (const TermRef& c : rule.constraints) {
    if (!c->IsApply("ISA", 2) || !term::Equals(c->arg(0), rule.lhs)) continue;
    const TermRef& type = c->arg(1);
    std::string name;
    if (type->is_variable()) {
      name = type->var_name();
    } else if (type->is_constant() &&
               type->constant().kind() == value::ValueKind::kString) {
      name = type->constant().AsString();
    }
    if (ToUpperAscii(name) == "CONSTANT") return true;
  }
  return false;
}

}  // namespace

Engine::Engine(const catalog::Catalog* cat, const BuiltinRegistry* builtins,
               RewriteProgram program)
    : catalog_(cat), builtins_(builtins), program_(std::move(program)) {
  // Build the per-block discrimination indexes. Order within each merged
  // list preserves block order (rule priority).
  block_indexes_.reserve(program_.blocks.size());
  for (const RuleBlock& block : program_.blocks) {
    BlockIndex index;
    std::set<std::string> functors;
    for (const Rule& rule : block.rules) {
      if (rule.lhs->is_apply() && rule.lhs->functor().front() != '?') {
        functors.insert(rule.lhs->functor());
      }
    }
    for (const Rule& rule : block.rules) {
      const Candidate cand{&rule, FoldsOwnLhs(rule)};
      if (rule.lhs->is_variable()) {
        index.generic_apply.push_back(cand);
        index.var_only.push_back(cand);
        for (const std::string& f : functors) {
          index.merged_by_functor[f].push_back(cand);
        }
      } else if (rule.lhs->is_apply() && rule.lhs->functor().front() == '?') {
        index.generic_apply.push_back(cand);
        for (const std::string& f : functors) {
          index.merged_by_functor[f].push_back(cand);
        }
      } else if (rule.lhs->is_apply()) {
        index.merged_by_functor[rule.lhs->functor()].push_back(cand);
      } else {
        // Constant-rooted left terms are legal but pointless; keep them in
        // the generic list so they still get tried.
        index.generic_apply.push_back(cand);
        index.var_only.push_back(cand);
      }
    }
    block_indexes_.push_back(std::move(index));
  }
}

const std::vector<Engine::Candidate>& Engine::BlockIndex::Candidates(
    const term::TermRef& node) const {
  if (!node->is_apply()) return var_only;
  auto it = merged_by_functor.find(node->functor());
  if (it != merged_by_functor.end()) return it->second;
  return generic_apply;
}

Status Engine::ValidateProgram() const {
  for (const RuleBlock& block : program_.blocks) {
    for (const Rule& rule : block.rules) {
      Status status = ValidateRule(rule, *builtins_);
      if (!status.ok()) {
        return Status(status.code(),
                      "block '" + block.name + "': " + status.message());
      }
    }
  }
  return Status::OK();
}

namespace {

// Fast pre-filter: an apply-rooted pattern can only match an apply node
// with the same functor (functor variables match anything) and a
// compatible arity.
bool QuickReject(const term::TermRef& lhs, const term::TermRef& node) {
  if (!lhs->is_apply()) return false;
  if (!node->is_apply()) return true;
  const bool functor_var = lhs->functor().front() == '?';
  if (!functor_var && lhs->functor() != node->functor()) return true;
  bool has_coll_var = false;
  for (const TermRef& a : lhs->args()) {
    if (a->is_collection_variable()) {
      has_coll_var = true;
      break;
    }
  }
  if (!has_coll_var && lhs->arity() != node->arity()) return true;
  if (has_coll_var && node->arity() + 1 < lhs->arity()) return true;
  return false;
}

}  // namespace

term::TermRef Engine::TryRulesAt(const term::TermRef& node,
                                 const Scope& scope, const RuleBlock& block,
                                 const BlockIndex& index, int64_t* budget,
                                 RunState* state) const {
  (void)block;
  RewriteContext ctx;
  ctx.catalog = catalog_;
  if (scope.has_schemas) {
    const std::vector<lera::Schema>* schemas = &scope.input_schemas;
    const catalog::Catalog* cat = catalog_;
    lera::ExprTypeMemo* memo = &state->expr_memo;
    const uint64_t scope_key = scope.key;
    ctx.type_of = [schemas, cat, memo, scope_key](const TermRef& t) {
      return lera::InferExprType(t, *schemas, *cat, nullptr, nullptr, memo,
                                 scope_key);
    };
  }
  // One flag for "this candidate loop reads the clock": per-rule profiling
  // needs the attempt's self time, and the trace sink needs the fired
  // rule's span bounds. Off by default, making the whole observability
  // surface a single predictable branch per candidate.
  const bool timed = state->profile || state->sink != nullptr;
  for (const Candidate& cand : index.Candidates(node)) {
    const Rule& rule = *cand.rule;
    if (*budget == 0) return nullptr;
    // Governor chokepoint: rule-candidate consideration is the engine's
    // innermost loop, so deadline/cancellation latency is bounded by a few
    // candidate attempts (the guard amortizes its clock reads itself).
    if (state->guard != nullptr && state->guard->Check()) return nullptr;
    ++state->stats.match_attempts;
    uint64_t t0 = 0;
    RuleProfile* prof = nullptr;
    if (timed) {
      t0 = obs::NowNs();
      if (state->profile) {
        prof = &state->stats.rule_profiles[rule.name];
        ++prof->match_attempts;
      }
    }
    if (QuickReject(rule.lhs, node)) {
      ++state->stats.quick_rejects;
      if (prof != nullptr) {
        ++prof->quick_rejects;
        prof->ns += obs::NowNs() - t0;
      }
      continue;
    }
    // This is a rule-condition check: it burns budget (§4.2).
    ++state->stats.condition_checks;
    if (*budget > 0) --*budget;
    // A ground-only rule cannot fire here. The check still counts and
    // charges the budget as above, so skipping Match changes no plan.
    if (cand.ground_only && !node->ground()) {
      if (prof != nullptr) prof->ns += obs::NowNs() - t0;
      continue;
    }

    TermRef rewritten;
    Match(rule.lhs, node, term::Bindings(),
          [&](const term::Bindings& env) -> bool {
            // Constraints: all must evaluate to true; evaluation errors
            // reject this candidate binding.
            for (const TermRef& c : rule.constraints) {
              Result<bool> ok = EvalConstraint(c, env, ctx);
              if (!ok.ok() || !*ok) return false;
            }
            // Methods: run in order on a private copy of the bindings.
            term::Bindings work = env;
            for (const MethodCall& m : rule.methods) {
              Status s = builtins_->InvokeMethod(m.name, m.args, &work, ctx);
              if (!s.ok()) return false;
            }
            // Instantiate the right term and evaluate optimizer functions.
            Result<TermRef> rhs = term::ApplySubstitution(rule.rhs, work);
            if (!rhs.ok()) return false;
            Result<TermRef> final_rhs =
                EvalTermFunctions(*rhs, *builtins_, ctx);
            if (!final_rhs.ok()) return false;
            // No-op guard: a rewrite that reproduces the node exactly is
            // rejected, so idempotent rules cannot loop. With hash-consed
            // terms this is a pointer compare in the common case; Equals
            // keeps its deep fallback so value-equivalent replacements
            // (e.g. 2 -> 2.0) still count as no-ops, exactly as before.
            if (term::Equals(*final_rhs, node)) return false;
            rewritten = *final_rhs;
            return true;
          });
    if (rewritten != nullptr) {
      ++state->stats.applications;
      ++state->stats.applications_by_rule[rule.name];
      if (state->options->collect_trace) {
        state->trace.push_back(
            TraceEntry{*state->current_block, rule.name, node, rewritten});
      }
      if (timed) {
        const uint64_t t1 = obs::NowNs();
        if (prof != nullptr) {
          ++prof->applications;
          prof->ns += t1 - t0;
          prof->nodes_delta += static_cast<int64_t>(rewritten->node_count()) -
                               static_cast<int64_t>(node->node_count());
        }
        if (state->sink != nullptr) {
          state->sink->RecordComplete(
              rule.name, "rule", t0, t1,
              {{"block", *state->current_block},
               {"nodes_before", std::to_string(node->node_count())},
               {"nodes_after", std::to_string(rewritten->node_count())}});
        }
      }
      return rewritten;
    }
    if (prof != nullptr) prof->ns += obs::NowNs() - t0;
  }
  return nullptr;
}

term::TermRef Engine::TryOnce(const term::TermRef& node, const Scope& scope,
                              const RuleBlock& block, const BlockIndex& index,
                              int64_t* budget, RunState* state) const {
  if (*budget == 0 ||
      state->stats.applications >= state->options->max_applications) {
    return nullptr;
  }
  if (state->guard != nullptr && state->guard->tripped()) return nullptr;
  // Normal-form memo: this subtree was fully scanned under this scope
  // before (with budget to spare) and held no redex; it is unchanged —
  // nodes are immutable and canonical — so scanning it again is pointless.
  // Only subtrees above a size floor participate: rescanning a handful of
  // nodes costs less than the memo's own hashing and per-entry allocation,
  // and the floor keeps small-query rewrites (where the seed engine had
  // zero bookkeeping) at parity while deep plans still skip in O(1).
  const bool memoizable =
      node->is_apply() && node->node_count() >= kNfMemoMinNodes;
  const RunState::NfKey nf_key{node.get(), scope.key};
  if (memoizable && state->current_nf->count(nf_key) != 0) {
    ++state->stats.normal_form_hits;
    return nullptr;
  }
  if (TermRef r = TryRulesAt(node, scope, block, index, budget, state)) {
    return r;
  }
  if (!node->is_apply()) return nullptr;

  // Compute per-argument scopes for relational operators whose scalar
  // arguments carry ATTR references.
  const std::string& f = node->functor();
  auto schema_of = [this, state](
                       const TermRef& in) -> const Result<lera::Schema>& {
    auto it = state->schema_memo.find(in.get());
    if (it == state->schema_memo.end()) {
      // InferSchema fills the memo itself (including for subterms). A
      // governor trip inside leaves no entry; the static miss Result below
      // keeps the caller on its schema-free degradation path.
      lera::InferSchema(in, *catalog_, nullptr, &state->schema_memo,
                        state->guard);
      it = state->schema_memo.find(in.get());
      if (it == state->schema_memo.end()) {
        static const Result<lera::Schema> kTripped =
            Status::ResourceExhausted("schema inference aborted by governor");
        return kTripped;
      }
    }
    return it->second;
  };
  auto schemas_of_inputs =
      [&schema_of](
          const TermList& inputs) -> std::optional<std::vector<lera::Schema>> {
    std::vector<lera::Schema> out;
    out.reserve(inputs.size());
    for (const TermRef& in : inputs) {
      const Result<lera::Schema>& s = schema_of(in);
      if (!s.ok()) return std::nullopt;
      out.push_back(*s);
    }
    return out;
  };

  for (size_t i = 0; i < node->arity(); ++i) {
    Scope child_scope = scope;  // expressions inherit the enclosing scope
    bool is_scalar_position = false;
    if (f == lera::kSearch && node->arity() == 3 &&
        node->arg(0)->IsApply(term::kList)) {
      if (i == 0) {
        child_scope = Scope{};  // relational inputs: fresh scope
      } else {
        is_scalar_position = true;
        if (auto s = schemas_of_inputs(node->arg(0)->args())) {
          ScopeKeyBuilder kb;
          for (const TermRef& in : node->arg(0)->args()) kb.Add(in.get());
          child_scope = Scope{std::move(*s), true, kb.Done()};
        } else {
          child_scope = Scope{};
        }
      }
    } else if ((f == lera::kFilter || f == lera::kProject) &&
               node->arity() == 2) {
      if (i == 0) {
        child_scope = Scope{};
      } else {
        is_scalar_position = true;
        if (auto s = schemas_of_inputs({node->arg(0)})) {
          child_scope =
              Scope{std::move(*s), true,
                    ScopeKeyBuilder().Add(node->arg(0).get()).Done()};
        } else {
          child_scope = Scope{};
        }
      }
    } else if (f == lera::kJoin && node->arity() == 3) {
      if (i < 2) {
        child_scope = Scope{};
      } else {
        is_scalar_position = true;
        if (auto s = schemas_of_inputs({node->arg(0), node->arg(1)})) {
          child_scope = Scope{std::move(*s), true,
                              ScopeKeyBuilder()
                                  .Add(node->arg(0).get())
                                  .Add(node->arg(1).get())
                                  .Done()};
        } else {
          child_scope = Scope{};
        }
      }
    } else if (lera::IsRelationalOp(node)) {
      // Other relational operators (UNION, FIX, NEST, ...): children that
      // are relational start a fresh scope; constant arguments are skipped
      // by matching anyway.
      child_scope = Scope{};
    }
    (void)is_scalar_position;
    if (TermRef r = TryOnce(node->arg(i), child_scope, block, index, budget,
                            state)) {
      TermList args = node->args();
      args[i] = std::move(r);
      return Term::Apply(node->functor(), std::move(args));
    }
    if (*budget == 0) return nullptr;
  }
  // The whole subtree was scanned without truncation and no rule fired:
  // record it as being in normal form for this block under this scope.
  // (*budget != 0 distinguishes a completed scan from one that ran dry —
  // every budget-truncated path above returns before reaching here. A
  // governor trip also truncates the scan, so it must not certify.)
  if (memoizable && *budget != 0 &&
      (state->guard == nullptr || !state->guard->tripped())) {
    state->current_nf->insert(nf_key);
  }
  return nullptr;
}

Result<RewriteOutcome> Engine::Rewrite(const term::TermRef& query,
                                       const RewriteOptions& options) const {
  RunState state;
  state.options = &options;
  state.sink = options.trace_sink;
  state.profile = options.profile_rules;
  state.guard = options.guard;
  state.nf_memo.resize(program_.blocks.size());
  TermRef current = query;

  auto guard_tripped = [&state]() {
    return state.guard != nullptr && state.guard->tripped();
  };

  int64_t seq_remaining =
      program_.seq_limit < 0 ? kSaturate : program_.seq_limit;
  bool progressed = true;
  while (progressed && seq_remaining != 0 && !state.stats.safety_stop &&
         !guard_tripped()) {
    progressed = false;
    ++state.stats.passes;
    obs::Span pass_span(state.sink, "rewrite.pass", "rewrite");
    if (state.sink != nullptr) {
      pass_span.Arg("pass", static_cast<int64_t>(state.stats.passes));
    }
    for (size_t block_idx = 0; block_idx < program_.blocks.size();
         ++block_idx) {
      const RuleBlock& block = program_.blocks[block_idx];
      const BlockIndex& index = block_indexes_[block_idx];
      state.current_block = &block.name;
      obs::Span block_span(state.sink,
                           state.sink != nullptr
                               ? "rewrite.block " + block.name
                               : std::string(),
                           "rewrite");
      state.current_nf = &state.nf_memo[block_idx];
      int64_t budget = block.limit;
      if (options.budget_per_node > 0 && budget != kSaturate) {
        budget = static_cast<int64_t>(
            options.budget_per_node *
            static_cast<double>(term::CountNodes(query)));
      }
      // Apply the block's rules until saturation, budget exhaustion, or a
      // cycle: oscillating rule pairs (A -> B -> A) would otherwise burn
      // the whole budget re-deriving the same terms — the §7 pathology.
      // Hash-consing makes pointer identity coincide with structural
      // identity for live terms (all of `seen` is pinned via `retained`),
      // so the guard compares pointers: no deep re-hash of the whole query
      // per step, and no false stop on a 64-bit hash collision.
      std::unordered_set<const term::Term*> seen;
      seen.insert(current.get());
      while (true) {
        if (state.stats.applications >= options.max_applications) {
          state.stats.safety_stop = true;
          break;
        }
        // Block-boundary governor check: catches trips even when every
        // candidate quick-rejects (the inner-loop check amortizes, this
        // one backstops it between restarts).
        if (state.guard != nullptr && state.guard->Check()) break;
        Scope root_scope;
        TermRef next =
            TryOnce(current, root_scope, block, index, &budget, &state);
        if (next == nullptr) break;
        bool fresh = seen.insert(next.get()).second;
        state.retained.push_back(current);  // pin for the memos and `seen`
        current = std::move(next);
        progressed = true;
        if (!fresh) {
          ++state.stats.cycle_stops;
          break;
        }
        if (budget == 0) break;
      }
      if (state.stats.safety_stop || guard_tripped()) break;
    }
    if (seq_remaining > 0) --seq_remaining;
  }

  if (guard_tripped()) {
    // Graceful degradation: stop optimizing, keep the best plan reached.
    // Every applied rule preserved semantics, so `current` is correct —
    // the trip only means it may be less optimized than the fixpoint.
    state.stats.trip = state.guard->trip();
    if (state.sink != nullptr) {
      const uint64_t now = obs::NowNs();
      state.sink->RecordComplete(
          "gov.trip", "gov", now, now,
          {{"kind", gov::TripKindName(state.stats.trip.kind)},
           {"detail", state.stats.trip.detail}});
    }
  }

  state.stats.expr_type_hits = state.expr_memo.hits();
  state.stats.expr_type_misses = state.expr_memo.misses();

  RewriteOutcome outcome;
  outcome.term = std::move(current);
  outcome.stats = std::move(state.stats);
  outcome.trace = std::move(state.trace);
  return outcome;
}

}  // namespace eds::rewrite
