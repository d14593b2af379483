#include "workloads.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "net/protocol.h"
#include "value/value.h"

namespace perfbench {

namespace {

using eds::value::Value;

struct DataSpec {
  int films = 0;
  int appears_per_film = 0;
  int events = 0;
  int beats_nodes = 0;       // 0: no BEATS graph
  int beats_skip_edges = 0;
  int view_stack = 0;        // adhoc_cold: V1 .. Vn stacked over FILM
  bool category_constraint = false;
};

DataSpec SpecFor(Workload w) {
  switch (w) {
    case Workload::kDashboardLive:
      return {200, 4, 2000, 0, 0, 0, false};
    case Workload::kAdhocCold:
      return {2000, 0, 0, 0, 0, 16, true};
    case Workload::kAnalytic:
      return {2000, 4, 20000, 300, 150, 0, false};
  }
  throw std::logic_error("unknown workload");
}

constexpr const char* kCategories[] = {"Comedy", "Adventure",
                                       "Science Fiction", "Western"};

constexpr const char* kCategoryDomainConstraint = R"(
  ic_category_domain :
    MEMBER(x, c) / ISA(c, SetCategory)
    --> MEMBER(x, c) AND MEMBER(x, SET('Comedy', 'Adventure',
                                       'Science Fiction', 'Western')) / ;
)";

// Insert ids start far above every base Id, and each connection owns its
// own range, so an id names exactly one acknowledged write.
constexpr int64_t kInsertIdBase = 1'000'000'000;
constexpr int64_t kInsertIdStride = 100'000'000;

// splitmix64: a fixed, portable generator, so a seed means the same stream
// on every standard library.
uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Check(const eds::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

// Zipf(s) over 1..n by inverse CDF. Dashboard literals follow it so a few
// hot keys repeat (L0 hits) while the tail keeps missing L0.
class Zipf {
 public:
  Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int k = 1; k <= n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[static_cast<size_t>(k - 1)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  // `u` uniform in [0, 1).
  int Draw(double u) const {
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (cdf_[mid] > u) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<int>(lo) + 1;
  }

 private:
  std::vector<double> cdf_;
};

const Zipf& DashboardZipf() {
  static const Zipf zipf(SpecFor(Workload::kDashboardLive).films, 0.8);
  return zipf;
}

double Unit(uint64_t r) { return static_cast<double>(r >> 11) * 0x1p-53; }

std::string Int(int64_t v) { return std::to_string(v); }

// Films per analytic join range.
constexpr int64_t kJoinWidth = 40;

// The distinct analytic reads: a literal-range equi-join of FILM and
// EVENTS, the Fig. 4 nested view under an ALL quantifier, and a magic-set
// BETTER_THAN closure bound to a constant.
struct AnalyticRead {
  enum Kind { kJoin, kNestedAll, kClosure };
  Kind kind;
  int64_t arg;
  std::string text;
};

const std::vector<AnalyticRead>& AnalyticReads() {
  static const std::vector<AnalyticRead> reads = [] {
    std::vector<AnalyticRead> out;
    for (int64_t a = 100; a <= 1500; a += 200) {
      out.push_back({AnalyticRead::kJoin, a,
                     "SELECT F.Title, E.Score FROM FILM F, EVENTS E WHERE "
                     "F.Numf = E.Numf AND F.Numf > " +
                         Int(a) + " AND F.Numf < " + Int(a + kJoinWidth)});
    }
    for (int64_t s = 6000; s <= 16000; s += 2000) {
      out.push_back({AnalyticRead::kNestedAll, s,
                     "SELECT Title FROM FilmActors WHERE MEMBER('Adventure', "
                     "Categories) AND ALL(Salary(Actors) > " +
                         Int(s) + ")"});
    }
    for (int64_t c : {1, 50, 100, 150, 200}) {
      out.push_back({AnalyticRead::kClosure, c,
                     "SELECT L FROM BETTER_THAN WHERE W = " + Int(c)});
    }
    return out;
  }();
  return reads;
}

// The texts of the analytic reads of one kind.
const std::vector<std::string>& AnalyticTexts(AnalyticRead::Kind kind) {
  static const std::vector<std::vector<std::string>> by_kind = [] {
    std::vector<std::vector<std::string>> out(3);
    for (const AnalyticRead& r : AnalyticReads()) {
      out[static_cast<size_t>(r.kind)].push_back(r.text);
    }
    return out;
  }();
  return by_kind[static_cast<size_t>(kind)];
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kDashboardLive, Workload::kAdhocCold,
                     Workload::kAnalytic}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDashboardLive: return "dashboard_live";
    case Workload::kAdhocCold: return "adhoc_cold";
    case Workload::kAnalytic: return "analytic";
  }
  return "?";
}

Dataset MakeDataset(Workload w) {
  const DataSpec spec = SpecFor(w);
  Dataset d;
  d.workload = w;
  d.view_stack = spec.view_stack;
  d.category_constraint = spec.category_constraint;
  uint64_t state = 0xf11a5ULL;
  if (spec.appears_per_film > 0) {
    for (int i = 0; i < spec.films; ++i) {
      d.actor_salaries.push_back(
          5000 + static_cast<int64_t>(SplitMix(&state) % 15001));
    }
  }
  for (int f = 1; f <= spec.films; ++f) {
    std::vector<std::string> cats = {kCategories[SplitMix(&state) % 4]};
    if (f % 5 == 0 && cats[0] != "Adventure") cats.push_back("Adventure");
    d.film_categories.push_back(std::move(cats));
    for (int a = 0; a < spec.appears_per_film; ++a) {
      d.appears_in.emplace_back(f, (f * 7 + a * 13) % spec.films);
    }
  }
  d.events.resize(static_cast<size_t>(spec.films) + 1);
  for (int id = 1; id <= spec.events; ++id) {
    const size_t film =
        1 + SplitMix(&state) % static_cast<uint64_t>(spec.films);
    const int64_t score = static_cast<int64_t>(SplitMix(&state) % 100);
    d.events[film].push_back({id, score});
  }
  for (int i = 1; i < spec.beats_nodes; ++i) d.beats.emplace_back(i, i + 1);
  for (int e = 0; e < spec.beats_skip_edges; ++e) {
    const auto nodes = static_cast<uint64_t>(spec.beats_nodes);
    const int64_t a = 1 + static_cast<int64_t>(SplitMix(&state) % nodes);
    const int64_t b = 1 + static_cast<int64_t>(SplitMix(&state) % nodes);
    if (a < b) d.beats.emplace_back(a, b);
  }
  return d;
}

std::unique_ptr<eds::exec::Session> LoadData(const Dataset& d) {
  auto session = std::make_unique<eds::exec::Session>();
  Check(session->ExecuteScript(R"(
    TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction',
                                  'Western');
    TYPE Person OBJECT TUPLE (Name : CHAR);
    TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC);
    TYPE SetCategory SET OF Category;
    TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
    TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor);
    TABLE EVENTS (Id : NUMERIC, Numf : NUMERIC, Score : NUMERIC);
    CREATE TABLE BEATS (Winner : INT, Loser : INT);
  )"),
        "schema");

  std::vector<Value> actors;
  for (size_t i = 0; i < d.actor_salaries.size(); ++i) {
    auto actor = session->NewObject(
        "Actor", {{"Name", Value::String("A" + Int(static_cast<int64_t>(i)))},
                  {"Salary", Value::Int(d.actor_salaries[i])}});
    Check(actor.status(), "actor");
    actors.push_back(*actor);
  }
  for (size_t i = 0; i < d.film_categories.size(); ++i) {
    const int64_t f = static_cast<int64_t>(i) + 1;
    std::vector<Value> cats;
    for (const std::string& c : d.film_categories[i]) {
      cats.push_back(Value::String(c));
    }
    Check(session->InsertRow("FILM", {Value::Int(f), Value::String("F" + Int(f)),
                                      Value::Set(std::move(cats))}),
          "film row");
  }
  for (const auto& [film, actor] : d.appears_in) {
    Check(session->InsertRow("APPEARS_IN",
                             {Value::Int(film),
                              actors[static_cast<size_t>(actor)]}),
          "appears_in row");
  }
  for (size_t film = 1; film < d.events.size(); ++film) {
    for (const EventRow& e : d.events[film]) {
      Check(session->InsertRow(
                "EVENTS", {Value::Int(e.id),
                           Value::Int(static_cast<int64_t>(film)),
                           Value::Int(e.score)}),
            "event row");
    }
  }
  for (const auto& [winner, loser] : d.beats) {
    Check(session->InsertRow("BEATS", {Value::Int(winner), Value::Int(loser)}),
          "edge");
  }

  switch (d.workload) {
    case Workload::kDashboardLive:
      Check(session->ExecuteScript(R"(
        CREATE VIEW ADVENTURE_FILMS (Numf, Title) AS
          SELECT Numf, Title FROM FILM
          WHERE MEMBER('Adventure', Categories);
      )"),
            "dashboard view");
      break;
    case Workload::kAdhocCold:
      for (int i = 1; i <= d.view_stack; ++i) {
        const std::string below = i == 1 ? "FILM" : "V" + Int(i - 1);
        Check(session->ExecuteScript(
                  "CREATE VIEW V" + Int(i) +
                  " (Numf, Title, Categories) AS SELECT Numf, Title, "
                  "Categories FROM " +
                  below + " WHERE Numf > " + Int(i) + ";"),
              "view stack");
      }
      break;
    case Workload::kAnalytic:
      Check(session->ExecuteScript(R"(
        CREATE VIEW FilmActors (Title, Categories, Actors) AS
          SELECT Title, Categories, MakeSet(Refactor)
          FROM FILM, APPEARS_IN
          WHERE FILM.Numf = APPEARS_IN.Numf
          GROUP BY Title, Categories;
        CREATE VIEW BETTER_THAN (W, L) AS (
          SELECT Winner, Loser FROM BEATS
          UNION
          SELECT B1.W, B2.L FROM BETTER_THAN B1, BETTER_THAN B2
          WHERE B1.L = B2.W );
      )"),
            "analytic views");
      break;
  }
  if (d.category_constraint) {
    eds::exec::ConstraintOptions options;
    options.run_lint = false;
    Check(session->AddConstraint("category_domain", kCategoryDomainConstraint,
                                 options),
          "constraint");
  }
  return session;
}

bool ReferenceRows(const Dataset& d, const std::string& text,
                   std::vector<std::vector<std::string>>* rows) {
  if (d.workload != Workload::kAnalytic) return false;
  const AnalyticRead* read = nullptr;
  for (const AnalyticRead& r : AnalyticReads()) {
    if (r.text == text) read = &r;
  }
  if (read == nullptr) return false;
  rows->clear();
  auto emit = [&](std::vector<Value> row) {
    rows->push_back(eds::net::RenderRow(row));
  };
  const int64_t films = static_cast<int64_t>(d.film_categories.size());
  switch (read->kind) {
    case AnalyticRead::kJoin:
      for (int64_t f = read->arg + 1; f < read->arg + kJoinWidth; ++f) {
        if (f < 1 || f > films) continue;
        for (const EventRow& e : d.events[static_cast<size_t>(f)]) {
          emit({Value::String("F" + Int(f)), Value::Int(e.score)});
        }
      }
      break;
    case AnalyticRead::kNestedAll: {
      // FilmActors groups by (Title, Categories); titles are unique, so a
      // group is a film with its set of actors.
      std::vector<int64_t> min_salary(static_cast<size_t>(films) + 1,
                                      INT64_MAX);
      std::vector<bool> has_actor(static_cast<size_t>(films) + 1, false);
      for (const auto& [film, actor] : d.appears_in) {
        auto& m = min_salary[static_cast<size_t>(film)];
        m = std::min(m, d.actor_salaries[static_cast<size_t>(actor)]);
        has_actor[static_cast<size_t>(film)] = true;
      }
      for (int64_t f = 1; f <= films; ++f) {
        const auto& cats = d.film_categories[static_cast<size_t>(f - 1)];
        const bool adventure =
            std::find(cats.begin(), cats.end(), "Adventure") != cats.end();
        if (adventure && has_actor[static_cast<size_t>(f)] &&
            min_salary[static_cast<size_t>(f)] > read->arg) {
          emit({Value::String("F" + Int(f))});
        }
      }
      break;
    }
    case AnalyticRead::kClosure: {
      std::map<int64_t, std::vector<int64_t>> out;
      for (const auto& [w, l] : d.beats) out[w].push_back(l);
      std::set<int64_t> reached;
      std::vector<int64_t> frontier = {read->arg};
      while (!frontier.empty()) {
        const int64_t n = frontier.back();
        frontier.pop_back();
        for (int64_t next : out[n]) {
          if (reached.insert(next).second) frontier.push_back(next);
        }
      }
      for (int64_t l : reached) emit({Value::Int(l)});
      break;
    }
  }
  return true;
}

OpStream::OpStream(Workload w, uint64_t seed, int connection)
    : workload_(w),
      connection_(connection),
      state_(seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(connection) +
             static_cast<uint64_t>(w) * 0x9e3779b97f4a7c15ULL) {
  if (w == Workload::kAnalytic) {
    // Every distinct analytic read, in a seeded order; connection c warms
    // the ones at positions c, c + 2, ...
    for (const AnalyticRead& r : AnalyticReads()) {
      analytic_texts_.push_back(r.text);
    }
    uint64_t order = seed;
    for (size_t i = analytic_texts_.size(); i > 1; --i) {
      std::swap(analytic_texts_[i - 1],
                analytic_texts_[SplitMix(&order) % i]);
    }
  }
}

uint64_t OpStream::NextRandom() { return SplitMix(&state_); }

size_t OpStream::warmup_ops() const {
  switch (workload_) {
    case Workload::kDashboardLive:
      return 1500;
    case Workload::kAdhocCold:
      return 40;
    case Workload::kAnalytic:
      return (analytic_texts_.size() + 1 - static_cast<size_t>(connection_)) /
             2;
  }
  return 0;
}

Op OpStream::Next() {
  switch (workload_) {
    case Workload::kDashboardLive: return NextDashboard();
    case Workload::kAdhocCold: return NextAdhoc();
    case Workload::kAnalytic: return NextAnalytic();
  }
  throw std::logic_error("unknown workload");
}

Op OpStream::NextDashboard() {
  const uint64_t i = index_++;
  Op op;
  op.film = DashboardZipf().Draw(Unit(NextRandom()));
  if (i % 10 == 9) {
    op.write = true;
    op.event_id = kInsertIdBase + connection_ * kInsertIdStride +
                  static_cast<int64_t>(i);
    op.score = static_cast<int64_t>(Below(100));
    op.text = "INSERT INTO EVENTS VALUES (" + Int(op.event_id) + ", " +
              Int(op.film) + ", " + Int(op.score) + ");";
    return op;
  }
  const std::string k = Int(op.film);
  switch (Below(5)) {
    case 0:
      op.text = "SELECT Title, Categories FROM FILM WHERE Numf = " + k;
      break;
    case 1:
      op.text =
          "SELECT F.Title, A.Numf FROM FILM F, APPEARS_IN A WHERE F.Numf = "
          "A.Numf AND F.Numf = " +
          k;
      break;
    case 2:
      op.text = "SELECT Title FROM ADVENTURE_FILMS WHERE Numf > " + k +
                " AND Numf < " + Int(op.film + 20);
      break;
    case 3:
      op.text = std::string("SELECT Numf FROM FILM WHERE MEMBER('") +
                kCategories[Below(4)] + "', Categories) AND Numf > " + k +
                " AND Numf < " + Int(op.film + 10);
      break;
    default:
      op.events_read = true;
      op.text = "SELECT Id, Score FROM EVENTS WHERE Numf = " + k;
      break;
  }
  return op;
}

Op OpStream::NextAdhoc() {
  ++index_;
  const int films = SpecFor(Workload::kAdhocCold).films;
  const int depth_count = SpecFor(Workload::kAdhocCold).view_stack;
  for (;;) {
    // A shape is (view depth, ordered predicate forms, projection); the
    // literals inside it vary freely and do not change the plan template.
    const int depth = 1 + static_cast<int>(Below(depth_count));
    const int conjuncts = 1 + static_cast<int>(Below(5));
    int forms[5] = {0, 0, 0, 0, 0};
    uint64_t key = static_cast<uint64_t>(depth);
    key = key * 8 + static_cast<uint64_t>(conjuncts);
    for (int j = 0; j < conjuncts; ++j) {
      forms[j] = static_cast<int>(Below(8));
      key = key * 8 + static_cast<uint64_t>(forms[j]);
    }
    const int projection = static_cast<int>(Below(4));
    key = key * 4 + static_cast<uint64_t>(projection);
    // The two connections split the shape space, so no shape is issued
    // twice in a run.
    uint64_t mix = key;
    if (static_cast<int>(SplitMix(&mix) % 2) != connection_) continue;
    if (!shapes_seen_.insert(key).second) continue;

    static constexpr const char* kProjections[] = {
        "Numf", "Title", "Numf, Title", "Title, Categories"};
    std::string text = std::string("SELECT ") + kProjections[projection] +
                       " FROM V" + Int(depth) + " WHERE ";
    for (int j = 0; j < conjuncts; ++j) {
      if (j > 0) text += " AND ";
      const std::string c = Int(1 + static_cast<int64_t>(Below(films)));
      const char* cat = kCategories[Below(4)];
      switch (forms[j]) {
        case 0: text += "Numf > " + c; break;
        case 1: text += "Numf < " + c; break;
        case 2: text += "Numf = " + c; break;
        case 3: text += "Numf >= " + c; break;
        case 4: text += "Numf <> " + c; break;
        case 5: text += std::string("MEMBER('") + cat + "', Categories)"; break;
        case 6: text += "Title = 'F" + c + "'"; break;
        default: text += "Numf <= " + c; break;
      }
    }
    Op op;
    op.text = std::move(text);
    return op;
  }
}

Op OpStream::NextAnalytic() {
  const uint64_t i = index_++;
  Op op;
  const size_t warm = warmup_ops();
  if (i < warm) {
    op.text = analytic_texts_[static_cast<size_t>(connection_) + 2 * i];
    return op;
  }
  // Timed reads draw the kind first: a join 4 times in 6, a closure and a
  // nested view once each. The joins and the closures bound near the end
  // of the chain cost 1.5-2.5 ms, the rest 5-11 ms. With 77% of the reads
  // in the cheap group the median read sits inside it, not on the edge
  // between the groups, where a busier host doubled it (README.md).
  const uint64_t pick = Below(6);
  const auto& texts = AnalyticTexts(pick < 4    ? AnalyticRead::kJoin
                                    : pick == 4 ? AnalyticRead::kClosure
                                                : AnalyticRead::kNestedAll);
  op.text = texts[Below(texts.size())];
  return op;
}

}  // namespace perfbench
