// Workload definitions for the wire-level serving benchmark: the schema and
// data each workload loads, and the seeded op stream each connection
// drives. README.md explains why each workload exists and which layer it
// is meant to load.
#ifndef EDS_PERFBENCH_WORKLOADS_H_
#define EDS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/session.h"

namespace perfbench {

enum class Workload { kDashboardLive, kAdhocCold, kAnalytic };

// False on an unknown name.
bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

// One client operation. Reads go over the wire as QUERY, writes as EXEC.
struct Op {
  bool write = false;
  // Reads of EVENTS rows for one film: their answers depend on the writes
  // acknowledged so far, so they are checked for insert visibility rather
  // than against a fixed answer.
  bool events_read = false;
  int film = 0;           // events reads and writes: the film
  int64_t event_id = 0;   // writes: the inserted row's Id (unique per run)
  int64_t score = 0;      // writes: the inserted row's Score
  std::string text;       // ESQL sent on the wire
};

// One EVENTS row (Id, Score) of a film.
struct EventRow {
  int64_t id = 0;
  int64_t score = 0;
};

// A workload's database as plain values. It does not depend on the
// op-stream seed, so every run of a workload serves the same database.
struct Dataset {
  Workload workload = Workload::kDashboardLive;
  // Film f (1-based) has Numf f, Title 'F<f>' and these categories.
  std::vector<std::vector<std::string>> film_categories;  // index f - 1
  std::vector<int64_t> actor_salaries;
  std::vector<std::pair<int, int>> appears_in;  // (film, actor index)
  std::vector<std::vector<EventRow>> events;    // by film; index 0 unused
  std::vector<std::pair<int64_t, int64_t>> beats;  // (winner, loser)
  int view_stack = 0;  // adhoc_cold: views V1 .. Vn stacked over FILM
  bool category_constraint = false;
};

Dataset MakeDataset(Workload w);

// A fresh session holding the dataset's schema, rows and views.
std::unique_ptr<eds::exec::Session> LoadData(const Dataset& data);

// The answer to an analytic read, rendered as the wire renders rows and
// computed from the dataset alone, without the engine. Their raw plans are
// too slow to serve as the oracle (an unfocused 300-node closure, joins
// over 16M-40M row pairs), so this reference stands in for them. Returns
// false for every other text.
bool ReferenceRows(const Dataset& data, const std::string& text,
                   std::vector<std::vector<std::string>>* rows);

// The op stream of one connection. Op i of connection c under seed s is
// the same in every run; the first warmup_ops() ops are the warm-up pass
// that runs during set-up, the rest feed the timed window.
class OpStream {
 public:
  OpStream(Workload w, uint64_t seed, int connection);

  Op Next();
  size_t warmup_ops() const;

 private:
  Op NextDashboard();
  Op NextAdhoc();
  Op NextAnalytic();

  uint64_t NextRandom();
  uint64_t Below(uint64_t n) { return NextRandom() % n; }

  Workload workload_;
  int connection_;
  uint64_t state_;
  uint64_t index_ = 0;
  // adhoc_cold: query shapes already issued by this connection (a shape
  // repeats only when the key space is exhausted, which no run reaches).
  std::unordered_set<uint64_t> shapes_seen_;
  // analytic: the distinct read texts, issued once each during warm-up.
  std::vector<std::string> analytic_texts_;
};

}  // namespace perfbench

#endif  // EDS_PERFBENCH_WORKLOADS_H_
