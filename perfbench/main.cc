// eds_perfbench: the wire-level serving benchmark.
//
// One process hosts a srv::QueryService behind a net::Server and drives it
// over the real wire protocol from two closed-loop connections, each with
// its own generator thread, replaying a seeded op stream (workloads.h).
//
//   eds_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// --seconds sets the work, not a clock: a window runs a fixed budget of
// ops, the workload's nominal rate times its share of the seconds given, so
// every run of a seed does identical work. On the 4-CPU reference host the
// run measures for about --seconds.
//
// --trace 0 makes one repetition per kRepSeconds of the budget, each on a
// fresh stack: set up (timed for setup_s), warm up, run one window. It
// prints the end-to-end metrics as medians over the repetitions. --trace 1
// sets up once and runs two windows of a quarter of the budget each: first
// traced, with spans around every call this program makes into a layer,
// then untraced as the overhead reference; it prints the per-layer metrics
// and fails unless the parts add up and the workload loads its intended
// layer. Both modes check every answer after each window and exit 1 on any
// failed or wrong op. The last stdout line is one JSON object; README.md
// documents it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/session.h"
#include "lera/schema.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "srv/fingerprint.h"
#include "srv/service.h"
#include "term/interner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using eds::Result;
using eds::Status;
using eds::term::TermRef;

// Closed-loop connections, one generator thread each, and service workers:
// 2 x 2 leaves a CPU of a 4-CPU host for the poller (README.md).
constexpr int kConnections = 2;
constexpr size_t kWorkers = 2;
// A p99 must rest on at least this many samples of its kind.
constexpr size_t kMinP99Samples = 1000;
// A --trace 0 run makes one repetition per kRepSeconds of its budget, and
// at least kMinRepetitions. Each sets up a fresh stack, warms it and runs
// one window; the end-to-end metrics are medians over the repetitions.
// Fresh stacks bound dashboard_live's EVENTS growth. A median over several
// short repetitions rejects a slow episode of a few seconds that a median
// over a few long ones takes in (README.md, Host facts). 2.5 s still gives
// every repetition more than kMinP99Samples reads on the slowest workload.
constexpr double kRepSeconds = 2.5;
constexpr int kMinRepetitions = 4;
// The traced run measures one window of this share of the budget.
constexpr double kTracedShare = 0.25;
// Ops of each connection's stream covered by the printed stream digest.
constexpr size_t kDigestOps = 5000;
// Decomposition tolerance: |unattributed_us| and any negative part must
// stay within max(kTolFloorUs, kTolShare x mean wire latency).
// unattributed_us is admission and completion bookkeeping inside Submit
// (a few us), so a larger one means a part is mismeasured.
constexpr double kTolFloorUs = 30.0;
constexpr double kTolShare = 0.15;
// adhoc_cold must miss both cache tiers on at least this share of reads.
constexpr double kAdhocMinMissShare = 0.90;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS. False
// when the kernel does not offer it.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// Peak RSS since the last reset (or since start), from /proc/self/status.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return -1;
}

// Host CPU time the hypervisor gave to others while this guest's CPUs
// wanted it (steal), and all CPU time, in ticks, from /proc/stat. Printed
// so a slow run can be told apart from a slow program (README.md).
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": the sum over all CPUs
  HostTicks t;
  uint64_t v = 0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// FNV-1a, for stream digests and answer hashes.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(std::string_view s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  }
};

// Order-insensitive hash of a result: rows compare as a bag.
uint64_t BagHash(const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::string> flat;
  flat.reserve(rows.size());
  for (const auto& row : rows) {
    std::string s;
    for (const std::string& cell : row) {
      s += cell;
      s += '\x1f';
    }
    flat.push_back(std::move(s));
  }
  std::sort(flat.begin(), flat.end());
  Fnv fnv;
  fnv.Add(std::to_string(flat.size()));
  for (const std::string& s : flat) {
    fnv.Add(s);
    fnv.Add("\x1e");
  }
  return fnv.h;
}

double Percentile(std::vector<uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  Workload workload = Workload::kDashboardLive;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args.workload)) {
        Die("unknown workload '" + value + "'");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

// ---------------------------------------------------------------------------
// What a run records.

struct ReadRecord {
  uint32_t text_id = 0;  // into Connection::texts
  uint64_t latency_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  uint64_t rows_hash = 0;
  bool l0_hit = false;
  bool cache_hit = false;
  int film = 0;                  // events reads
  std::vector<EventRow> events;  // events reads: the rows served
};

struct WriteRecord {
  int film = 0;
  EventRow row;
  uint64_t latency_ns = 0;
  uint64_t send_ns = 0;
  uint64_t ack_ns = 0;
  bool timed = false;  // false: a warm-up write, kept for visibility checks
};

// One traced op: the wire time plus every span's duration and the counts
// the spanned calls returned.
struct OpTrace {
  bool write = false;
  bool l0_hit = false;     // path the in-process serve took
  bool cache_hit = false;
  uint64_t wire_ns = 0;
  uint64_t submit_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t serve_ns = 0;
  uint64_t translate_ns = 0;
  uint64_t fingerprint_ns = 0;
  uint64_t rewrite_ns = 0;
  uint64_t schema_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t ddl_ns = 0;
  eds::rewrite::EngineStats rewrite;
  eds::exec::ExecStats exec;
};

struct SpanRec {
  uint64_t op = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0: root
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// ---------------------------------------------------------------------------
// The serving stack under test, and its in-process twin for traced runs.

struct Stack {
  std::unique_ptr<eds::exec::Session> session;
  std::unique_ptr<eds::srv::QueryService> service;
  std::unique_ptr<eds::net::Server> server;  // null for the twin
};

Stack StartStack(const Dataset& data, bool with_server) {
  Stack s;
  s.session = LoadData(data);
  eds::srv::ServiceOptions options;
  options.workers = kWorkers;
  s.service =
      std::make_unique<eds::srv::QueryService>(s.session.get(), options);
  Check(s.service->Start(), "QueryService::Start");
  if (with_server) {
    s.server = std::make_unique<eds::net::Server>(s.service.get(),
                                                  eds::net::ServerOptions{});
    Check(s.server->Start(), "Server::Start");
  }
  return s;
}

void StopStack(Stack* s) {
  if (s->server != nullptr) s->server->Shutdown(true);
  if (s->service != nullptr) s->service->Stop();
  s->server.reset();
  s->service.reset();
  s->session.reset();
}

struct Connection {
  explicit Connection(Workload w, uint64_t seed, int id)
      : id(id), stream(w, seed, id) {}

  int id;
  OpStream stream;
  std::unique_ptr<eds::net::Client> client;

  std::unordered_map<std::string, uint32_t> text_ids;
  std::vector<std::string> texts;
  std::vector<ReadRecord> reads;
  std::vector<WriteRecord> writes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t window_start_ns = 0;
  uint64_t window_end_ns = 0;
  uint64_t thread_cpu_ns = 0;

  // Traced runs only.
  std::vector<OpTrace> traces;
  std::vector<SpanRec> spans;
  uint64_t next_op = 0;
  // Plans for replaying cache-hit paths, which need the cached plan the
  // service reused: exact text -> optimized plan (L0), template -> normal
  // form (plan cache). Filled untimed on first use.
  std::unordered_map<std::string, TermRef> l0_plans;
  std::unordered_map<const eds::term::Term*, std::pair<TermRef, TermRef>>
      template_nfs;

  uint32_t TextId(const std::string& text) {
    auto [it, inserted] =
        text_ids.emplace(text, static_cast<uint32_t>(texts.size()));
    if (inserted) texts.push_back(text);
    return it->second;
  }

  uint32_t OpenSpan(uint64_t op, uint32_t parent, const char* name) {
    spans.push_back({op, static_cast<uint32_t>(spans.size() + 1), parent,
                     name, NowNs(), 0});
    return static_cast<uint32_t>(spans.size());
  }
  uint64_t CloseSpan(uint32_t id) {
    SpanRec& s = spans[id - 1];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
};

void Connect(const Stack& stack, Connection* conn) {
  eds::net::Client::Options options;
  options.port = stack.server->port();
  options.client_name = "perfbench-" + std::to_string(conn->id);
  auto client = eds::net::Client::Connect(options);
  Check(client.status(), "Client::Connect");
  conn->client = std::move(*client);
}

std::vector<EventRow> ParseEventRows(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<EventRow> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() != 2) return {{-1, -1}};  // fails every visibility check
    out.push_back({std::strtoll(row[0].c_str(), nullptr, 10),
                   std::strtoll(row[1].c_str(), nullptr, 10)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay: the same calls the served op made, each in its own span.

// Context shared by the two connections' traced ops.
struct TwinContext {
  Stack* twin = nullptr;
  // Replays read the twin session directly, so twin INSERTs take this
  // exclusively (the twin service's own gate only covers its workers).
  std::shared_mutex data_mu;
};

// The optimized plan the service would reuse for `text`, rebuilt untimed
// when this connection has not replayed it yet.
TermRef PlanFor(Connection* conn, eds::exec::Session* session,
                const std::string& text) {
  auto it = conn->l0_plans.find(text);
  if (it != conn->l0_plans.end()) return it->second;
  auto raw = session->Translate(text);
  Check(raw.status(), "replay translate");
  eds::srv::Fingerprint fp = eds::srv::FingerprintPlan(*raw);
  auto nf = session->Rewrite(fp.tmpl);
  Check(nf.status(), "replay rewrite");
  auto plan = eds::srv::InstantiatePlan(nf->term, fp.params);
  TermRef out = plan.ok() ? *plan : session->Rewrite(*raw)->term;
  conn->l0_plans.emplace(text, out);
  return out;
}

void ReplayRead(Connection* conn, eds::exec::Session* session,
                const std::string& text, uint64_t op, uint32_t root,
                OpTrace* t) {
  TermRef plan;
  if (t->l0_hit) {
    plan = PlanFor(conn, session, text);
  } else {
    uint32_t span = conn->OpenSpan(op, root, "esql.Session::Translate");
    auto raw = session->Translate(text);
    t->translate_ns = conn->CloseSpan(span);
    Check(raw.status(), "replay translate");
    span = conn->OpenSpan(op, root, "srv.FingerprintPlan");
    eds::srv::Fingerprint fp = eds::srv::FingerprintPlan(*raw);
    t->fingerprint_ns = conn->CloseSpan(span);
    TermRef nf;
    if (t->cache_hit) {
      auto it = conn->template_nfs.find(fp.tmpl.get());
      if (it == conn->template_nfs.end()) {
        auto rewritten = session->Rewrite(fp.tmpl);
        Check(rewritten.status(), "replay rewrite");
        it = conn->template_nfs
                 .emplace(fp.tmpl.get(),
                          std::make_pair(fp.tmpl, rewritten->term))
                 .first;
      }
      nf = it->second.second;
    } else {
      span = conn->OpenSpan(op, root, "rewrite.Session::Rewrite");
      auto rewritten = session->Rewrite(fp.tmpl);
      t->rewrite_ns = conn->CloseSpan(span);
      Check(rewritten.status(), "replay rewrite");
      t->rewrite = rewritten->stats;
      nf = rewritten->term;
    }
    auto instantiated = eds::srv::InstantiatePlan(nf, fp.params);
    if (instantiated.ok()) {
      plan = *instantiated;
    } else {
      // The service's fallback for a template it cannot re-instantiate.
      span = conn->OpenSpan(op, root, "rewrite.Session::Rewrite");
      auto direct = session->Rewrite(*raw);
      t->rewrite_ns += conn->CloseSpan(span);
      Check(direct.status(), "replay rewrite");
      plan = direct->term;
    }
    span = conn->OpenSpan(op, root, "lera.InferSchema");
    auto schema = eds::lera::InferSchema(plan, session->catalog());
    t->schema_ns = conn->CloseSpan(span);
    Check(schema.status(), "replay schema");
  }
  const uint32_t span = conn->OpenSpan(op, root, "exec.Session::Run");
  auto rows = session->Run(plan, eds::exec::ExecOptions{}, &t->exec);
  t->exec_ns = conn->CloseSpan(span);
  Check(rows.status(), "replay run");
}

// ---------------------------------------------------------------------------
// Running ops.

enum class Mode { kWarmup, kTimed, kTraced };

// Sends one op over the wire; records it unless warming up. With a twin,
// the op is then served in process on the twin and, for reads, replayed
// layer by layer (traced mode), or only mirrored so the twin's caches track
// the served stack's (warm-up).
void RunOp(Connection* conn, const Op& op, Mode mode, TwinContext* twin) {
  const bool record = mode != Mode::kWarmup;
  const bool traced = mode == Mode::kTraced;
  const uint64_t op_id = conn->next_op++;
  uint32_t root = 0, wire_span = 0;
  if (traced) {
    root = conn->OpenSpan(op_id, 0, op.write ? "op.write" : "op.read");
    wire_span = conn->OpenSpan(
        op_id, root, op.write ? "net::Client::Exec" : "net::Client::Query");
  }
  const uint64_t send = NowNs();
  Result<eds::net::ResultMsg> reply =
      op.write ? conn->client->Exec(op.text) : conn->client->Query(op.text);
  const uint64_t recv = NowNs();
  if (traced) conn->CloseSpan(wire_span);
  const bool ok = reply.ok() && reply->ok;
  if (!record && op.write) {
    if (!ok) Die("warm-up write failed: " + op.text);
    conn->writes.push_back(
        {op.film, {op.event_id, op.score}, recv - send, send, recv, false});
  }
  if (record) {
    ++conn->attempted;
    if (!ok) {
      ++conn->failed;
      std::fprintf(stderr, "perfbench: op failed: %s -> %s\n",
                   op.text.c_str(),
                   reply.ok() ? reply->error.c_str()
                              : reply.status().ToString().c_str());
    } else if (op.write) {
      conn->writes.push_back(
          {op.film, {op.event_id, op.score}, recv - send, send, recv, true});
    } else {
      ReadRecord r;
      r.text_id = conn->TextId(op.text);
      r.latency_ns = recv - send;
      r.send_ns = send;
      r.recv_ns = recv;
      r.l0_hit = reply->l0_hit;
      r.cache_hit = reply->cache_hit;
      if (op.events_read) {
        r.film = op.film;
        r.events = ParseEventRows(reply->rows);
      } else {
        r.rows_hash = BagHash(reply->rows);
      }
      conn->reads.push_back(std::move(r));
    }
  }
  if (twin == nullptr) return;

  OpTrace t;
  t.write = op.write;
  t.wire_ns = recv - send;
  eds::srv::QueryService* service = twin->twin->service.get();
  if (op.write) {
    std::unique_lock<std::shared_mutex> lock(twin->data_mu);
    const uint32_t span =
        traced ? conn->OpenSpan(op_id, root, "srv::QueryService::ApplyDdl")
               : 0;
    const Status applied = service->ApplyDdl(op.text);
    if (traced) t.ddl_ns = conn->CloseSpan(span);
    Check(applied, "twin ApplyDdl");
  } else {
    // The callback flavor of Submit, which the wire server also uses: the
    // span ends when the worker completes the query, so it excludes this
    // thread's wake-up, which the wire path never pays.
    struct Completion {
      std::mutex mu;
      std::condition_variable cv;
      std::optional<Result<eds::srv::ServedQuery>> served;
      uint64_t end_ns = 0;
    } done;
    const uint64_t start = NowNs();
    service->SubmitWithCallback(
        op.text, eds::srv::SubmitOptions{},
        [&done](Result<eds::srv::ServedQuery> r) {
          const uint64_t end = NowNs();
          std::lock_guard<std::mutex> lock(done.mu);
          done.served.emplace(std::move(r));
          done.end_ns = end;
          done.cv.notify_one();
        });
    {
      std::unique_lock<std::mutex> lock(done.mu);
      done.cv.wait(lock, [&done] { return done.served.has_value(); });
    }
    if (traced) {
      t.submit_ns = done.end_ns - start;
      conn->spans.push_back(
          {op_id, static_cast<uint32_t>(conn->spans.size() + 1), root,
           "srv::QueryService::SubmitWithCallback", start, done.end_ns});
    }
    const Result<eds::srv::ServedQuery>& served = *done.served;
    Check(served.status(), "twin Submit");
    t.l0_hit = served->l0_hit;
    t.cache_hit = served->cache_hit;
    t.queue_ns = served->queue_ns;
    t.serve_ns = served->serve_ns;
    if (traced) {
      std::shared_lock<std::shared_mutex> lock(twin->data_mu);
      ReplayRead(conn, twin->twin->session.get(), op.text, op_id, root, &t);
    }
  }
  if (traced) {
    conn->CloseSpan(root);
    if (ok) conn->traces.push_back(std::move(t));
  }
}

// Windows stop early, with a note, once the process has run this long:
// it must end within its time limit even on a much slower build or host.
constexpr double kCutSeconds = 120;
const uint64_t kStartNs = NowNs();

// Ops per connection in a window of `seconds` at the workload's nominal
// rate (ops/s over both connections on the reference host).
size_t WindowOps(Workload w, double seconds) {
  double rate = 0;
  switch (w) {
    case Workload::kDashboardLive: rate = 8000; break;
    case Workload::kAdhocCold: rate = 560; break;
    case Workload::kAnalytic: rate = 550; break;
  }
  return static_cast<size_t>(rate * seconds / kConnections);
}

// Runs every connection on its own thread: the warm-up prefix of each
// stream, or a window of `ops` further ops per connection.
void RunPhase(std::vector<std::unique_ptr<Connection>>& conns, Mode mode,
              size_t ops, TwinContext* twin) {
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  const uint64_t deadline =
      kStartNs + static_cast<uint64_t>(kCutSeconds * 1e9);
  std::vector<std::thread> threads;
  for (auto& c : conns) {
    Connection* conn = c.get();
    threads.emplace_back([&, conn] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      if (mode == Mode::kWarmup) {
        const size_t n = conn->stream.warmup_ops();
        for (size_t i = 0; i < n; ++i) {
          RunOp(conn, conn->stream.Next(), mode, twin);
        }
        return;
      }
      const uint64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
      conn->window_start_ns = NowNs();
      for (size_t i = 0; i < ops; ++i) {
        if (NowNs() > deadline) {
          std::fprintf(stderr,
                       "perfbench: window cut %.0f s into the run after %zu "
                       "of %zu ops\n",
                       kCutSeconds, i, ops);
          break;
        }
        RunOp(conn, conn->stream.Next(), mode, twin);
      }
      conn->window_end_ns = NowNs();
      conn->thread_cpu_ns += CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Correctness: every answer against the raw plan on the row engine.

struct Verdict {
  uint64_t wrong = 0;
  uint64_t checked_reads = 0;
  uint64_t distinct_texts = 0;

  // Counts a wrong answer; the first few are described on stderr.
  void Wrong(const std::string& what) {
    if (wrong++ < 10) std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
  void Add(const Verdict& other) {
    wrong += other.wrong;
    checked_reads += other.checked_reads;
    distinct_texts = std::max(distinct_texts, other.distinct_texts);
  }
};

// Threads computing expected answers after the timed windows.
constexpr size_t kOracleThreads = 4;

// The expected answer's bag hash: the raw plan (no rewrite) on the row
// engine, or, for the analytic reads whose raw plans are intractable, the
// engine-free reference.
uint64_t ExpectedHash(const Dataset& data, eds::exec::Session* session,
                      const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  if (!ReferenceRows(data, text, &rows)) {
    eds::exec::QueryOptions options;
    options.rewrite = false;
    options.exec_options.vectorized = false;
    auto result = session->Query(text, options);
    if (!result.ok()) return 0;  // never a real answer's hash
    for (const auto& row : result->rows) {
      rows.push_back(eds::net::RenderRow(row));
    }
  }
  return BagHash(rows);
}

std::string EventsText(int film) {
  return "SELECT Id, Score FROM EVENTS WHERE Numf = " + std::to_string(film);
}

// Runs after every timed window, with the server idle. Reads of tables no
// op writes must equal the expected answer on the final state; events
// reads must show every insert acknowledged before they were sent and
// nothing that was not yet sent; and a final wire read of every film that
// saw events traffic must equal the expected answer and hold every
// acknowledged insert.
//
// `expected` caches answers across repetitions: every repetition starts
// from the same data and applies the same inserts, so a text's final-state
// answer is the same in all of them.
Verdict Verify(const Dataset& data, Stack* stack,
               std::vector<std::unique_ptr<Connection>>& conns,
               std::unordered_map<std::string, uint64_t>* expected) {
  Verdict v;
  std::map<int, std::vector<const WriteRecord*>> writes_by_film;
  std::vector<int> event_films;
  for (auto& c : conns) {
    for (const WriteRecord& wr : c->writes) {
      writes_by_film[wr.film].push_back(&wr);
      event_films.push_back(wr.film);
    }
    for (const ReadRecord& r : c->reads) {
      if (r.film != 0) event_films.push_back(r.film);
    }
  }
  std::sort(event_films.begin(), event_films.end());
  event_films.erase(std::unique(event_films.begin(), event_films.end()),
                    event_films.end());

  // Expected answers for every distinct text not yet known, computed in
  // parallel: the session is only read now.
  std::vector<std::pair<const std::string, uint64_t>*> todo;
  auto need = [&](const std::string& text) {
    auto [it, inserted] = expected->emplace(text, 0);
    if (inserted) todo.push_back(&*it);
  };
  for (auto& c : conns) {
    for (const ReadRecord& r : c->reads) {
      if (r.film == 0) need(c->texts[r.text_id]);
    }
  }
  for (int film : event_films) need(EventsText(film));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t i = 0; i < kOracleThreads; ++i) {
    workers.emplace_back([&] {
      for (size_t j = next++; j < todo.size(); j = next++) {
        todo[j]->second =
            ExpectedHash(data, stack->session.get(), todo[j]->first);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  v.distinct_texts = expected->size();

  for (auto& c : conns) {
    for (const ReadRecord& r : c->reads) {
      ++v.checked_reads;
      if (r.film == 0) {
        if (r.rows_hash != expected->at(c->texts[r.text_id])) {
          v.Wrong("wrong answer: " + c->texts[r.text_id]);
        }
        continue;
      }
      // Visibility: must hold base + writes acked before send; may hold
      // writes sent before the reply arrived; nothing else.
      std::map<int64_t, int64_t> got;
      bool bad = false;
      for (const EventRow& e : r.events) {
        bad |= !got.emplace(e.id, e.score).second;
      }
      std::map<int64_t, int64_t> allowed;
      for (const EventRow& e : data.events[static_cast<size_t>(r.film)]) {
        allowed.emplace(e.id, e.score);
        bad |= got.count(e.id) == 0;
      }
      for (const WriteRecord* wr : writes_by_film[r.film]) {
        if (wr->send_ns <= r.recv_ns) allowed.emplace(wr->row.id, wr->row.score);
        if (wr->ack_ns <= r.send_ns) bad |= got.count(wr->row.id) == 0;
      }
      for (const auto& [id, score] : got) {
        auto it = allowed.find(id);
        bad |= it == allowed.end() || it->second != score;
      }
      if (bad) {
        v.Wrong("events read of film " + std::to_string(r.film) +
                " misses an acknowledged insert or shows an unsent one");
      }
    }
  }
  for (int film : event_films) {
    const std::string text = EventsText(film);
    auto reply = conns[0]->client->Query(text);
    ++v.checked_reads;
    bool bad = !(reply.ok() && reply->ok) ||
               BagHash(reply->rows) != expected->at(text);
    if (!bad) {
      std::map<int64_t, int64_t> got;
      for (const EventRow& e : ParseEventRows(reply->rows)) {
        got.emplace(e.id, e.score);
      }
      for (const WriteRecord* wr : writes_by_film[film]) {
        bad |= got.count(wr->row.id) == 0;
      }
    }
    if (bad) {
      v.Wrong("final read of film " + std::to_string(film) +
              " is wrong or misses an acknowledged insert");
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

void PrintMetric(const Metric& m) {
  std::printf("  %-32s %16.4f %-6s n=%llu\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<unsigned long long>(m.samples));
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::string& path,
                const std::vector<std::unique_ptr<Connection>>& conns) {
  std::ofstream out(path);
  if (!out) Die("cannot write " + path);
  out << "{\"traceEvents\": [\n";
  bool first = true;
  uint64_t t0 = UINT64_MAX;
  for (const auto& c : conns) {
    for (const SpanRec& s : c->spans) t0 = std::min(t0, s.start_ns);
  }
  for (const auto& c : conns) {
    for (const SpanRec& s : c->spans) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << c->id << ", \"ts\": "
          << static_cast<double>(s.start_ns - t0) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"op\": " << s.op << ", \"span\": " << s.id
          << ", \"parent\": " << s.parent << "}}";
    }
  }
  out << "\n]}\n";
}

uint64_t StreamDigest(Workload w, uint64_t seed, int connection) {
  OpStream stream(w, seed, connection);
  Fnv fnv;
  const size_t n = stream.warmup_ops() + kDigestOps;
  for (size_t i = 0; i < n; ++i) {
    fnv.Add(stream.Next().text);
    fnv.Add("\n");
  }
  return fnv.h;
}

struct CacheCounts {
  eds::srv::L0Cache::Stats l0;
  eds::srv::PlanCache::Stats plan;
  eds::net::ServerStats net;
};

CacheCounts Snapshot(const Stack& s) {
  return {s.service->l0_cache().GetStats(), s.service->cache().GetStats(),
          s.server->GetStats()};
}

std::vector<std::unique_ptr<Connection>> MakeConnections(const Args& args) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(args.workload, args.seed, i));
  }
  return conns;
}

void Disconnect(std::vector<std::unique_ptr<Connection>>& conns) {
  for (auto& c : conns) {
    if (c->client != nullptr) (void)c->client->Goodbye();
    c->client.reset();
  }
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;
  double window_s = 0;
  uint64_t thread_cpu_ns = 0;
  std::vector<uint64_t> read_ns;
  std::vector<uint64_t> write_ns;
  uint64_t reads_missing_both = 0;
};

Totals Tally(const std::vector<std::unique_ptr<Connection>>& conns) {
  Totals t;
  uint64_t start = UINT64_MAX, end = 0;
  for (const auto& c : conns) {
    t.attempted += c->attempted;
    t.failed += c->failed;
    t.thread_cpu_ns += c->thread_cpu_ns;
    start = std::min(start, c->window_start_ns);
    end = std::max(end, c->window_end_ns);
    for (const ReadRecord& r : c->reads) {
      t.read_ns.push_back(r.latency_ns);
      if (!r.l0_hit && !r.cache_hit) ++t.reads_missing_both;
    }
    for (const WriteRecord& w : c->writes) {
      if (w.timed) t.write_ns.push_back(w.latency_ns);
    }
  }
  t.ops = t.attempted - t.failed;
  t.window_s = static_cast<double>(end - start) / 1e9;
  return t;
}

void PrintHeader(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d cpus=%u\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, std::thread::hardware_concurrency());
  for (int c = 0; c < kConnections; ++c) {
    std::printf("  stream digest conn%d: %016llx (warm-up + first %zu ops)\n",
                c,
                static_cast<unsigned long long>(
                    StreamDigest(args.workload, args.seed, c)),
                kDigestOps);
  }
}

void PrintCounts(const CacheCounts& before, const CacheCounts& after) {
  std::printf(
      "  counts: l0_hits=%llu l0_misses=%llu tmpl_hits=%llu "
      "tmpl_misses=%llu plan_evictions=%llu l0_evictions=%llu\n",
      static_cast<unsigned long long>(after.l0.hits - before.l0.hits),
      static_cast<unsigned long long>(after.l0.misses - before.l0.misses),
      static_cast<unsigned long long>(after.plan.hits - before.plan.hits),
      static_cast<unsigned long long>(after.plan.misses - before.plan.misses),
      static_cast<unsigned long long>(after.plan.evictions -
                                      before.plan.evictions),
      static_cast<unsigned long long>(after.l0.evictions -
                                      before.l0.evictions));
}

// Exit code from the checks: 0 only when every op succeeded with the
// right answer.
int Finish(const Verdict& verdict, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics, bool checks_ok) {
  const uint64_t bad = failed + verdict.wrong;
  std::printf("  error_rate %.6f (failed=%llu wrong=%llu attempted=%llu; "
              "%llu answers checked against %llu oracle texts)\n",
              Ratio(static_cast<double>(bad), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(verdict.wrong),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(verdict.checked_reads),
              static_cast<unsigned long long>(verdict.distinct_texts));
  const bool correct = bad == 0;
  PrintJson(correct, attempted, bad, metrics);
  return correct && checks_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int RunUntraced(const Args& args) {
  const Dataset data = MakeDataset(args.workload);
  const int repetitions =
      std::max(kMinRepetitions,
               static_cast<int>(std::lround(args.seconds / kRepSeconds)));
  const size_t window_ops =
      WindowOps(args.workload, args.seconds / repetitions);
  std::unordered_map<std::string, uint64_t> expected;
  Verdict verdict;
  uint64_t attempted = 0, failed = 0, reads = 0, writes = 0;
  size_t min_reads = SIZE_MAX, min_writes = SIZE_MAX;
  std::vector<double> setups, rates, p50s, p99s, cpus, rss, write_p50s,
      write_p99s;
  uint64_t steal_ticks = 0, host_ticks = 0;
  std::printf("end-to-end (%d repetitions of %zu ops per connection, %d "
              "connections x %zu workers):\n",
              repetitions, window_ops, kConnections, kWorkers);
  for (int r = 0; r < repetitions; ++r) {
    // Hand the last repetition's freed heap back to the system first, so
    // each repetition's peak starts from the same footing.
    malloc_trim(0);
    const bool peak_reset = ResetPeakRss();
    const uint64_t t0 = NowNs();
    Stack stack = StartStack(data, /*with_server=*/true);
    auto conns = MakeConnections(args);
    for (auto& c : conns) Connect(stack, c.get());
    RunPhase(conns, Mode::kWarmup, 0, nullptr);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    const CacheCounts before = Snapshot(stack);
    const HostTicks host0 = ReadHostTicks();
    const uint64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    RunPhase(conns, Mode::kTimed, window_ops, nullptr);
    const uint64_t cpu1 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const HostTicks host1 = ReadHostTicks();
    steal_ticks += host1.steal - host0.steal;
    host_ticks += host1.total - host0.total;
    rss.push_back(peak_reset ? PeakRssMb() : -1);
    const CacheCounts after = Snapshot(stack);
    const Totals t = Tally(conns);
    verdict.Add(Verify(data, &stack, conns, &expected));
    Disconnect(conns);
    StopStack(&stack);

    attempted += t.attempted;
    failed += t.failed;
    reads += t.read_ns.size();
    writes += t.write_ns.size();
    min_reads = std::min(min_reads, t.read_ns.size());
    rates.push_back(static_cast<double>(t.ops) / t.window_s);
    p50s.push_back(Percentile(t.read_ns, 0.50) / 1e3);
    p99s.push_back(Percentile(t.read_ns, 0.99) / 1e3);
    cpus.push_back(static_cast<double>(cpu1 - cpu0 - t.thread_cpu_ns) / 1e3 /
                   static_cast<double>(t.ops));
    if (!t.write_ns.empty()) {
      min_writes = std::min(min_writes, t.write_ns.size());
      write_p50s.push_back(Percentile(t.write_ns, 0.50) / 1e3);
      write_p99s.push_back(Percentile(t.write_ns, 0.99) / 1e3);
    }
    std::printf("  rep %d: window %.3f s, ops_per_s %.1f, read p50 %.1f us, "
                "read p99 %.1f us, peak rss %.2f MB, setup %.4f s\n",
                r + 1, t.window_s, rates.back(), p50s.back(), p99s.back(),
                rss.back(), setups.back());
    PrintCounts(before, after);
  }
  // Without a resettable peak (no /proc/self/clear_refs), the process
  // peak over all repetitions stands in.
  if (std::find(rss.begin(), rss.end(), -1.0) != rss.end()) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    rss.assign(1, static_cast<double>(usage.ru_maxrss) / 1024.0);
  }

  const uint64_t ops = attempted - failed;
  std::vector<Metric> metrics = {
      {"ops_per_s", Median(rates), "1/s", ops},
      {"latency_p50_us", Median(p50s), "us", reads},
      {"cpu_us_per_op", Median(cpus), "us", ops},
      {"peak_rss_mb", Median(rss), "MB", rss.size()},
      {"setup_s", Median(setups), "s", setups.size()},
  };
  // Every repetition's p99 must rest on enough samples of its kind.
  bool checks_ok = min_reads >= kMinP99Samples;
  // The p99s are printed but kept out of the JSON: on a shared virtual
  // host the slowest reads are the ones the hypervisor's steal landed on,
  // so runs of the same code moved them by far more than their medians
  // (README.md, Host facts).
  std::vector<Metric> report = metrics;
  report.insert(report.begin() + 2,
                {"latency_p99_us", Median(p99s), "us", reads});
  if (!write_p50s.empty()) {
    report.push_back(
        {"write_latency_p50_us", Median(write_p50s), "us", writes});
    report.push_back(
        {"write_latency_p99_us", Median(write_p99s), "us", writes});
    checks_ok &= min_writes >= kMinP99Samples;
  }
  std::printf("medians over the repetitions (n = samples in all of them):\n");
  for (const Metric& m : report) PrintMetric(m);
  std::printf("  host steal during the windows: %.1f%% of all CPU time\n",
              100.0 * Ratio(static_cast<double>(steal_ticks),
                            static_cast<double>(host_ticks)));
  if (!checks_ok) {
    std::printf("  FAIL: a repetition's p99 rests on fewer than %zu "
                "samples\n",
                kMinP99Samples);
  }
  return Finish(verdict, attempted, failed, metrics, checks_ok);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer attribution.

int RunTraced(const Args& args) {
  const Dataset data = MakeDataset(args.workload);
  Stack stack = StartStack(data, /*with_server=*/true);
  Stack twin_stack = StartStack(data, /*with_server=*/false);
  TwinContext twin;
  twin.twin = &twin_stack;
  auto conns = MakeConnections(args);
  for (auto& c : conns) Connect(stack, c.get());
  RunPhase(conns, Mode::kWarmup, 0, &twin);

  const CacheCounts before = Snapshot(stack);
  const size_t window_ops =
      WindowOps(args.workload, args.seconds * kTracedShare);
  RunPhase(conns, Mode::kTraced, window_ops, &twin);
  const CacheCounts after = Snapshot(stack);
  const Totals traced = Tally(conns);
  std::vector<size_t> traced_reads;
  for (auto& c : conns) traced_reads.push_back(c->reads.size());
  RunPhase(conns, Mode::kTimed, window_ops, nullptr);
  std::vector<uint64_t> untraced_read_ns;
  for (size_t i = 0; i < conns.size(); ++i) {
    for (size_t j = traced_reads[i]; j < conns[i]->reads.size(); ++j) {
      untraced_read_ns.push_back(conns[i]->reads[j].latency_ns);
    }
  }
  const Totals all = Tally(conns);
  std::unordered_map<std::string, uint64_t> expected;
  const Verdict verdict = Verify(data, &stack, conns, &expected);

  // Sums over the traced ops.
  double reads = 0, writes = 0;
  double wire = 0, submit = 0, queue = 0, serve = 0, translate = 0,
         fingerprint = 0, rewrite = 0, schema = 0, exec = 0, ddl = 0;
  double match_attempts = 0, applications = 0, quick_rejects = 0,
         nf_hits = 0, rows_scanned = 0, rows_out = 0, qual_evals = 0,
         vec_fallbacks = 0, value_copies = 0, fix_tuples = 0;
  for (const auto& c : conns) {
    for (const OpTrace& t : c->traces) {
      if (t.write) {
        ++writes;
        ddl += static_cast<double>(t.ddl_ns);
        continue;
      }
      ++reads;
      wire += static_cast<double>(t.wire_ns);
      submit += static_cast<double>(t.submit_ns);
      queue += static_cast<double>(t.queue_ns);
      serve += static_cast<double>(t.serve_ns);
      translate += static_cast<double>(t.translate_ns);
      fingerprint += static_cast<double>(t.fingerprint_ns);
      rewrite += static_cast<double>(t.rewrite_ns);
      schema += static_cast<double>(t.schema_ns);
      exec += static_cast<double>(t.exec_ns);
      match_attempts += static_cast<double>(t.rewrite.match_attempts);
      applications += static_cast<double>(t.rewrite.applications);
      quick_rejects += static_cast<double>(t.rewrite.quick_rejects);
      nf_hits += static_cast<double>(t.rewrite.normal_form_hits);
      rows_scanned += static_cast<double>(t.exec.rows_scanned);
      rows_out += static_cast<double>(t.exec.rows_output);
      qual_evals += static_cast<double>(t.exec.qual_evaluations);
      vec_fallbacks += static_cast<double>(t.exec.vec_fallbacks);
      value_copies += static_cast<double>(t.exec.value_copies);
      fix_tuples += static_cast<double>(t.exec.fix_tuples);
    }
  }
  if (reads == 0) Die("traced window completed no reads");
  const double ops = reads + writes;
  auto us_per_read = [&](double ns) { return ns / reads / 1e3; };
  const double wire_us = us_per_read(wire);
  const double net_us = us_per_read(wire - submit);
  const double queue_us = us_per_read(queue);
  const double phases = translate + rewrite + schema + exec;
  const double front_us = us_per_read(serve - phases);
  const double translate_us = us_per_read(translate);
  const double rewrite_us = us_per_read(rewrite);
  const double schema_us = us_per_read(schema);
  const double exec_us = us_per_read(exec);
  const double parts =
      net_us + queue_us + front_us + translate_us + rewrite_us + schema_us +
      exec_us;
  const double unattributed_us = wire_us - parts;

  const double lookups_l0 =
      static_cast<double>(after.l0.hits + after.l0.misses - before.l0.hits -
                          before.l0.misses);
  const double lookups_plan =
      static_cast<double>(after.plan.hits + after.plan.misses -
                          before.plan.hits - before.plan.misses);
  const double evictions = static_cast<double>(
      after.plan.evictions - before.plan.evictions + after.l0.evictions -
      before.l0.evictions);
  const double net_bytes = static_cast<double>(
      after.net.bytes_read + after.net.bytes_written - before.net.bytes_read -
      before.net.bytes_written);
  const uint64_t n_reads = static_cast<uint64_t>(reads);
  const uint64_t n_ops = static_cast<uint64_t>(ops);

  std::vector<Metric> metrics = {
      {"net.wire_us", net_us, "us", n_reads},
      {"net.bytes_per_op", net_bytes / ops, "bytes", n_ops},
      {"srv.queue_us", queue_us, "us", n_reads},
      {"srv.front_us", front_us, "us", n_reads},
      {"srv.fingerprint_us", us_per_read(fingerprint), "us", n_reads},
      {"srv.l0_hit_ratio",
       Ratio(static_cast<double>(after.l0.hits - before.l0.hits), lookups_l0),
       "ratio", static_cast<uint64_t>(lookups_l0)},
      {"srv.tmpl_hit_ratio",
       Ratio(static_cast<double>(after.plan.hits - before.plan.hits),
             lookups_plan),
       "ratio", static_cast<uint64_t>(lookups_plan)},
      {"srv.ddl_apply_us", writes > 0 ? ddl / writes / 1e3 : 0.0, "us",
       static_cast<uint64_t>(writes)},
      {"srv.cache_evictions_per_op", evictions / ops, "count", n_ops},
      {"esql.translate_us", translate_us, "us", n_reads},
      {"rewrite.us", rewrite_us, "us", n_reads},
      {"rewrite.match_attempts_per_op", match_attempts / reads, "count",
       n_reads},
      {"rewrite.applications_per_op", applications / reads, "count", n_reads},
      {"rewrite.fire_ratio", Ratio(applications, match_attempts), "ratio",
       static_cast<uint64_t>(match_attempts)},
      {"rewrite.quick_reject_ratio", Ratio(quick_rejects, match_attempts),
       "ratio", static_cast<uint64_t>(match_attempts)},
      {"rewrite.normal_form_hits_per_op", nf_hits / reads, "count", n_reads},
      {"lera.schema_us", schema_us, "us", n_reads},
      {"exec.us", exec_us, "us", n_reads},
      {"exec.rows_scanned_per_row_out", Ratio(rows_scanned, rows_out),
       "ratio", static_cast<uint64_t>(rows_out)},
      {"exec.qual_evals_per_op", qual_evals / reads, "count", n_reads},
      {"exec.vec_fallbacks_per_op", vec_fallbacks / reads, "count", n_reads},
      {"exec.value_copies_per_op", value_copies / reads, "count", n_reads},
      {"exec.fix_tuples_per_op", fix_tuples / reads, "count", n_reads},
      {"term.interner_entries",
       static_cast<double>(eds::term::Interner::Global().GetStats().entries),
       "count", 1},
      {"unattributed_us", unattributed_us, "us", n_reads},
      {"trace.overhead_us",
       (Percentile(traced.read_ns, 0.5) - Percentile(untraced_read_ns, 0.5)) /
           1e3,
       "us", untraced_read_ns.size()},
  };

  std::printf("per-layer (traced window %.3f s; means per read over %llu "
              "reads, %llu writes):\n",
              traced.window_s, static_cast<unsigned long long>(n_reads),
              static_cast<unsigned long long>(writes));
  for (const Metric& m : metrics) PrintMetric(m);
  PrintCounts(before, after);
  std::printf("  counts: rewrite_applications=%.0f rows_scanned=%.0f "
              "rows_out=%.0f\n",
              applications, rows_scanned, rows_out);

  // Decomposition: the parts plus unattributed_us add up to the client-
  // timed wire latency; no part may be negative and unattributed_us may
  // not exceed the stated tolerance, or the parts do not describe it.
  const double tol = std::max(kTolFloorUs, kTolShare * wire_us);
  bool checks_ok = true;
  std::printf("decomposition: wire %.2f us = net %.2f + queue %.2f + front "
              "%.2f + translate %.2f + rewrite %.2f + schema %.2f + exec "
              "%.2f + unattributed %.2f (tolerance %.2f us)\n",
              wire_us, net_us, queue_us, front_us, translate_us, rewrite_us,
              schema_us, exec_us, unattributed_us, tol);
  const double sum = parts + unattributed_us;
  if (std::abs(sum - wire_us) > 1e-6 * wire_us ||
      std::abs(unattributed_us) > tol ||
      std::min({net_us, queue_us, front_us}) < -tol) {
    std::printf("  FAIL: the parts do not add up to the wire latency\n");
    checks_ok = false;
  } else {
    std::printf("  ok\n");
  }

  // Workload isolation: each workload must load its intended layer most.
  const double front_end = net_us + queue_us + front_us;
  struct Layer {
    const char* name;
    double us;
  };
  const Layer layers[] = {{"net+srv front", front_end},
                          {"esql", translate_us},
                          {"rewrite", rewrite_us},
                          {"lera", schema_us},
                          {"exec", exec_us}};
  const char* intended = args.workload == Workload::kDashboardLive
                             ? "net+srv front"
                         : args.workload == Workload::kAdhocCold ? "rewrite"
                                                                 : "exec";
  const Layer* top = &layers[0];
  for (const Layer& l : layers) {
    if (l.us > top->us) top = &l;
  }
  std::printf("isolation: dominant layer %s (%.2f us of %.2f), intended %s\n",
              top->name, top->us, wire_us, intended);
  if (std::string(top->name) != intended) {
    std::printf("  FAIL: workload no longer isolates its layer\n");
    checks_ok = false;
  }
  if (args.workload == Workload::kAdhocCold) {
    const double miss_share =
        Ratio(static_cast<double>(traced.reads_missing_both),
              static_cast<double>(traced.read_ns.size()));
    std::printf("isolation: %.4f of reads missed both cache tiers "
                "(required >= %.2f)\n",
                miss_share, kAdhocMinMissShare);
    if (miss_share < kAdhocMinMissShare) {
      std::printf("  FAIL: adhoc_cold is hitting the caches\n");
      checks_ok = false;
    }
  }

  if (!args.trace_out.empty()) WriteSpans(args.trace_out, conns);
  Disconnect(conns);
  StopStack(&stack);
  StopStack(&twin_stack);
  return Finish(verdict, all.attempted, all.failed, metrics, checks_ok);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  perfbench::PrintHeader(args);
  return args.trace ? perfbench::RunTraced(args)
                    : perfbench::RunUntraced(args);
}
