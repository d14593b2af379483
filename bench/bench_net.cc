// The wire front end: connection setup cost (TCP + HELLO handshake),
// query round-trip latency over loopback TCP vs the in-process Submit
// path (the framing + syscall + render tax the protocol adds), and
// N-client throughput against one server. All runs are loopback on one
// host, so the numbers measure the protocol stack, not a network; the
// cpus counter records what the machine offered so BENCH trajectories
// stay comparable across hosts.
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchutil.h"
#include "net/client.h"
#include "net/server.h"
#include "srv/service.h"

namespace {

using eds::benchutil::Check;
using eds::benchutil::CheckResult;
using eds::benchutil::MakeFilmDb;
using eds::net::Client;
using eds::net::ResultMsg;
using eds::net::Server;
using eds::net::ServerOptions;
using eds::srv::QueryService;
using eds::srv::ServedQuery;
using eds::srv::ServiceOptions;

// Same literal-variant workload shape as bench_serve: a handful of
// templates so the plan cache warms after the first few serves and the
// steady state measures the serving/protocol path, not the rewriter.
std::string WorkloadQuery(size_t i) {
  switch (i % 3) {
    case 0:
      return "SELECT Title FROM FILM WHERE Numf > " +
             std::to_string(i % 40) + " AND Numf < " +
             std::to_string(60 + (i % 40));
    case 1:
      return "SELECT Numf FROM FILM WHERE MEMBER('Adventure', Categories) "
             "AND Numf < " +
             std::to_string(20 + (i % 30));
    default:
      return "SELECT F.Title FROM FILM F, APPEARS_IN A WHERE "
             "F.Numf = A.Numf AND F.Numf = " +
             std::to_string(1 + (i % 50));
  }
}

// A started service + server on an ephemeral loopback port, torn down in
// reverse order.
struct Stack {
  std::unique_ptr<eds::exec::Session> session;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  explicit Stack(size_t workers, int films = 100) {
    session = MakeFilmDb(films);
    ServiceOptions options;
    options.workers = workers;
    options.queue_capacity = 256;
    service = std::make_unique<QueryService>(session.get(), options);
    Check(service->Start(), "service start");
    ServerOptions sopts;
    sopts.max_connections = 64;
    server = std::make_unique<Server>(service.get(), sopts);
    Check(server->Start(), "server start");
  }
  ~Stack() {
    server->Shutdown(/*drain=*/true);
    service->Stop();
  }

  std::unique_ptr<Client> Dial() {
    Client::Options copts;
    copts.port = server->port();
    copts.client_name = "bench";
    return CheckResult(Client::Connect(copts), "connect");
  }
};

// TCP connect + HELLO/HELLO_OK + GOODBYE per iteration: what a
// non-pooling client pays before its first query.
void BM_NetConnectionSetup(benchmark::State& state) {
  Stack stack(/*workers=*/1);
  for (auto _ : state) {
    auto client = stack.Dial();
    Check(client->Goodbye(), "goodbye");
  }
  state.counters["accepted"] =
      static_cast<double>(stack.server->GetStats().accepted);
}
BENCHMARK(BM_NetConnectionSetup);

// One warm query per iteration through the full protocol stack: encode,
// send, serve, render rows to strings, frame the RESULT, read it back.
// Compare against BM_NetInProcessSubmit below for the protocol tax.
void BM_NetRoundTrip(benchmark::State& state) {
  Stack stack(/*workers=*/1);
  auto client = stack.Dial();
  size_t i = 0;
  size_t rows = 0;
  for (auto _ : state) {
    ResultMsg r = CheckResult(client->Query(WorkloadQuery(i++)), "query");
    if (!r.ok) throw std::runtime_error("query failed: " + r.error);
    rows += r.rows.size();
    benchmark::DoNotOptimize(r.rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
  state.counters["rows"] = static_cast<double>(rows);
  Check(client->Goodbye(), "goodbye");
}
BENCHMARK(BM_NetRoundTrip);

// RESULT body encoding alone, no sockets. range(0) picks the result shape:
// 0 = 400 rows x (string, int), 1 = 2000 rows x (string, set of 3).
// range(1) picks the path: 0 = RenderServed + EncodeResult (a string per
// cell, then a copy into the body), 1 = AppendServedResult (cells rendered
// straight into the body). Both produce the same bytes.
void BM_Net_EncodeResult(benchmark::State& state) {
  using eds::value::Value;
  const bool sets = state.range(0) == 1;
  const size_t nrows = sets ? 2000 : 400;
  ServedQuery served;
  served.result.columns = {"Title", sets ? "Categories" : "Numf"};
  for (size_t r = 0; r < nrows; ++r) {
    const int64_t n = static_cast<int64_t>(r);
    Value second =
        sets ? Value::Set({Value::String("Comedy"), Value::String("Drama"),
                           Value::String("Genre " + std::to_string(r % 7))})
             : Value::Int(n * 7919);
    served.result.rows.push_back(
        {Value::String("Film " + std::to_string(r)), std::move(second)});
  }
  const bool direct = state.range(1) == 1;
  size_t bytes = 0;
  for (auto _ : state) {
    std::string body;
    if (direct) {
      eds::net::AppendServedResult(served, &body);
    } else {
      body = eds::net::EncodeResult(eds::net::RenderServed(served));
    }
    bytes += body.size();
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * nrows));
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Net_EncodeResult)->ArgsProduct({{0, 1}, {0, 1}});

// The same workload through Submit() directly — no sockets, no string
// rendering of rows. The delta against BM_NetRoundTrip is the wire tax.
void BM_NetInProcessSubmit(benchmark::State& state) {
  Stack stack(/*workers=*/1);
  size_t i = 0;
  for (auto _ : state) {
    auto served = stack.service->Submit(WorkloadQuery(i++)).get();
    Check(served.status(), "serve");
    benchmark::DoNotOptimize(served->result.rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_NetInProcessSubmit);

// N concurrent clients, each its own connection and thread, all hammering
// one server: aggregate queries/sec. On a single-core box this measures
// the poller + worker handoff under contention, not parallel speedup.
void BM_NetThroughput(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t kPerClient = 32;
  Stack stack(/*workers=*/4);
  size_t served_total = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&stack, c] {
        auto client = stack.Dial();
        for (size_t i = 0; i < kPerClient; ++i) {
          ResultMsg r = CheckResult(
              client->Query(WorkloadQuery(c * kPerClient + i)), "query");
          if (!r.ok) throw std::runtime_error("query failed: " + r.error);
          benchmark::DoNotOptimize(r.rows);
        }
        Check(client->Goodbye(), "goodbye");
      });
    }
    for (auto& t : threads) t.join();
    served_total += clients * kPerClient;
  }
  state.SetItemsProcessed(static_cast<int64_t>(served_total));
  state.counters["cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["net_queries"] =
      static_cast<double>(stack.server->GetStats().queries);
}
BENCHMARK(BM_NetThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"clients"})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
