#ifndef EDS_NET_SERVER_H_
#define EDS_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "gov/governor.h"
#include "net/protocol.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "srv/service.h"

namespace eds::net {

// The wire front end: a TCP server speaking the framed protocol of
// net/protocol.h over a snapshot-isolated QueryService.
//
// Threading model — one poller, worker handoff:
//   * A single poller thread owns every socket: it accepts, reads, parses
//     frames, and handles the cheap messages (HELLO, CANCEL, STATS,
//     GOODBYE) inline. EXEC (DDL) also runs on the poller — by design it
//     only stalls *new* messages, never in-flight queries, because
//     QueryService::ApplyDdl publishes a new serving snapshot while old
//     queries drain on theirs.
//   * QUERY is handed to QueryService::SubmitWithCallback; the service's
//     worker pool serves it and the completion callback writes the RESULT
//     frame back from the worker thread (per-connection write mutex, so
//     concurrent results interleave at frame granularity, never byte
//     granularity). Sends carry a write deadline
//     (ServerOptions::write_timeout_ms): a slow or non-reading client
//     fails its send and loses the connection instead of pinning a worker
//     — or the poller, for the inline replies — indefinitely.
//   * CANCEL fires the gov::CancelToken of the named in-flight request;
//     closing a connection cancels everything still pending on it, so a
//     dead client stops consuming budget at the next governor chokepoint.
//
// Fail-point sites net.accept / net.read / net.write let the chaos suite
// kill connections mid-message; the contract under injection is: the
// affected connection closes, every pending query's token fires, no
// session state leaks (active_connections()/pending_queries() drain to 0),
// and the server keeps accepting.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  int backlog = 64;
  // Connections beyond this are accepted, told ERROR, and closed — the
  // wire analog of admission load-shedding.
  size_t max_connections = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // A send that makes no progress (EAGAIN) for this long fails and closes
  // the connection: a slow or non-reading client can stall one connection
  // for at most this window, never the poller or Shutdown(). 0 = no limit.
  uint64_t write_timeout_ms = 5000;
  // Shutdown(drain=true) waits at most this long for in-flight queries;
  // whatever is still pending afterwards is cancelled. 0 = wait forever
  // (drain is still guaranteed to make progress — new QUERYs are rejected
  // while draining — but individual queries may run long).
  uint64_t drain_timeout_ms = 30'000;
  std::string server_info = "eds";
  // When true the server records per-connection spans (net.connection) and
  // per-message spans into its own TraceSink (trace_sink()).
  bool collect_traces = false;
};

// Cumulative tallies, exported as net.* metrics.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t rejected = 0;  // over max_connections
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t queries = 0;
  uint64_t execs = 0;
  uint64_t cancels = 0;        // CANCELs that found their target in flight
  uint64_t cancel_misses = 0;  // CANCELs whose target was already done
  uint64_t stats_requests = 0;
  uint64_t protocol_errors = 0;  // malformed frames / bad handshakes
  uint64_t read_errors = 0;      // peer resets + injected net.read failures
  uint64_t write_errors = 0;     // send failures + injected net.write
  uint64_t accept_errors = 0;    // accept failures + injected net.accept
  uint64_t poll_errors = 0;      // poll() failures (backed off, not fatal)
  uint64_t drain_rejected = 0;   // QUERYs refused while draining for stop
};

class Server {
 public:
  // `service` must be Start()ed and must outlive the server.
  Server(srv::QueryService* service, const ServerOptions& options);
  ~Server();  // Shutdown(true) if still running; waits for callbacks

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the poller. Fails on bind/listen errors
  // (port in use, bad host).
  Status Start();

  // Graceful stop: stop accepting, optionally wait for in-flight queries
  // to drain (their RESULT frames are still written), then close every
  // connection and join the poller. While draining, new QUERY frames are
  // refused with a failed RESULT ("server draining") so the pending count
  // is monotonically decreasing — a client that keeps pipelining cannot
  // hold the drain open — and the wait is bounded by
  // ServerOptions::drain_timeout_ms (whatever remains is cancelled). With
  // drain=false pending queries are cancelled instead of awaited.
  // Idempotent. Either way, returns only once no completion callback can
  // still be in flight.
  void Shutdown(bool drain = true);

  // The bound port (resolves option port 0 to the kernel's choice).
  uint16_t port() const { return port_; }
  bool running() const;

  size_t active_connections() const;
  size_t pending_queries() const;  // submitted, RESULT not yet written
  ServerStats GetStats() const;

  // net.* metrics (connections gauge + the ServerStats counters).
  void ExportMetrics(obs::MetricsRegistry* registry) const;

  // Non-null only with options.collect_traces.
  const obs::TraceSink* trace_sink() const { return sink_.get(); }

 private:
  // One in-flight QUERY: the cancel token must outlive the service
  // callback, so it rides a shared_ptr captured by the callback itself.
  struct PendingQuery {
    gov::CancelToken token;
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;  // session id, assigned at accept
    std::string peer;
    std::string inbuf;
    bool hello_done = false;
    std::string tenant;
    // Guards fd writes and the closed flag: a worker writing a RESULT and
    // the poller closing the socket never interleave.
    std::mutex write_mu;
    bool closed = false;
    // Poller sets true (e.g. after GOODBYE_OK or a write error) to have
    // the connection torn down on the next loop pass.
    std::atomic<bool> wants_close{false};
    // In-flight QUERYs by request id. Guarded by pending_mu (poller
    // inserts/cancels, worker callbacks erase).
    std::mutex pending_mu;
    std::map<uint64_t, std::shared_ptr<PendingQuery>> pending;
    uint64_t open_ns = 0;  // NowNs at accept (connection-lifetime span)
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void PollLoop();
  void AcceptReady();
  Status AcceptOne();  // EDS_FAIL_POINT("net.accept") lives here
  // Drains readable bytes into conn->inbuf; an error return means the
  // connection must close. EDS_FAIL_POINT("net.read") lives here.
  Status ReadAvailable(const ConnPtr& conn);
  // Parses + dispatches every complete frame in conn->inbuf. False: close.
  bool DrainFrames(const ConnPtr& conn);
  bool Dispatch(const ConnPtr& conn, const Frame& frame);  // false: close
  void HandleQuery(const ConnPtr& conn, const Frame& frame);
  // Frames `body` and writes it (SendEncoded).
  Status SendFrame(const ConnPtr& conn, MsgType type, uint64_t request_id,
                   std::string_view body);
  // Writes one complete frame; thread-safe vs. Close. A failure counts a
  // write error and schedules the connection for teardown.
  Status SendEncoded(const ConnPtr& conn, std::string_view frame);
  // The raw write path. EDS_FAIL_POINT("net.write") lives here.
  Status SendFrameImpl(const ConnPtr& conn, std::string_view frame);
  // Convenience: ERROR frame + schedule close (protocol_errors tally).
  void ProtocolError(const ConnPtr& conn, uint64_t request_id,
                     const std::string& message);
  void CloseConnection(const ConnPtr& conn);  // poller thread only
  void FinishPending(const ConnPtr& conn, uint64_t request_id);
  void WakePoller();
  std::string BuildStatsText() const;

  srv::QueryService* service_;
  ServerOptions options_;
  std::unique_ptr<obs::TraceSink> sink_;  // null unless collect_traces

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  uint16_t port_ = 0;
  std::thread poller_;

  mutable std::mutex mu_;  // state flags + conns_ + stats_
  bool running_ = false;
  bool accepting_ = false;
  bool stop_ = false;
  // Lock-free mirrors of the shutdown phases, readable from worker-thread
  // send paths and Dispatch without taking mu_: draining_ rejects new
  // QUERYs once Shutdown begins; stopping_ aborts any send still waiting
  // on a slow reader so the poller join can never wait behind one.
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::map<int, ConnPtr> conns_;  // by fd
  ServerStats stats_;
  uint64_t next_session_id_ = 1;
  // Worker-side render + encode of each QUERY's RESULT frame, ns
  // (net.latency.encode).
  obs::Histogram encode_latency_;

  // Drain accounting: callbacks outstanding across all connections.
  std::atomic<uint64_t> pending_total_{0};
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace eds::net

#endif  // EDS_NET_SERVER_H_
