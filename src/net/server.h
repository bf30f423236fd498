#ifndef SETM_NET_SERVER_H_
#define SETM_NET_SERVER_H_

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/result.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/types.h"
#include "exec/job.h"
#include "net/event_loop.h"
#include "net/listener.h"
#include "relational/database.h"

namespace setm {
class WorkerPool;
}

namespace setm::net {

/// Knobs of the resident mining server. Admission control is the theme:
/// every limit here turns "overload" into a protocol error or a closed
/// connection instead of unbounded memory or a wedged loop.
struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; MiningServer::port() reports it
  int backlog = 64;

  // -- admission control ----------------------------------------------------
  /// Connections beyond this are answered "ERR ResourceExhausted" + close.
  size_t max_connections = 64;
  /// Request lines longer than this are rejected (the line is discarded,
  /// the connection survives).
  size_t max_line_bytes = 8192;
  /// Outgoing backlog cap per connection; exceeded = close (the client is
  /// requesting payloads and not reading them).
  size_t max_write_buffer_bytes = 8u << 20;
  /// Per-APPEND batch row cap.
  size_t max_append_rows = 1u << 20;
  /// Close connections with no traffic and no running job after this long.
  /// 0 disables.
  uint64_t idle_timeout_ms = 300000;
  /// Cancel jobs (through the observer seam) running longer than this.
  /// 0 disables.
  uint64_t request_timeout_ms = 0;
  /// Per-connection in-flight job limit is fixed at 1: a second MINE /
  /// APPEND / RULES / EXPLAIN while one runs is rejected with ERR (PING,
  /// STATS and QUIT are always served from the loop).

  // -- execution ------------------------------------------------------------
  /// Workers executing mining jobs. This pool is distinct from the
  /// database's worker pool (which parallel miners use for partitions), so
  /// a job can fan out without deadlocking its own slot.
  size_t job_threads = 4;
  /// THREADS default for MINE requests that do not specify one.
  size_t default_mine_threads = 1;
  /// ItemsetStore prefix backing the shared result cache ("" disables it).
  std::string store_prefix = "fi";
  /// Staleness budget handed to the planner (see PlannerOptions).
  double full_remine_fraction = 0.25;

  // -- observability / lifecycle -------------------------------------------
  /// Render every finished request's TraceSpan tree to stderr.
  bool trace = false;
  /// Polled every loop tick: when it becomes non-zero the server starts a
  /// graceful shutdown (signal handlers set it and Wakeup() the loop).
  const volatile std::sig_atomic_t* shutdown_flag = nullptr;
  /// How long a graceful shutdown waits for in-flight jobs to notice their
  /// cancellation before Run() returns anyway.
  uint64_t shutdown_grace_ms = 5000;

  /// Test seams. `on_iteration` runs on the job thread once per mining /
  /// rule-generation iteration, before the cancellation check — tests park
  /// a job here to make busy-rejection and disconnect-cancellation
  /// deterministic.
  struct TestHooks {
    std::function<void(const IterationStats&)> on_iteration;
  };
  TestHooks hooks;
};

/// Monotonic counters for tests and the daemon's exit report; the same
/// series are exported process-wide as `setm_srv_*` metrics.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t requests = 0;
  uint64_t disconnects = 0;
  uint64_t cancelled_jobs = 0;
  uint64_t rejected_connections = 0;
  uint64_t rejected_busy = 0;
  uint64_t parse_errors = 0;
  uint64_t oversized_lines = 0;
  uint64_t request_timeouts = 0;
  uint64_t idle_closes = 0;
};

/// The resident mining daemon's engine: one event loop serving the line
/// protocol (net/protocol.h) over a non-blocking listener, dispatching
/// MINE / APPEND / RULES / EXPLAIN — and LCOUNT / MERGE, the shard half of
/// the distributed two-phase count — onto a WorkerPool as cancellable jobs,
/// and answering PING / STATS / QUIT inline. One instance serves one open Database; the database stays open
/// (buffer pool warm, stored runs fresh) across every client.
///
/// Threading: the loop thread owns all sessions and the listener; jobs run
/// on the job pool with the database serialized under an internal mutex
/// (intra-job parallelism comes from threaded SETM mines under the shard
/// coordinator); completions return to the loop through a CompletionPipe.
/// A client disconnect, request timeout or shutdown cancels its job
/// cooperatively — the per-job observer vetoes the next iteration, which is
/// the same "stops within one iteration" contract the CLI's Ctrl-C uses.
class MiningServer {
 public:
  static Result<std::unique_ptr<MiningServer>> Create(Database* db,
                                                      ServerOptions options);
  ~MiningServer();

  MiningServer(const MiningServer&) = delete;
  MiningServer& operator=(const MiningServer&) = delete;

  /// The port actually bound (resolves port 0).
  uint16_t port() const;

  /// Serves until a shutdown is requested (RequestShutdown, the options'
  /// shutdown_flag, or Stop). The calling thread becomes the loop thread.
  Status Run();

  /// Starts Run() on an internal thread (tests; the daemon calls Run).
  Status Start();
  /// Requests shutdown and joins the Start() thread; returns Run's Status.
  Status Stop();

  /// Thread-safe graceful-shutdown request: stop accepting, cancel
  /// in-flight jobs, flush what can be flushed, return from Run().
  void RequestShutdown();

  ServerStats Stats() const;

 private:
  struct Session;
  struct Job;

  MiningServer(Database* db, ServerOptions options);

  void AcceptPending();
  void OnSessionEvent(uint64_t session_id, uint32_t events);
  void ProcessLines(uint64_t session_id);
  void HandleCommand(Session* session, const std::string& line);
  void HandleAppendData(Session* session, const std::string& line);
  void HandleMergeData(Session* session, const std::string& line);
  void DispatchJob(Session* session, std::shared_ptr<Job> job);
  void RunJobBody(const std::shared_ptr<Job>& job);  // job-pool thread
  Status ExecuteMineJob(Job* job);                   // under db_mutex_
  Status ExecuteExplainJob(Job* job);                // under db_mutex_
  Status ExecuteLcountJob(Job* job);                 // under db_mutex_
  Status ExecuteMergeJob(Job* job);                  // under db_mutex_
  Status ExecuteRulesJob(Job* job);
  void DrainCompletions();
  void FinishJob(uint64_t job_id);
  void Send(Session* session, const std::string& framed);
  void FlushSession(Session* session);
  void CloseSession(uint64_t session_id, const char* reason);
  void Tick();
  void BeginShutdown();

  Database* db_;
  ServerOptions options_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<CompletionPipe> completions_;
  uint16_t bound_port_ = 0;  ///< cached: listener_ dies at shutdown

  uint64_t next_session_id_ = 1;
  uint64_t next_job_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::unordered_map<uint64_t, std::shared_ptr<Job>> jobs_;

  /// Serializes job access to the database (catalog DDL from store
  /// write-backs, batch appends and scratch relations are not concurrency-
  /// safe); held only on job-pool threads, never on the loop thread.
  std::mutex db_mutex_;

  std::atomic<bool> shutdown_requested_{false};
  bool shutting_down_ = false;  ///< loop-thread state
  bool stop_loop_ = false;
  WallTimer shutdown_timer_;

  struct AtomicStats {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_active{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> disconnects{0};
    std::atomic<uint64_t> cancelled_jobs{0};
    std::atomic<uint64_t> rejected_connections{0};
    std::atomic<uint64_t> rejected_busy{0};
    std::atomic<uint64_t> parse_errors{0};
    std::atomic<uint64_t> oversized_lines{0};
    std::atomic<uint64_t> request_timeouts{0};
    std::atomic<uint64_t> idle_closes{0};
  };
  AtomicStats stats_;

  std::thread run_thread_;  ///< Start()/Stop() only
  Status run_status_;
  std::mutex run_status_mutex_;

  /// Declared last: destroyed first, so the destructor joins every
  /// in-flight job before sessions, pipes or the loop go away.
  std::unique_ptr<WorkerPool> job_pool_;
};

}  // namespace setm::net

#endif  // SETM_NET_SERVER_H_
