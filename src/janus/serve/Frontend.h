//===----------------------------------------------------------------------===//
///
/// \file
/// Line-oriented local-socket frontend for janus::serve.
///
/// A thin transport over Service: one AF_UNIX stream socket, one accept
/// thread, one reader thread per connection. The protocol is plain
/// text, one request or reply per line, so a shell can drive it:
///
///     $ printf 'submit 1 0 50\nmetrics\n' | nc -U /tmp/janus.sock
///
/// Requests (client → service):
///     submit <subid> <taskindex> [deadline_ms]   queue one task
///     metrics                                    one-line metrics JSON
///     ping                                       liveness probe
///     quit                                       close the connection
///
/// Replies (service → client):
///     hello <clientid>                           greeting on connect
///     reply <subid> <status> [detail]            terminal, exactly one
///                                                per submit
///     metrics <json> | pong | err <reason>
///
/// Each connection is its own Service client id (assigned at accept),
/// so per-client admission caps and DRR fairness apply per connection.
/// A connection is finished once its reader has ended and its last
/// reply has been routed; the accept thread (or stop()) then joins the
/// reader, closes the socket and retires the client from the Service,
/// so a long-running service holds only the connections still open.
/// Terminal replies arrive asynchronously from the scheduler thread and
/// may interleave with command responses; a per-connection write mutex
/// keeps lines whole.
///
/// The frontend does not own the Service's reply sink: the owner keeps
/// whatever sink it has and calls route() from it — replies for socket
/// clients are written to their connection, everything else falls
/// through (return false) for the owner to handle.
///
//===----------------------------------------------------------------------===//

#ifndef JANUS_SERVE_FRONTEND_H
#define JANUS_SERVE_FRONTEND_H

#include "janus/serve/Serve.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace janus {
namespace serve {

class SocketFrontend {
public:
  /// Socket-client ids start here, leaving the low range for in-process
  /// submitters (the CLI's load-generator threads).
  static constexpr uint64_t ClientIdBase = 1u << 20;

  /// \param MetricsFn produces the one-line JSON for the `metrics`
  ///        request (empty function: `err metrics-disabled`).
  SocketFrontend(Service &S, std::string SocketPath,
                 std::function<std::string()> MetricsFn = {});
  ~SocketFrontend();

  SocketFrontend(const SocketFrontend &) = delete;
  SocketFrontend &operator=(const SocketFrontend &) = delete;

  /// Binds, listens and starts the accept thread. \returns false (with
  /// the reason in \p Err) when the socket cannot be set up.
  bool start(std::string *Err = nullptr);

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// Routes \p R to its socket client. \returns false when R.Client is
  /// not a socket client (the caller's sink handles it).
  bool route(const Reply &R);

  uint64_t connectionsAccepted() const { return Accepted; }

  /// Connections not yet reaped: the open ones plus the finished ones
  /// the next accept (or stop()) reaps.
  size_t connectionsHeld() const;

private:
  struct Conn {
    int Fd = -1;
    uint64_t ClientId = 0;
    std::mutex WriteMutex;
    std::thread Reader;
    // Guarded by ConnMutex.
    bool ReaderDone = false;
    uint64_t Outstanding = 0; ///< Submissions whose reply is not routed.
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Conn> C);
  void handleLine(Conn &C, const std::string &Line);
  static void writeLine(Conn &C, const std::string &Line);
  /// Moves \p C from Conns to Finished once its reader has ended and
  /// nothing is outstanding. Caller holds ConnMutex.
  void finishIfDone(const std::shared_ptr<Conn> &C);
  /// Joins, closes and retires every finished connection.
  void reapFinished();

  Service &S;
  std::string SocketPath;
  std::function<std::string()> MetricsFn;

  int ListenFd = -1;
  std::atomic<bool> Running{false};
  std::thread Acceptor;

  mutable std::mutex ConnMutex; ///< Guards Conns, Finished, Conn fields.
  std::map<uint64_t, std::shared_ptr<Conn>> Conns;
  std::vector<std::shared_ptr<Conn>> Finished;
  uint64_t NextClientId = ClientIdBase;
  uint64_t Accepted = 0;
};

} // namespace serve
} // namespace janus

#endif // JANUS_SERVE_FRONTEND_H
