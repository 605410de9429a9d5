#include "janus/serve/Frontend.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace janus;
using namespace janus::serve;

SocketFrontend::SocketFrontend(Service &S, std::string SocketPath,
                               std::function<std::string()> MetricsFn)
    : S(S), SocketPath(std::move(SocketPath)),
      MetricsFn(std::move(MetricsFn)) {}

SocketFrontend::~SocketFrontend() { stop(); }

bool SocketFrontend::start(std::string *Err) {
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + SocketPath;
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  ::unlink(SocketPath.c_str()); // Stale socket from a previous run.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind");
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen");

  Running.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void SocketFrontend::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel)) {
    if (Acceptor.joinable())
      Acceptor.join();
    return;
  }
  // Unblock accept(); the loop sees Running==false and exits.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(SocketPath.c_str());
  }
  // Close every connection; readers see EOF and exit.
  std::vector<std::shared_ptr<Conn>> ToJoin;
  {
    std::lock_guard<std::mutex> G(ConnMutex);
    for (auto &KV : Conns) {
      ::shutdown(KV.second->Fd, SHUT_RDWR);
      ToJoin.push_back(KV.second);
    }
  }
  for (auto &C : ToJoin)
    if (C->Reader.joinable())
      C->Reader.join();
  reapFinished();
  std::lock_guard<std::mutex> G(ConnMutex);
  for (auto &KV : Conns)
    ::close(KV.second->Fd);
  Conns.clear();
}

void SocketFrontend::acceptLoop() {
  while (Running.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (!Running.load(std::memory_order_acquire))
        break;
      if (errno == EINTR)
        continue;
      break;
    }
    reapFinished();
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> G(ConnMutex);
      C->ClientId = NextClientId++;
      Conns[C->ClientId] = C;
      ++Accepted;
    }
    writeLine(*C, "hello " + std::to_string(C->ClientId));
    C->Reader = std::thread([this, C] { readerLoop(C); });
  }
}

void SocketFrontend::readerLoop(std::shared_ptr<Conn> C) {
  std::string Buffer;
  char Chunk[4096];
  bool Open = true;
  while (Open) {
    ssize_t N = ::read(C->Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      break;
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t Pos;
    while (Open && (Pos = Buffer.find('\n')) != std::string::npos) {
      std::string Line = Buffer.substr(0, Pos);
      Buffer.erase(0, Pos + 1);
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line == "quit") {
        ::shutdown(C->Fd, SHUT_RDWR);
        Open = false;
      } else {
        handleLine(*C, Line);
      }
    }
  }
  // In-flight submissions from this connection still need their
  // terminal replies routed (the writes fail harmlessly once the peer
  // has gone); the last of them finishes the connection.
  std::lock_guard<std::mutex> G(ConnMutex);
  C->ReaderDone = true;
  finishIfDone(C);
}

void SocketFrontend::finishIfDone(const std::shared_ptr<Conn> &C) {
  if (C->ReaderDone && C->Outstanding == 0 && Conns.erase(C->ClientId))
    Finished.push_back(C);
}

void SocketFrontend::reapFinished() {
  std::vector<std::shared_ptr<Conn>> Done;
  {
    std::lock_guard<std::mutex> G(ConnMutex);
    Done.swap(Finished);
  }
  for (const std::shared_ptr<Conn> &C : Done) {
    if (C->Reader.joinable())
      C->Reader.join();
    ::close(C->Fd);
    S.retireClient(C->ClientId);
  }
}

size_t SocketFrontend::connectionsHeld() const {
  std::lock_guard<std::mutex> G(ConnMutex);
  return Conns.size() + Finished.size();
}

void SocketFrontend::handleLine(Conn &C, const std::string &Line) {
  std::istringstream In(Line);
  std::string Cmd;
  In >> Cmd;
  if (Cmd.empty())
    return;
  if (Cmd == "ping") {
    writeLine(C, "pong");
    return;
  }
  if (Cmd == "metrics") {
    writeLine(C, MetricsFn ? "metrics " + MetricsFn()
                           : std::string("err metrics-disabled"));
    return;
  }
  if (Cmd == "submit") {
    uint64_t SubId = 0;
    uint32_t TaskIndex = 0;
    int64_t DeadlineMs = 0;
    if (!(In >> SubId >> TaskIndex)) {
      writeLine(C, "err expected: submit <subid> <taskindex> [deadline_ms]");
      return;
    }
    In >> DeadlineMs; // Optional; 0 (no deadline) when absent.
    // The terminal reply — Committed or shed Overloaded alike — arrives
    // through route(), possibly before submit() returns, so it is
    // counted outstanding first.
    {
      std::lock_guard<std::mutex> G(ConnMutex);
      ++C.Outstanding;
    }
    S.submit(C.ClientId, SubId, TaskIndex,
             DeadlineMs > 0 ? DeadlineMs * 1000 : 0);
    return;
  }
  writeLine(C, "err unknown command: " + Cmd);
}

bool SocketFrontend::route(const Reply &R) {
  std::shared_ptr<Conn> C;
  {
    std::lock_guard<std::mutex> G(ConnMutex);
    auto It = Conns.find(R.Client);
    if (It == Conns.end())
      return R.Client >= ClientIdBase; // Gone client: swallow, still ours.
    C = It->second;
  }
  std::string Line = "reply " + std::to_string(R.SubId) + " " +
                     toString(R.Status);
  if (!R.Detail.empty())
    Line += " " + R.Detail;
  writeLine(*C, Line);
  // Counted after the write: once nothing is outstanding, no route()
  // still holds this connection, and reaping may close its socket.
  std::lock_guard<std::mutex> G(ConnMutex);
  --C->Outstanding;
  finishIfDone(C);
  return true;
}

void SocketFrontend::writeLine(Conn &C, const std::string &Line) {
  std::lock_guard<std::mutex> G(C.WriteMutex);
  std::string Out = Line + "\n";
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(C.Fd, Out.data() + Off, Out.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return; // Client gone; terminal replies are best-effort here.
    Off += static_cast<size_t>(N);
  }
}
