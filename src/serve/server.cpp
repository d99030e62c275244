#include "src/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <map>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/sim_error.hpp"
#include "src/serve/planner.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/spec.hpp"
#include "src/sweep/result_cache.hpp"
#include "src/sweep/supervisor.hpp"

namespace netcache::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point after_seconds(double s) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(s));
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One client connection. The daemon serves exactly one grid request per
/// connection; `closing` means "flush outbuf, then hang up".
struct Conn {
  int fd = -1;
  FrameReader reader;
  std::string outbuf;
  int request_id = 0;  // 0 = no request admitted yet
  std::size_t total_cells = 0;
  std::size_t delivered = 0;
  std::size_t failed = 0;
  bool has_deadline = false;  // per-request `timeout` meta
  Clock::time_point deadline;
  bool closing = false;
};

/// One running worker attempt (the child executing one planner job).
struct Worker {
  long job = -1;
  pid_t pid = -1;
  int fd = -1;  // result-pipe read end
  int attempt = 1;
  bool timed_out = false;
  bool has_deadline = false;
  Clock::time_point deadline;
  std::string buf;
  std::string stderr_path;
};

/// A failed attempt waiting out its backoff before the next one.
struct PendingRetry {
  long job = -1;
  int attempt = 1;  // the attempt number to run next
  Clock::time_point ready;
};

class Server {
 public:
  Server(const ServerOptions& options, sweep::ResultCache* cache)
      : opts_(options),
        jobs_(options.jobs > 0 ? options.jobs : sweep::default_jobs()),
        cache_(cache),
        planner_(cache, options.max_queue) {}

  int run() {
    std::string error;
    if (!listen_socket(&error)) {
      std::fprintf(stderr, "netcache_sweepd: %s\n", error.c_str());
      return 1;
    }
    // SIGPIPE must never kill the daemon: a client hanging up mid-write is
    // an ordinary event (send() also passes MSG_NOSIGNAL, this covers any
    // straggler write path).
    std::signal(SIGPIPE, SIG_IGN);
    sweep::install_stop_handlers();
    std::printf("netcache_sweepd: listening on %s (jobs=%d, queue=%zu%s)\n",
                address_text().c_str(), jobs_, opts_.max_queue,
                cache_ != nullptr ? (", cache=" + cache_->dir()).c_str() : "");
    std::fflush(stdout);
    loop();
    sweep::remove_stop_handlers();
    cleanup();
    std::printf("netcache_sweepd: drained (%llu cells served, %llu from "
                "cache, %llu failed)\n",
                static_cast<unsigned long long>(served_),
                static_cast<unsigned long long>(served_from_cache_),
                static_cast<unsigned long long>(served_failed_));
    return 0;
  }

 private:
  std::string address_text() const {
    if (!opts_.socket_path.empty()) return "unix:" + opts_.socket_path;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "tcp:127.0.0.1:%d", opts_.tcp_port);
    return buf;
  }

  void logv(const char* fmt, ...) {
    if (!opts_.verbose) return;
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "netcache_sweepd: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
  }

  bool listen_socket(std::string* error) {
    if (!opts_.socket_path.empty()) {
      listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd_ < 0) {
        *error = "socket() failed";
        return false;
      }
      sockaddr_un addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sun_family = AF_UNIX;
      if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
        *error = "socket path too long: " + opts_.socket_path;
        return false;
      }
      std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      // A daemon SIGKILLed mid-grid leaves its socket file behind; restart
      // (the crash-resume path) must not fail on the stale inode.
      ::unlink(opts_.socket_path.c_str());
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        *error = "bind(" + opts_.socket_path + ") failed: " +
                 std::strerror(errno);
        return false;
      }
    } else {
      listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listen_fd_ < 0) {
        *error = "socket() failed";
        return false;
      }
      const int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        char why[96];
        std::snprintf(why, sizeof(why), "bind(127.0.0.1:%d) failed: %s",
                      opts_.tcp_port, std::strerror(errno));
        *error = why;
        return false;
      }
    }
    if (::listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_)) {
      *error = "listen() failed";
      return false;
    }
    return true;
  }

  void queue_frame(Conn& conn, const Frame& frame) {
    conn.outbuf += encode_frame(frame);
  }

  void queue_reject(Conn& conn, const std::string& reason) {
    Frame f;
    f.type = "reject";
    f.payload = reason;
    queue_frame(conn, f);
    conn.closing = true;
  }

  /// Queues one finished cell to its request's connection and, when the
  /// grid is complete, the `done` frame.
  void deliver(const Planner::Delivery& d) {
    Conn* conn = conn_for_request(d.request_id);
    if (conn == nullptr) return;  // client left; result still hit the cache
    Frame f;
    f.type = "cell";
    char num[32];
    std::snprintf(num, sizeof(num), "%zu", d.index);
    f.meta["index"] = num;
    f.meta["label"] = d.label;
    f.meta["ok"] = d.result.ok ? "1" : "0";
    f.meta["from_cache"] = d.result.from_cache ? "1" : "0";
    f.payload = d.result.ok ? core::serialize_summary(d.result.summary)
                            : d.result.error;
    queue_frame(*conn, f);
    conn->delivered += 1;
    served_ += 1;
    if (d.result.from_cache) served_from_cache_ += 1;
    if (!d.result.ok) {
      conn->failed += 1;
      served_failed_ += 1;
    }
  }

  void deliver_all(const std::vector<Planner::Delivery>& ds) {
    for (const auto& d : ds) deliver(d);
    // `done` strictly after the batch: a request whose last cells resolve
    // together (all-cache-hit admission, duplicate-cell fan-out) has
    // pending()==0 before its later cells are queued, and a done frame
    // emitted mid-batch would make the client stop reading early.
    for (const auto& d : ds) {
      Conn* conn = conn_for_request(d.request_id);
      if (conn != nullptr) maybe_done(*conn);
    }
  }

  void maybe_done(Conn& conn, bool deadline_exceeded = false) {
    if (conn.request_id == 0 || conn.closing) return;
    if (!deadline_exceeded && planner_.pending(conn.request_id) > 0) return;
    Frame f;
    f.type = "done";
    char num[32];
    std::snprintf(num, sizeof(num), "%zu", conn.delivered - conn.failed);
    f.meta["completed"] = num;
    std::snprintf(num, sizeof(num), "%zu", conn.failed);
    f.meta["failed"] = num;
    std::snprintf(num, sizeof(num), "%zu", conn.total_cells);
    f.meta["cells"] = num;
    if (deadline_exceeded) f.meta["deadline_exceeded"] = "1";
    queue_frame(conn, f);
    conn.closing = true;
    logv("request %d done (%zu delivered, %zu failed)", conn.request_id,
         conn.delivered, conn.failed);
  }

  Conn* conn_for_request(int request_id) {
    for (auto& c : conns_) {
      if (c.request_id == request_id) return &c;
    }
    return nullptr;
  }

  void handle_request(Conn& conn, const Frame& frame) {
    if (conn.request_id != 0) {
      queue_reject(conn, "protocol error: one request per connection");
      return;
    }
    if (draining_) {
      queue_reject(conn, "draining: daemon is shutting down — retry against "
                         "the restarted instance");
      return;
    }
    GridSpec spec;
    std::string error;
    if (!parse_spec(frame.payload, &spec, &error)) {
      queue_reject(conn, "malformed request: " + error);
      return;
    }
    std::vector<sweep::Cell> cells;
    try {
      cells = to_cells(spec);
    } catch (const SimError& e) {
      queue_reject(conn, std::string("bad grid: ") + e.what());
      return;
    }
    const int id = next_request_id_++;
    Planner::Admission adm = planner_.admit(id, cells);
    if (!adm.accepted) {
      logv("request rejected: %s", adm.reject_reason.c_str());
      queue_reject(conn, adm.reject_reason);
      return;
    }
    conn.request_id = id;
    conn.total_cells = adm.total_cells;
    const std::string timeout_text = frame.get("timeout");
    if (!timeout_text.empty()) {
      char* end = nullptr;
      const double s = std::strtod(timeout_text.c_str(), &end);
      if (end != timeout_text.c_str() && *end == '\0' && s > 0) {
        conn.has_deadline = true;
        conn.deadline = after_seconds(s);
      }
    }
    Frame ack;
    ack.type = "ack";
    char num[32];
    std::snprintf(num, sizeof(num), "%zu", adm.total_cells);
    ack.meta["cells"] = num;
    std::snprintf(num, sizeof(num), "%zu", adm.immediate.size());
    ack.meta["cached"] = num;
    queue_frame(conn, ack);
    logv("request %d admitted: %zu cell(s), %zu cached, %zu new job(s), "
         "%zu attached",
         id, adm.total_cells, adm.immediate.size(), adm.new_jobs,
         adm.attached);
    deliver_all(adm.immediate);
    maybe_done(conn);
  }

  // --- Worker management ---------------------------------------------------

  std::vector<int> fds_to_close_in_child() const {
    std::vector<int> fds;
    fds.push_back(listen_fd_);
    for (const auto& c : conns_) fds.push_back(c.fd);
    for (const auto& w : workers_) fds.push_back(w.fd);
    return fds;
  }

  void spawn_job(long job, int attempt) {
    sweep::ChildProc child;
    std::string error;
    if (!sweep::spawn_cell_child(planner_.job_cell(job),
                                 static_cast<std::size_t>(job), attempt,
                                 fds_to_close_in_child(), &child, &error)) {
      sweep::CellResult r;
      r.ok = false;
      r.error = error;
      std::vector<Planner::Delivery> out;
      planner_.complete(job, r, &out);
      deliver_all(out);
      return;
    }
    Worker w;
    w.job = job;
    w.pid = child.pid;
    w.fd = child.fd;
    w.attempt = attempt;
    w.stderr_path = child.stderr_path;
    const double timeout_s =
        sweep::attempt_timeout_s(opts_.isolation, attempt);
    if (timeout_s > 0) {
      w.has_deadline = true;
      w.deadline = after_seconds(timeout_s);
    }
    logv("job %ld attempt %d -> pid %ld (%s)", job, attempt,
         static_cast<long>(child.pid),
         planner_.job_cell(job).label().c_str());
    workers_.push_back(std::move(w));
  }

  void spawn_ready() {
    if (draining_) return;
    const Clock::time_point now = Clock::now();
    // Due retries first (they hold planner "running" slots), then new jobs.
    for (std::size_t i = 0;
         i < retries_.size() && static_cast<int>(workers_.size()) < jobs_;) {
      if (retries_[i].ready <= now) {
        const PendingRetry r = retries_[i];
        retries_.erase(retries_.begin() + static_cast<long>(i));
        spawn_job(r.job, r.attempt);
      } else {
        ++i;
      }
    }
    while (static_cast<int>(workers_.size()) < jobs_) {
      const long job = planner_.next_job();
      if (job < 0) break;
      spawn_job(job, 1);
    }
  }

  void harvest(Worker& w) {
    ::close(w.fd);
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    sweep::CellResult r;
    const bool frame_ok = sweep::decode_cell_frame(w.buf, &r);
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (frame_ok && clean_exit && !w.timed_out) {
      r.failure.attempts = w.attempt;
      std::remove(w.stderr_path.c_str());
      std::vector<Planner::Delivery> out;
      planner_.complete(w.job, r, &out);  // complete() stores to the cache
      deliver_all(out);
      return;
    }
    // Process-level failure: crash, timeout, or a garbled frame — identical
    // taxonomy to run_supervised.
    sweep::FailureRecord rec;
    rec.attempts = w.attempt;
    rec.timed_out = w.timed_out;
    if (WIFSIGNALED(status)) {
      rec.signaled = true;
      rec.term_signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
      rec.exit_code = WEXITSTATUS(status);
    }
    rec.stderr_tail = sweep::read_stderr_tail(w.stderr_path, 8192);
    if (!opts_.isolation.forensics_dir.empty()) {
      sweep::write_forensics(opts_.isolation.forensics_dir,
                             planner_.job_cell(w.job),
                             static_cast<std::size_t>(w.job), rec,
                             w.stderr_path);
    }
    std::remove(w.stderr_path.c_str());
    if (w.attempt <= opts_.isolation.cell_retries && !draining_) {
      const double factor =
          static_cast<double>(1 << std::min(w.attempt - 1, 20));
      retries_.push_back(PendingRetry{
          w.job, w.attempt + 1,
          after_seconds(opts_.isolation.backoff_s * factor)});
      logv("job %ld attempt %d failed (%s); retrying", w.job, w.attempt,
           rec.signaled ? "signal" : (rec.timed_out ? "timeout" : "exit"));
      return;
    }
    sweep::CellResult failed;
    failed.ok = false;
    failed.failure = rec;
    failed.error = sweep::describe_process_failure(rec);
    logv("job %ld quarantined after attempt %d", w.job, w.attempt);
    std::vector<Planner::Delivery> out;
    planner_.complete(w.job, failed, &out);
    deliver_all(out);
  }

  // --- Drain ---------------------------------------------------------------

  void begin_drain(int sig) {
    draining_ = true;
    drain_deadline_ = after_seconds(opts_.drain_timeout_s);
    ::close(listen_fd_);
    listen_fd_ = -1;
    logv("drain: signal %d — %zu queued, %zu retrying, %zu running", sig,
         planner_.queued_jobs(), retries_.size(), workers_.size());
    std::vector<Planner::Delivery> out;
    // Queued cells fail in-band: clients get their partial grid promptly
    // instead of waiting on work that will never start.
    planner_.fail_queued("interrupted: daemon draining", &out);
    // Jobs sitting out a retry backoff have no child either — same fate.
    for (const PendingRetry& r : retries_) {
      sweep::CellResult failed;
      failed.ok = false;
      failed.error = "interrupted: daemon draining";
      planner_.complete(r.job, failed, &out);
    }
    retries_.clear();
    deliver_all(out);
    // Running children get drain_timeout_s to finish; their results land in
    // the cache and in every waiting client.
  }

  void kill_remaining_workers() {
    std::vector<Planner::Delivery> out;
    for (Worker& w : workers_) {
      ::kill(w.pid, SIGKILL);
      ::close(w.fd);
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      std::remove(w.stderr_path.c_str());
      sweep::CellResult failed;
      failed.ok = false;
      failed.failure.attempts = w.attempt;
      failed.error = "interrupted: daemon draining (cell killed at the "
                     "drain deadline; a restarted daemon will re-execute it)";
      planner_.complete(w.job, failed, &out);
    }
    workers_.clear();
    deliver_all(out);
  }

  // --- Event loop ----------------------------------------------------------

  void close_conn(std::size_t i) {
    Conn& c = conns_[i];
    if (c.request_id != 0) planner_.drop_request(c.request_id);
    ::close(c.fd);
    conns_.erase(conns_.begin() + static_cast<long>(i));
  }

  void accept_clients() {
    while (listen_fd_ >= 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      if (conns_.size() >= opts_.max_connections) {
        // Over the connection bound: diagnose and hang up. Best-effort
        // single write — a full socket buffer just drops the courtesy note.
        Frame f;
        f.type = "reject";
        f.payload = "overloaded: too many connections — retry later";
        const std::string bytes = encode_frame(f);
        (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      Conn c;
      c.fd = fd;
      conns_.push_back(std::move(c));
    }
  }

  /// Drains as much outbuf as the socket accepts. False = peer gone.
  bool flush_conn(Conn& c) {
    while (!c.outbuf.empty()) {
      const ssize_t n =
          ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
      if (n > 0) {
        c.outbuf.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  long long poll_timeout_ms() const {
    const Clock::time_point now = Clock::now();
    Clock::time_point next = now + std::chrono::milliseconds(200);
    for (const Worker& w : workers_) {
      if (w.has_deadline) next = std::min(next, w.deadline);
    }
    for (const PendingRetry& r : retries_) next = std::min(next, r.ready);
    for (const Conn& c : conns_) {
      if (c.has_deadline && !c.closing) next = std::min(next, c.deadline);
    }
    if (draining_) next = std::min(next, drain_deadline_);
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
            .count();
    return std::clamp<long long>(ms, 0, 200);
  }

  bool finished() const {
    if (!draining_ || !workers_.empty() || !retries_.empty()) return false;
    // Flushed everywhere -> clean exit. A stalled client that never reads
    // its last frames only holds the daemon until the drain deadline.
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const Conn& c) { return c.outbuf.empty(); }) ||
           Clock::now() >= drain_deadline_;
  }

  void loop() {
    while (true) {
      if (sweep::stop_requested() && !draining_) {
        begin_drain(sweep::stop_signal());
      }
      if (draining_ && !workers_.empty() &&
          Clock::now() >= drain_deadline_) {
        logv("drain deadline: killing %zu remaining worker(s)",
             workers_.size());
        kill_remaining_workers();
      }
      if (finished()) {
        // The deadline kill above queues the final cell + done frames after
        // this iteration's flush pass already ran; give every connection one
        // last best-effort send before exiting so clients see `done`, not a
        // bare EOF.
        for (Conn& c : conns_) (void)flush_conn(c);
        break;
      }
      spawn_ready();

      std::vector<pollfd> fds;
      bool listen_polled = false;
      if (listen_fd_ >= 0) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        listen_polled = true;
      }
      const std::size_t conns_at = fds.size();
      for (const Conn& c : conns_) {
        short events = 0;
        if (!c.closing && c.request_id == 0) events |= POLLIN;
        if (!c.outbuf.empty()) events |= POLLOUT;
        // Always watch for hangup so a vanished client is dropped even
        // when idle-waiting on its grid.
        fds.push_back(pollfd{c.fd, events, 0});
      }
      const std::size_t workers_at = fds.size();
      for (const Worker& w : workers_) {
        fds.push_back(pollfd{w.fd, POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(),
             static_cast<int>(poll_timeout_ms()));

      // 1. Workers: drain pipes, harvest EOFs, enforce deadlines.
      for (std::size_t i = 0; i < workers_.size();) {
        Worker& w = workers_[i];
        const pollfd& pfd = fds[workers_at + i];
        bool done = false;
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
          char chunk[4096];
          for (;;) {
            const ssize_t n = ::read(w.fd, chunk, sizeof(chunk));
            if (n > 0) {
              w.buf.append(chunk, static_cast<std::size_t>(n));
              continue;
            }
            if (n == 0) done = true;
            break;
          }
        }
        if (!done && w.has_deadline && Clock::now() >= w.deadline) {
          w.timed_out = true;
          w.has_deadline = false;
          ::kill(w.pid, SIGKILL);
        }
        if (done) {
          harvest(w);
          workers_.erase(workers_.begin() + static_cast<long>(i));
        } else {
          ++i;
        }
      }

      // 2. Connections: new bytes, flushes, deadlines, disconnects.
      for (std::size_t i = 0; i < conns_.size();) {
        Conn& c = conns_[i];
        const pollfd& pfd = fds[conns_at + i];
        bool drop = false;
        if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) {
          char chunk[4096];
          for (;;) {
            const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
            if (n > 0) {
              c.reader.append(chunk, static_cast<std::size_t>(n));
              continue;
            }
            // EOF: the client hung up (or is half-closed, which our client
            // library never does). Treat as disconnect — waiting on a peer
            // that reports POLLHUP forever would spin the loop.
            if (n == 0) drop = true;
            break;
          }
          Frame frame;
          while (!drop && c.reader.next(&frame)) {
            if (frame.type == "request") {
              handle_request(c, frame);
            } else {
              queue_reject(c, "protocol error: unexpected frame type '" +
                                  frame.type + "'");
            }
          }
          if (c.reader.error()) {
            logv("dropping connection: %s", c.reader.error_text().c_str());
            drop = true;
          }
        }
        if (!drop && c.has_deadline && !c.closing &&
            Clock::now() >= c.deadline) {
          logv("request %d deadline exceeded", c.request_id);
          planner_.drop_request(c.request_id);
          maybe_done(c, /*deadline_exceeded=*/true);
          c.has_deadline = false;
        }
        if (!drop && !flush_conn(c)) drop = true;
        if (!drop && c.outbuf.size() > opts_.max_outbuf_bytes) {
          // Backpressure bound: this client reads slower than its grid
          // finishes. Its memory, not ours.
          logv("dropping connection: outbuf over %zu bytes",
               opts_.max_outbuf_bytes);
          drop = true;
        }
        if (!drop && c.closing && c.outbuf.empty()) drop = true;
        if (drop) {
          close_conn(i);
        } else {
          ++i;
        }
      }

      // 3. New clients.
      if (listen_polled && (fds[0].revents & POLLIN)) accept_clients();
    }
  }

  void cleanup() {
    for (Conn& c : conns_) ::close(c.fd);
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!opts_.socket_path.empty()) ::unlink(opts_.socket_path.c_str());
  }

  ServerOptions opts_;
  int jobs_;
  sweep::ResultCache* cache_;
  Planner planner_;
  int listen_fd_ = -1;
  int next_request_id_ = 1;
  std::vector<Conn> conns_;
  std::vector<Worker> workers_;
  std::vector<PendingRetry> retries_;
  bool draining_ = false;
  Clock::time_point drain_deadline_;
  std::uint64_t served_ = 0;
  std::uint64_t served_from_cache_ = 0;
  std::uint64_t served_failed_ = 0;
};

}  // namespace

int run_server(const ServerOptions& options, sweep::ResultCache* cache) {
  Server server(options, cache);
  return server.run();
}

}  // namespace netcache::serve
