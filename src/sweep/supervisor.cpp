#include "src/sweep/supervisor.hpp"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/sweep/result_cache.hpp"

namespace netcache::sweep {

// --- Stop flag --------------------------------------------------------------

namespace {

// Set from a signal handler or by request_stop() on any thread, and read by
// every sweep worker, so it must be async-signal-safe and race-free; a
// lock-free atomic is both.
std::atomic<int> g_stop_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);
bool g_handlers_installed = false;
struct sigaction g_old_int;
struct sigaction g_old_term;

void stop_handler(int sig) { g_stop_signal = sig; }

}  // namespace

void install_stop_handlers() {
  if (g_handlers_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = stop_handler;
  sigemptyset(&sa.sa_mask);
  // No SA_RESTART: a pending stop should interrupt blocking syscalls (the
  // supervisor's poll() already wakes on a short timeout regardless).
  ::sigaction(SIGINT, &sa, &g_old_int);
  ::sigaction(SIGTERM, &sa, &g_old_term);
  g_handlers_installed = true;
}

void remove_stop_handlers() {
  if (!g_handlers_installed) return;
  ::sigaction(SIGINT, &g_old_int, nullptr);
  ::sigaction(SIGTERM, &g_old_term, nullptr);
  g_handlers_installed = false;
}

bool stop_requested() { return g_stop_signal != 0; }
int stop_signal() { return g_stop_signal; }
void request_stop(int sig) { g_stop_signal = sig; }
void clear_stop() { g_stop_signal = 0; }

// --- Child side -------------------------------------------------------------

namespace {

constexpr const char* kFrameMagic = "netcache-cell-frame v1";

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Runs exactly one cell in the forked child and reports the outcome over
/// `result_fd` as one frame:
///
///   netcache-cell-frame v1\n
///   ok <0|1>\n
///   bytes <payload-size>\n
///   <payload>end\n
///
/// ok=1: payload is the %a hex-float serialize_summary() text (bit-exact
/// round trip). ok=0: payload is the diagnosed error text (in-band failure).
/// Anything else the parent reads — a partial frame, no frame, a nonzero
/// exit — is a process-level failure of this child.
[[noreturn]] void run_cell_entrypoint(const Cell& cell, int result_fd) {
  CellResult r = run_cell(cell, /*cache=*/nullptr);
  const std::string payload =
      r.ok ? core::serialize_summary(r.summary) : r.error;
  char head[96];
  std::snprintf(head, sizeof(head), "%s\nok %d\nbytes %zu\n", kFrameMagic,
                r.ok ? 1 : 0, payload.size());
  std::string frame = head;
  frame += payload;
  frame += "end\n";
  const bool sent = write_all(result_fd, frame.data(), frame.size());
  // _exit, not exit: the child shares the parent's atexit/static state and
  // must not run destructors or flush shared stdio buffers twice.
  _exit(sent ? 0 : 3);
}

// --- Parent side ------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// One forked cell, parent side. EOF on `fd` means the child finished
/// (harvest with decode_cell_frame + waitpid).
struct Child {
  pid_t pid = -1;
  int fd = -1;  // result-pipe read end (nonblocking)
  std::size_t cell = 0;
  bool has_deadline = false;
  bool timed_out = false;
  Clock::time_point deadline;
  std::string buf;
  /// Private file capturing the child's stderr (FailureReporter forensics);
  /// the harvester reads the tail and unlinks it.
  std::string stderr_path;
};

/// Decodes one complete child result frame. False on a partial or garbled
/// buffer: a process-level failure of the cell.
bool decode_cell_frame(const std::string& buf, CellResult* out) {
  const std::string magic = std::string(kFrameMagic) + "\n";
  if (buf.compare(0, magic.size(), magic) != 0) return false;
  std::size_t pos = magic.size();
  int ok = -1;
  std::size_t bytes = 0;
  if (std::sscanf(buf.c_str() + pos, "ok %d\nbytes %zu\n", &ok, &bytes) != 2 ||
      (ok != 0 && ok != 1)) {
    return false;
  }
  const std::size_t payload_at = buf.find('\n', buf.find('\n', pos) + 1);
  if (payload_at == std::string::npos) return false;
  const std::size_t start = payload_at + 1;
  if (buf.size() != start + bytes + 4 ||
      buf.compare(start + bytes, 4, "end\n") != 0) {
    return false;
  }
  const std::string payload = buf.substr(start, bytes);
  CellResult r;
  if (ok == 1) {
    if (!core::deserialize_summary(payload, &r.summary)) return false;
    r.ok = true;
  } else {
    r.ok = false;
    r.error = payload;
  }
  *out = r;
  return true;
}

/// Last `max_bytes` of the file at `path` ("" when unreadable).
std::string read_stderr_tail(const std::string& path, std::size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) size = 0;
  long start = size > static_cast<long>(max_bytes)
                   ? size - static_cast<long>(max_bytes)
                   : 0;
  std::fseek(f, start, SEEK_SET);
  std::string out(static_cast<std::size_t>(size - start), '\0');
  out.resize(std::fread(out.data(), 1, out.size(), f));
  std::fclose(f);
  return out;
}

std::string sanitize_label(const std::string& label) {
  std::string out;
  for (char c : label) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '-';
  }
  return out;
}

/// One-line diagnosis of a process-level failure: the timeout, the signal,
/// or the exit status (`status` as returned by waitpid).
std::string describe_process_failure(int status, bool timed_out) {
  char buf[128];
  if (timed_out) {
    std::snprintf(buf, sizeof(buf), "cell timed out and was killed");
  } else if (WIFSIGNALED(status)) {
    std::snprintf(buf, sizeof(buf), "cell process died on signal %d (%s)",
                  WTERMSIG(status), strsignal(WTERMSIG(status)));
  } else {
    std::snprintf(buf, sizeof(buf), "cell process exited with status %d",
                  WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  }
  return buf;
}

/// Writes the failed cell's forensics file: the diagnosis plus the child's
/// full captured stderr.
void write_forensics(const std::string& dir, const Cell& cell,
                     std::size_t index, const std::string& diagnosis,
                     const std::string& stderr_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char name[128];
  std::snprintf(name, sizeof(name), "cell-%03zu-%s.log", index,
                sanitize_label(cell.label()).c_str());
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "cell %zu %s\n%s\n--- stderr ---\n", index,
               cell.label().c_str(), diagnosis.c_str());
  const std::string full = read_stderr_tail(stderr_path, 1 << 20);
  std::fwrite(full.data(), 1, full.size(), f);
  std::fclose(f);
}

std::string stderr_capture_path(std::size_t cell) {
  const char* tmp = std::getenv("TMPDIR");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s/netcache-cell-%ld-%zu.stderr",
                tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                static_cast<long>(::getpid()), cell);
  return buf;
}

/// Forks a child running `cell` (via the run_cell entrypoint) and fills
/// c->pid, c->fd and c->stderr_path; c->cell names the stderr capture file.
/// The child closes the result pipes of the `active` children so it holds
/// no other child's pipe open. Returns false (with *error set) when pipe()
/// or fork() fails.
bool spawn_cell_child(const Cell& cell, const std::vector<Child>& active,
                      Child* c, std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "supervisor: pipe() failed";
    return false;
  }
  const std::string err_path = stderr_capture_path(c->cell);
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "supervisor: fork() failed";
    return false;
  }
  if (pid == 0) {
    // Child: default signal dispositions (a terminal Ctrl+C must kill the
    // children while the parent shuts down gracefully), private stderr
    // capture file, and no inherited parent fds but our own pipe write end.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGPIPE, SIG_DFL);
    ::close(fds[0]);
    for (const Child& other : active) ::close(other.fd);
    int err_fd = ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (err_fd >= 0) {
      ::dup2(err_fd, 2);
      ::close(err_fd);
    }
    run_cell_entrypoint(cell, fds[1]);
  }
  // Parent.
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  c->pid = pid;
  c->fd = fds[0];
  c->stderr_path = err_path;
  return true;
}

}  // namespace

std::vector<CellResult> run_supervised(const std::vector<Cell>& cells,
                                       int jobs,
                                       const IsolationOptions& opts,
                                       ResultCache* cache) {
  if (jobs < 1) jobs = 1;
  std::vector<CellResult> results(cells.size());

  // Cache pre-pass in the parent: children never open the cache, so a hit
  // costs no fork and a store happens exactly once, after harvest.
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cache != nullptr && cache->lookup(cells[i], &results[i].summary)) {
      results[i].ok = true;
      results[i].from_cache = true;
    } else {
      pending.push_back(i);
    }
  }

  std::vector<Child> active;
  std::size_t next = 0;  // the first pending cell not yet dispatched

  auto spawn = [&](std::size_t cell_index) {
    Child c;
    c.cell = cell_index;
    std::string spawn_error;
    if (!spawn_cell_child(cells[cell_index], active, &c, &spawn_error)) {
      results[cell_index].error = spawn_error;
      return;
    }
    if (opts.cell_timeout_s > 0) {
      c.has_deadline = true;
      c.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          opts.cell_timeout_s));
    }
    active.push_back(std::move(c));
  };

  auto finalize = [&](Child& c) {
    ::close(c.fd);
    int status = 0;
    while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
    }
    CellResult r;
    const bool frame_ok = decode_cell_frame(c.buf, &r);
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (frame_ok && clean_exit && !c.timed_out) {
      // In-band outcome — success or a diagnosed simulation failure.
      results[c.cell] = r;
      if (r.ok && r.summary.verified && cache != nullptr) {
        cache->store(cells[c.cell], r.summary);
      }
    } else {
      // Process-level failure: crash, timeout, or a missing/garbled frame.
      const std::string diagnosis =
          describe_process_failure(status, c.timed_out);
      if (!opts.forensics_dir.empty()) {
        write_forensics(opts.forensics_dir, cells[c.cell], c.cell, diagnosis,
                        c.stderr_path);
      }
      std::string& error = results[c.cell].error;
      error = diagnosis;
      const std::string tail = read_stderr_tail(c.stderr_path, 8192);
      if (!tail.empty()) error += "; stderr tail:\n" + tail;
    }
    std::remove(c.stderr_path.c_str());
  };

  auto kill_and_reap_all = [&] {
    for (Child& c : active) {
      ::kill(c.pid, SIGKILL);
      ::close(c.fd);
      int status = 0;
      while (::waitpid(c.pid, &status, 0) < 0 && errno == EINTR) {
      }
      std::remove(c.stderr_path.c_str());
      results[c.cell].error = "interrupted: stop requested while running";
    }
    active.clear();
  };

  while (next < pending.size() || !active.empty()) {
    if (stop_requested()) {
      kill_and_reap_all();
      for (; next < pending.size(); ++next) {
        results[pending[next]].error = "interrupted: stopped before dispatch";
      }
      break;
    }
    // Fill free child slots in submission order.
    while (next < pending.size() && static_cast<int>(active.size()) < jobs) {
      spawn(pending[next++]);
    }
    if (active.empty()) continue;  // spawn failures only
    // Wait for output/EOF from any child or a deadline — capped at 200 ms so
    // stop requests and deadlines are always noticed.
    std::vector<pollfd> fds(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      fds[i] = pollfd{active[i].fd, POLLIN, 0};
    }
    long long timeout_ms = 200;
    for (const Child& c : active) {
      if (!c.has_deadline) continue;
      auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    c.deadline - Clock::now())
                    .count();
      timeout_ms = std::min(timeout_ms, std::max<long long>(ms, 0));
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
    // Drain readable pipes; EOF (all write ends closed — only the owning
    // child ever held one) means the cell is done: harvest it.
    for (std::size_t i = 0; i < active.size();) {
      Child& c = active[i];
      bool done = false;
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char chunk[4096];
        for (;;) {
          ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
          if (n > 0) {
            c.buf.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) done = true;  // EOF
          break;  // EOF or EAGAIN/EINTR
        }
      }
      if (!done && c.has_deadline && Clock::now() >= c.deadline) {
        // Budget exhausted: SIGKILL; the pipe EOF arrives on the next poll
        // round and the harvest sees timed_out.
        c.timed_out = true;
        c.has_deadline = false;
        ::kill(c.pid, SIGKILL);
      }
      if (done) {
        finalize(c);
        active.erase(active.begin() + static_cast<long>(i));
        fds.erase(fds.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }
  return results;
}

}  // namespace netcache::sweep
