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
#include <deque>
#include <filesystem>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/nc_assert.hpp"
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

/// One forked cell attempt, parent side. EOF on `fd` means the attempt
/// finished (harvest with decode_cell_frame + waitpid).
struct Attempt {
  pid_t pid = -1;
  int fd = -1;  // result-pipe read end (nonblocking)
  std::size_t cell = 0;
  int number = 1;  // 1-based attempt counter
  bool has_deadline = false;
  bool timed_out = false;
  Clock::time_point deadline;
  std::string buf;
  /// Private file capturing the child's stderr (FailureReporter forensics);
  /// the harvester reads the tail and unlinks it.
  std::string stderr_path;
};

struct Retry {
  std::size_t cell = 0;
  int number = 1;
  Clock::time_point ready;
};

/// Decodes one complete child result frame. False on a partial or garbled
/// buffer: a process-level failure of the attempt.
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

/// Human-readable diagnosis of a process-level failure (signal, exit code,
/// timeout, attempts) with the harvested stderr tail appended.
std::string describe_process_failure(const FailureRecord& rec) {
  char buf[160];
  if (rec.timed_out) {
    std::snprintf(buf, sizeof(buf),
                  "cell timed out and was killed (attempt %d)", rec.attempts);
  } else if (rec.signaled) {
    std::snprintf(buf, sizeof(buf),
                  "cell process died on signal %d (%s) (attempt %d)",
                  rec.term_signal, strsignal(rec.term_signal), rec.attempts);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "cell process exited with status %d (attempt %d)",
                  rec.exit_code, rec.attempts);
  }
  std::string out = buf;
  if (!rec.stderr_tail.empty()) {
    out += "; stderr tail:\n";
    out += rec.stderr_tail;
  }
  return out;
}

/// Writes one per-attempt forensics file: a status header plus the child's
/// full captured stderr.
void write_forensics(const std::string& dir, const Cell& cell,
                     std::size_t index, const FailureRecord& rec,
                     const std::string& stderr_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  char name[128];
  std::snprintf(name, sizeof(name), "cell-%03zu-%s-attempt%d.log", index,
                sanitize_label(cell.label()).c_str(), rec.attempts);
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "cell %zu %s\nattempt %d\ntimed_out %d\nsignal %d\n"
                  "exit_code %d\n--- stderr ---\n",
               index, cell.label().c_str(), rec.attempts,
               rec.timed_out ? 1 : 0, rec.signaled ? rec.term_signal : 0,
               rec.signaled ? -1 : rec.exit_code);
  const std::string full = read_stderr_tail(stderr_path, 1 << 20);
  std::fwrite(full.data(), 1, full.size(), f);
  std::fclose(f);
}

std::string stderr_capture_path(std::size_t cell, int attempt) {
  const char* tmp = std::getenv("TMPDIR");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s/netcache-cell-%ld-%zu-%d.stderr",
                tmp != nullptr && *tmp != '\0' ? tmp : "/tmp",
                static_cast<long>(::getpid()), cell, attempt);
  return buf;
}

/// Forks a child running `cell` (via the run_cell entrypoint) and fills
/// a->pid, a->fd and a->stderr_path; a->cell and a->number name the stderr
/// capture file. The child closes the result pipes of the `active` attempts
/// so it holds no other child's pipe open. Returns false (with *error set)
/// when pipe() or fork() fails.
bool spawn_cell_child(const Cell& cell, const std::vector<Attempt>& active,
                      Attempt* a, std::string* error) {
  int fds[2];
  if (::pipe(fds) != 0) {
    *error = "supervisor: pipe() failed";
    return false;
  }
  const std::string err_path = stderr_capture_path(a->cell, a->number);
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
    for (const Attempt& other : active) ::close(other.fd);
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
  a->pid = pid;
  a->fd = fds[0];
  a->stderr_path = err_path;
  return true;
}

}  // namespace

double attempt_timeout_s(const IsolationOptions& opts, int attempt) {
  if (opts.cell_timeout_s <= 0) return 0;
  const int shift = std::clamp(attempt - 1, 0, 3);
  return opts.cell_timeout_s * static_cast<double>(1 << shift);
}

std::vector<CellResult> run_supervised(const std::vector<Cell>& cells,
                                       int jobs,
                                       const IsolationOptions& opts,
                                       ResultCache* cache) {
  if (jobs < 1) jobs = 1;
  std::vector<CellResult> results(cells.size());

  // Cache pre-pass in the parent: children never open the cache, so a hit
  // costs no fork and a store happens exactly once, after harvest.
  std::deque<Retry> ready;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cache != nullptr && cache->lookup(cells[i], &results[i].summary)) {
      results[i].ok = true;
      results[i].from_cache = true;
    } else {
      ready.push_back(Retry{i, 1, Clock::now()});
    }
  }

  std::vector<Attempt> active;
  std::vector<Retry> delayed;

  auto spawn_attempt = [&](std::size_t cell_index, int attempt_number) {
    Attempt a;
    a.cell = cell_index;
    a.number = attempt_number;
    std::string spawn_error;
    if (!spawn_cell_child(cells[cell_index], active, &a, &spawn_error)) {
      results[cell_index].ok = false;
      results[cell_index].error = spawn_error;
      return;
    }
    // Retries get an escalated wall-clock budget (x2 per attempt, capped):
    // a slow-but-correct cell should not burn its whole retry budget on
    // identical SIGKILLs.
    const double timeout_s = attempt_timeout_s(opts, attempt_number);
    if (timeout_s > 0) {
      a.has_deadline = true;
      a.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(timeout_s));
    }
    active.push_back(std::move(a));
  };

  auto finalize = [&](Attempt& a) {
    ::close(a.fd);
    int status = 0;
    while (::waitpid(a.pid, &status, 0) < 0 && errno == EINTR) {
    }
    CellResult r;
    const bool frame_ok = decode_cell_frame(a.buf, &r);
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (frame_ok && clean_exit && !a.timed_out) {
      // In-band outcome — success or a diagnosed (deterministic) failure.
      r.failure.attempts = a.number;
      results[a.cell] = r;
      if (r.ok && r.summary.verified && cache != nullptr) {
        cache->store(cells[a.cell], r.summary);
      }
      std::remove(a.stderr_path.c_str());
      return;
    }
    // Process-level failure: crash, timeout, or a garbled frame.
    FailureRecord rec;
    rec.attempts = a.number;
    rec.timed_out = a.timed_out;
    if (WIFSIGNALED(status)) {
      rec.signaled = true;
      rec.term_signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
      rec.exit_code = WEXITSTATUS(status);
    }
    rec.stderr_tail = read_stderr_tail(a.stderr_path, 8192);
    if (!opts.forensics_dir.empty()) {
      write_forensics(opts.forensics_dir, cells[a.cell], a.cell, rec,
                      a.stderr_path);
    }
    std::remove(a.stderr_path.c_str());
    if (a.number <= opts.cell_retries) {
      // Possibly transient: exponential backoff, then another child.
      const double factor = static_cast<double>(1 << std::min(a.number - 1,
                                                              20));
      const auto wait = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(opts.backoff_s * factor));
      delayed.push_back(Retry{a.cell, a.number + 1, Clock::now() + wait});
      return;
    }
    // Quarantined: deterministic (or budget-exhausted) process failure.
    results[a.cell].ok = false;
    results[a.cell].failure = rec;
    results[a.cell].error = describe_process_failure(rec);
  };

  auto kill_and_reap_all = [&] {
    for (Attempt& a : active) {
      ::kill(a.pid, SIGKILL);
      ::close(a.fd);
      int status = 0;
      while (::waitpid(a.pid, &status, 0) < 0 && errno == EINTR) {
      }
      std::remove(a.stderr_path.c_str());
      results[a.cell].ok = false;
      results[a.cell].failure.attempts = a.number;
      results[a.cell].error = "interrupted: stop requested while running";
    }
    active.clear();
  };

  while (!ready.empty() || !delayed.empty() || !active.empty()) {
    if (stop_requested()) {
      kill_and_reap_all();
      auto mark = [&](const Retry& p) {
        results[p.cell].ok = false;
        results[p.cell].error = "interrupted: stopped before dispatch";
      };
      for (const Retry& p : ready) mark(p);
      for (const Retry& p : delayed) mark(p);
      break;
    }
    const Clock::time_point now = Clock::now();
    // Promote due retries, then fill free child slots in submission order.
    for (std::size_t i = 0; i < delayed.size();) {
      if (delayed[i].ready <= now) {
        ready.push_back(delayed[i]);
        delayed.erase(delayed.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    while (!ready.empty() && static_cast<int>(active.size()) < jobs) {
      Retry next = ready.front();
      ready.pop_front();
      spawn_attempt(next.cell, next.number);
    }
    if (active.empty()) {
      if (delayed.empty()) continue;  // spawn failures only — queue drained
      // Nothing running; sleep until the earliest retry (capped so a stop
      // request is noticed promptly).
      Clock::time_point earliest = delayed[0].ready;
      for (const Retry& p : delayed) earliest = std::min(earliest, p.ready);
      auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    earliest - Clock::now())
                    .count();
      ::poll(nullptr, 0, static_cast<int>(std::clamp<long long>(ms, 0, 200)));
      continue;
    }
    // Wait for output/EOF from any child, a deadline, or a retry ready-time
    // — capped at 200 ms so stop requests and deadlines are always noticed.
    std::vector<pollfd> fds(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      fds[i] = pollfd{active[i].fd, POLLIN, 0};
    }
    long long timeout_ms = 200;
    for (const Attempt& a : active) {
      if (!a.has_deadline) continue;
      auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                    a.deadline - Clock::now())
                    .count();
      timeout_ms = std::min(timeout_ms, std::max<long long>(ms, 0));
    }
    ::poll(fds.data(), fds.size(), static_cast<int>(timeout_ms));
    // Drain readable pipes; EOF (all write ends closed — only the owning
    // child ever held one) means the attempt is done: harvest it.
    for (std::size_t i = 0; i < active.size();) {
      Attempt& a = active[i];
      bool done = false;
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char chunk[4096];
        for (;;) {
          ssize_t n = ::read(a.fd, chunk, sizeof(chunk));
          if (n > 0) {
            a.buf.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) done = true;  // EOF
          break;  // EOF or EAGAIN/EINTR
        }
      }
      if (!done && a.has_deadline && Clock::now() >= a.deadline) {
        // Budget exhausted: SIGKILL; the pipe EOF arrives on the next poll
        // round and the harvest sees timed_out.
        a.timed_out = true;
        a.has_deadline = false;
        ::kill(a.pid, SIGKILL);
      }
      if (done) {
        finalize(a);
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
