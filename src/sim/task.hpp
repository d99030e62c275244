// Coroutine task type used for all simulated processes.
//
// A `Task<T>` is a lazily-started coroutine: creating one does not run any
// code; it runs when awaited (symmetric transfer), when started from an event
// op with start(), or when detached onto the simulation engine with
// Engine::spawn. Awaiting a Task suspends the caller until the callee
// completes, forming the call chains that model multi-step hardware
// transactions (e.g. read miss -> protocol fetch -> memory bank read).
// Single-delay leaf operations — L1-hit reads, unstalled writes, compute,
// resource holds, TDMA slots — are plain awaiters instead (no frame; see
// EventOp in event_queue.hpp); only their multi-step slow paths become Tasks.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "src/common/nc_assert.hpp"
#include "src/sim/frame_arena.hpp"

namespace netcache::sim {

namespace detail {

struct PromiseBase {
  // Coroutine frames recycle through the thread-local arena instead of
  // malloc; the frame-per-await hot path is allocation-free once warm.
  static void* operator new(std::size_t n) {
    return FrameArena::local().allocate(n);
  }
  static void operator delete(void* p) noexcept {
    FrameArena::local().deallocate(p);
  }

  std::coroutine_handle<> continuation;
  bool detached = false;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      if (p.continuation) {
        return p.continuation;  // resume the awaiter (symmetric transfer)
      }
      if (p.detached) {
        h.destroy();
      }
      // Not detached and nobody awaiting: the owning Task destroys the frame.
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { std::terminate(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
struct TaskPromise : detail::PromiseBase {
  T value{};
  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct TaskPromise<void> : detail::PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

/// A lazily-started simulation coroutine returning T.
template <typename T>
class [[nodiscard]] Task {
 public:
  using promise_type = TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and suspends the caller until it finishes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;  // start the callee
      }
      T await_resume() {
        if constexpr (!std::is_void_v<T>) {
          return std::move(h.promise().value);
        }
      }
    };
    NC_ASSERT(handle_, "awaiting an empty Task");
    return Awaiter{handle_};
  }

  /// Starts the coroutine from outside a coroutine — an event op — as if
  /// `continuation` had awaited it: the callee runs until its first
  /// suspension, and its completion resumes `continuation`. The Task keeps
  /// owning the frame. The continuation may destroy this Task before start()
  /// returns, so start() touches nothing after the resume.
  void start(std::coroutine_handle<> continuation) {
    NC_ASSERT(handle_ && !handle_.done(), "starting an empty or done Task");
    handle_.promise().continuation = continuation;
    handle_.resume();
  }

  /// Releases ownership of the coroutine frame, marking it self-destroying.
  /// Used by Engine::spawn for fire-and-forget processes.
  Handle release_detached() {
    NC_ASSERT(handle_, "detaching an empty Task");
    handle_.promise().detached = true;
    return std::exchange(handle_, nullptr);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_ = nullptr;
};

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace netcache::sim
