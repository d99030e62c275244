#include "src/sim/resource.hpp"

#include "src/common/nc_assert.hpp"

namespace netcache::sim {

void Resource::release() {
  NC_ASSERT(busy_, "release of a free resource");
  if (waiters_.empty()) {
    busy_ = false;
    return;
  }
  // Hand over directly: the resource stays busy and the next waiter is
  // granted it at the current instant.
  EventOp* next = waiters_.front();
  waiters_.pop_front();
  engine_->schedule_op(0, next, make_trace_tag(kNoNode, TraceTagKind::kGrant));
}

bool Resource::UseAwaiter::await_suspend(std::coroutine_handle<> caller) {
  caller_ = caller;
  t0_ = res_->engine_->now();
  if (!res_->busy_) {
    res_->busy_ = true;
    return serve();
  }
  res_->waiters_.push_back(this);
  ticket_ = res_->engine_->blocked().add(
      {res_->kind_, res_, tag_, res_->engine_->now()});
  return true;
}

bool Resource::UseAwaiter::serve() {
  res_->wait_cycles_ += res_->engine_->now() - t0_;
  if (service_ <= 0) {
    res_->release();
    return false;
  }
  serving_ = true;
  res_->engine_->schedule_op(service_, this);
  return true;
}

void Resource::UseAwaiter::fire(EventOp* op) {
  auto* self = static_cast<UseAwaiter*>(op);
  if (!self->serving_) {
    // Granted after queueing.
    self->res_->engine_->blocked().remove(self->ticket_);
    if (self->serve()) return;
  } else {
    self->res_->release();
  }
  self->caller_.resume();
}

}  // namespace netcache::sim
