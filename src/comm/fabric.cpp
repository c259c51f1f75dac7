#include "comm/fabric.hpp"

#include <cstring>

#include "util/error.hpp"

namespace hplx::comm {

void Mailbox::deposit(MessageEnvelope msg) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

namespace {
bool matches(const MessageEnvelope& m, int src, int tag) {
  return (src == kAnySource || m.src == src) && m.tag == tag;
}
}  // namespace

template <class Pred>
void Mailbox::wait_verified(std::unique_lock<std::mutex>& lock, int src,
                            int tag, const char* what, Pred&& pred) {
  Verifier* v = verifier_;
  const int self = self_rank_;
  lock.unlock();
  try {
    // throws when already aborted
    v->on_block(self, this, src, tag, what);
  } catch (...) {
    lock.lock();
    throw;
  }
  lock.lock();
  while (!pred()) {
    cv_.wait_for(lock, v->poll_interval());
    if (pred()) break;
    lock.unlock();
    v->poll();
    if (v->aborted()) {
      v->on_unblock(self);
      lock.lock();
      v->throw_aborted();  // lock held, as on every exit
    }
    lock.lock();
  }
  lock.unlock();
  v->on_unblock(self);
  lock.lock();
  // on_unblock ran with the lock dropped. pred only latches false->true
  // (queued envelopes are consumed solely by this mailbox's owning
  // thread), so it still holds.
  const bool satisfied = pred();
  HPLX_CHECK(satisfied);
}

MessageEnvelope Mailbox::match(int src, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (matches(*it, src, tag)) {
        MessageEnvelope out = std::move(*it);
        queue_.erase(it);
        return out;
      }
    }
    if (verifier_ == nullptr) {
      cv_.wait(lock);
    } else {
      wait_verified(lock, src, tag, "recv", [&] {
        for (const auto& m : queue_)
          if (matches(m, src, tag)) return true;
        return false;
      });
    }
  }
}

bool Mailbox::try_match(int src, int tag, MessageEnvelope& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, src, tag)) {
      out = std::move(*it);
      queue_.erase(it);
      return true;
    }
  }
  return false;
}

bool Mailbox::probe(int src, int tag, std::size_t* bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : queue_) {
    if (matches(m, src, tag)) {
      if (bytes != nullptr) *bytes = m.payload.size();
      return true;
    }
  }
  return false;
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void Mailbox::set_verifier(Verifier* v, int self_rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  verifier_ = v;
  self_rank_ = self_rank;
}

void Mailbox::interrupt() { cv_.notify_all(); }

Fabric::Fabric(int size) : size_(size) {
  HPLX_CHECK(size >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
}

Fabric::~Fabric() {
  // End-of-life leak audit: anything still queued was sent but never
  // received. Mailboxes are alive for the whole destructor body.
  if (Verifier* v = verifier()) v->check_orphans();
}

void Fabric::enable_verifier(const Verifier::Config& cfg) {
  std::lock_guard<std::mutex> lock(verifier_mutex_);
  if (verifier_ != nullptr) return;
  verifier_ = std::make_shared<Verifier>(*this, cfg);
  for (int i = 0; i < size_; ++i)
    mailboxes_[static_cast<std::size_t>(i)]->set_verifier(verifier_.get(), i);
  verifier_raw_.store(verifier_.get(), std::memory_order_release);
}

std::shared_ptr<Verifier> Fabric::verifier_shared() const {
  std::lock_guard<std::mutex> lock(verifier_mutex_);
  return verifier_;
}

void Fabric::interrupt_all() {
  for (auto& box : mailboxes_) box->interrupt();
  split_cv_.notify_all();
}

Mailbox& Fabric::mailbox(int rank) {
  HPLX_CHECK(rank >= 0 && rank < size_);
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

Fabric::SplitSlot& Fabric::split_slot(std::uint64_t seq) {
  // Caller holds split_mutex_.
  while (split_slots_.size() <= seq) {
    auto slot = std::make_unique<SplitSlot>();
    slot->color.assign(static_cast<std::size_t>(size_), 0);
    slot->key.assign(static_cast<std::size_t>(size_), 0);
    slot->arrived.assign(static_cast<std::size_t>(size_), 0);
    slot->child_of_rank.assign(static_cast<std::size_t>(size_), nullptr);
    slot->child_rank_of_rank.assign(static_cast<std::size_t>(size_), -1);
    split_slots_.push_back(std::move(slot));
  }
  return *split_slots_[seq];
}

}  // namespace hplx::comm
