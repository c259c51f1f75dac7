#pragma once
/// \file fabric.hpp
/// \brief Shared-memory transport backing a communicator: one mailbox per
/// rank, tagged FIFO matching, pooled payloads, eager delivery.
///
/// This is the layer below Communicator. A Fabric owns `size` mailboxes
/// and one BufferPool shared by all of them. Every message travels the
/// same way: the sender copies the payload into a pooled buffer and queues
/// it at the destination, so a send never blocks (MPI's buffered send) and
/// no send/recv ordering can deadlock. The matched receive copies out and
/// the buffer returns to the freelist. Relay stages skip both copies by
/// moving the pooled buffer on (Mailbox::deposit).
///
/// Matching is FIFO among messages with the same (source, tag), which
/// gives the same non-overtaking guarantee MPI provides and is what the
/// collective algorithms rely on.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/verify.hpp"

namespace hplx::comm {

/// Matches any source rank in recv.
inline constexpr int kAnySource = -1;

struct MessageEnvelope {
  int src = 0;
  int tag = 0;
  PoolBuffer payload;
};

/// One rank's incoming-message queue.
class Mailbox {
 public:
  /// Queue an envelope; its pooled payload changes owner without a copy.
  void deposit(MessageEnvelope msg);

  /// Block until a message matching (src, tag) is available and return it.
  /// src may be kAnySource. FIFO among matches.
  MessageEnvelope match(int src, int tag);

  /// Non-blocking variant: returns true and fills out if a match exists.
  bool try_match(int src, int tag, MessageEnvelope& out);

  /// Non-destructive probe: true iff a match exists; *bytes (optional)
  /// gets its payload size.
  bool probe(int src, int tag, std::size_t* bytes) const;

  /// Number of queued messages (diagnostics/tests).
  std::size_t pending() const;

  /// Attach the fabric's verifier; `self_rank` is the rank owning this
  /// mailbox (blocked receives register under it).
  void set_verifier(Verifier* v, int self_rank);

  /// Wake any blocked waiter without delivering anything (the verifier's
  /// deadlock abort: woken waiters observe Verifier::aborted and throw).
  void interrupt();

  /// Enumerate queued-but-unconsumed envelopes as (src, tag, bytes) — the
  /// verifier's orphan audit.
  template <class Fn>
  void for_each_queued(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& m : queue_) fn(m.src, m.tag, m.payload.size());
  }

 private:
  /// Verified blocking wait: registers the blocked receive, waits in poll
  /// ticks running the deadlock check, unregisters on wake. Entered and
  /// exited with `lock` held, also when it throws on deadlock abort.
  /// on_block/on_unblock/poll are never invoked while `lock` is held
  /// (lock order: Verifier::blocked_mutex_ before Mailbox::mutex_).
  /// On normal return pred() holds under `lock`.
  template <class Pred>
  void wait_verified(std::unique_lock<std::mutex>& lock, int src, int tag,
                     const char* what, Pred&& pred);

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<MessageEnvelope> queue_;
  Verifier* verifier_ = nullptr;  // guarded by mutex_
  int self_rank_ = -1;
};

/// The transport shared by all ranks of one communicator (and its
/// split-off children, each of which gets its own Fabric and pool).
class Fabric {
 public:
  explicit Fabric(int size);

  /// Runs the verifier's orphan audit (unconsumed queued messages) when
  /// checking is enabled; records land in the verifier, which test code
  /// can keep alive past the fabric via verifier_shared().
  ~Fabric();

  int size() const { return size_; }
  Mailbox& mailbox(int rank);

  /// Attach a Verifier to this fabric and all its mailboxes. Idempotent
  /// and thread-safe — every rank may call it concurrently; the first
  /// caller's config wins.
  void enable_verifier(const Verifier::Config& cfg);

  /// Null when checking is off; call sites pay one pointer test.
  Verifier* verifier() const {
    return verifier_raw_.load(std::memory_order_acquire);
  }

  /// Shared handle for inspection after the fabric dies. Only the results
  /// accessors (report/counts/format_report) are valid once the fabric is
  /// gone — the verifier holds a reference to it otherwise.
  std::shared_ptr<Verifier> verifier_shared() const;

  /// Wake every blocked waiter (mailbox cvs + split cv) without
  /// delivering; used by the verifier's deadlock abort.
  void interrupt_all();

  BufferPool& pool() { return pool_; }
  BufferPool::Stats pool_stats() const { return pool_.stats(); }

  /// Collective coordination scratch used by Communicator::split: the
  /// nth split on this fabric uses slot n. Guarded by mutex_.
  struct SplitSlot {
    std::vector<int> color, key;
    std::vector<int> arrived;
    // Child fabrics keyed by color, plus each rank's (child fabric, rank).
    std::vector<std::shared_ptr<Fabric>> child_of_rank;
    std::vector<int> child_rank_of_rank;
    int arrivals = 0;
    bool ready = false;
  };
  SplitSlot& split_slot(std::uint64_t seq);
  std::mutex& split_mutex() { return split_mutex_; }
  std::condition_variable& split_cv() { return split_cv_; }

 private:
  const int size_;
  // Declared before the mailboxes: envelopes queued in a mailbox hold
  // pool buffers, so the pool must outlive them at destruction.
  BufferPool pool_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  std::mutex split_mutex_;
  std::condition_variable split_cv_;
  std::vector<std::unique_ptr<SplitSlot>> split_slots_;

  mutable std::mutex verifier_mutex_;
  std::shared_ptr<Verifier> verifier_;          // guarded by verifier_mutex_
  std::atomic<Verifier*> verifier_raw_{nullptr};
};

}  // namespace hplx::comm
