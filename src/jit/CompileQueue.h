//===- jit/CompileQueue.h - Hotness-ordered compile queue --------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe priority queue of pending compile jobs. Ordering is
/// (Hotness descending, submission sequence ascending): the hottest job
/// compiles first, equal-hotness jobs stay FIFO, so a single consumer
/// drains any fixed submission in a deterministic order.
///
/// pop() blocks until a job arrives or the queue is closed; after
/// close(), remaining jobs still drain (graceful shutdown) and pop()
/// returns null only once the queue is empty.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_COMPILEQUEUE_H
#define SXE_JIT_COMPILEQUEUE_H

#include "jit/CompileTask.h"

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

namespace sxe {

/// A queued request plus the promise its future observes.
struct QueuedCompile {
  CompileRequest Request;
  std::promise<CompileResult> Promise;
  uint64_t Seq = 0; ///< Assigned by the queue at push time.
  /// wallNowNanos() at enqueue; the service's queue-wait span and
  /// sxe_queue_wait_seconds histogram measure from here to pop.
  uint64_t EnqueueNanos = 0;
};

/// Thread-safe max-heap of pending compiles (hotness first, FIFO ties).
class CompileQueue {
public:
  /// Enqueues \p Job and wakes one waiting consumer. Returns false — and
  /// leaves ownership with the caller — when the queue is closed.
  bool push(std::unique_ptr<QueuedCompile> &Job);

  /// Blocks for the highest-priority job. Returns null once the queue is
  /// closed *and* drained.
  std::unique_ptr<QueuedCompile> pop();

  /// Non-blocking pop; null when nothing is pending right now.
  std::unique_ptr<QueuedCompile> tryPop();

  /// Stops accepting pushes and wakes all consumers; pending jobs still
  /// drain through pop().
  void close();

  size_t size() const;

private:
  std::unique_ptr<QueuedCompile> popHighestLocked();

  mutable std::mutex Mu;
  std::condition_variable NotEmpty;
  /// Binary max-heap managed with std::push_heap/pop_heap (unique_ptr
  /// elements move; std::priority_queue cannot release ownership).
  std::vector<std::unique_ptr<QueuedCompile>> Heap;
  uint64_t NextSeq = 0;
  bool Closed = false;
};

} // namespace sxe

#endif // SXE_JIT_COMPILEQUEUE_H
