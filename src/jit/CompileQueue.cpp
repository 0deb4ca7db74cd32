//===- jit/CompileQueue.cpp - Hotness-ordered compile queue -------------------===//

#include "jit/CompileQueue.h"

#include <algorithm>

using namespace sxe;

namespace {

/// std heap comparator: "less" means lower priority, so the heap's front
/// is the hottest job; ties break toward the earlier sequence number.
bool lowerPriority(const std::unique_ptr<QueuedCompile> &A,
                   const std::unique_ptr<QueuedCompile> &B) {
  if (A->Request.Hotness != B->Request.Hotness)
    return A->Request.Hotness < B->Request.Hotness;
  return A->Seq > B->Seq;
}

} // namespace

bool CompileQueue::push(std::unique_ptr<QueuedCompile> &Job) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Closed)
      return false;
    Job->Seq = NextSeq++;
    Heap.push_back(std::move(Job));
    std::push_heap(Heap.begin(), Heap.end(), lowerPriority);
  }
  NotEmpty.notify_one();
  return true;
}

std::unique_ptr<QueuedCompile> CompileQueue::popHighestLocked() {
  std::pop_heap(Heap.begin(), Heap.end(), lowerPriority);
  std::unique_ptr<QueuedCompile> Job = std::move(Heap.back());
  Heap.pop_back();
  return Job;
}

std::unique_ptr<QueuedCompile> CompileQueue::pop() {
  std::unique_lock<std::mutex> Lock(Mu);
  NotEmpty.wait(Lock, [this] { return !Heap.empty() || Closed; });
  if (Heap.empty())
    return nullptr;
  return popHighestLocked();
}

std::unique_ptr<QueuedCompile> CompileQueue::tryPop() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Heap.empty())
    return nullptr;
  return popHighestLocked();
}

void CompileQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Closed = true;
  }
  NotEmpty.notify_all();
}

size_t CompileQueue::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Heap.size();
}
