//===- jit/CompileService.h - Multi-threaded compile service -----*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent, cache-fronted front end over runInstrumentedPipeline:
/// a hotness-ordered CompileQueue feeding N worker threads, each running
/// the full Figure 5 pipeline over its own module with its own PassStats
/// registry (no shared mutable state on the compile path), fronted by an
/// optional content-addressed CodeCache.
///
///   enqueue(request) -> std::future<CompileResult>
///
/// Workers park on a condition variable when idle and drain the queue on
/// shutdown (graceful: every accepted request's future is fulfilled).
/// With Jobs = 0 the service runs in deterministic inline mode — enqueue
/// compiles synchronously on the caller's thread — which is the reference
/// schedule the parallel-determinism tests compare against.
///
/// Per-run PassStats are merged into a service-wide aggregate under a
/// lock after each compile (per-thread stats merged on completion; see
/// pm/PassStats.h), and cache/service counters are reported through the
/// same `sxe.pass-stats.v1` vocabulary under the pseudo-pass names
/// `compile-service` and `code-cache`.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_JIT_COMPILESERVICE_H
#define SXE_JIT_COMPILESERVICE_H

#include "jit/CodeCache.h"
#include "jit/CompileQueue.h"
#include "jit/CompileTask.h"
#include "jit/PersistentCache.h"
#include "obs/EventLog.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sxe {

struct CompileServiceOptions {
  /// Worker threads. 0 = deterministic inline mode: enqueue() compiles on
  /// the calling thread before returning (futures are ready immediately).
  unsigned Jobs = 1;
  /// Optional shared artifact cache (not owned; must outlive the
  /// service). Null disables caching.
  CodeCache *Cache = nullptr;
  /// Optional persistent on-disk tier under the in-memory cache (not
  /// owned; must outlive the service). Probed after an in-memory miss; a
  /// hit is promoted into Cache, a fresh compile is written through to
  /// both tiers. Null disables the tier.
  PersistentCache *Persistent = nullptr;
  /// Optional trace collector (not owned; thread-safe). Workers label
  /// their tracks "worker-N" and emit queue-wait / cache-probe / compile
  /// spans per request; the collector is also threaded into every
  /// pipeline run for per-pass spans.
  TraceCollector *Trace = nullptr;
  /// Optional metrics registry (not owned). The service feeds
  /// sxe_compiles_total, sxe_cache_hits_total, sxe_compile_failures_total,
  /// sxe_queue_depth, sxe_compile_latency_seconds, sxe_queue_wait_seconds.
  /// Traced requests additionally stamp their trace id as the latency
  /// histograms' bucket exemplars.
  MetricsRegistry *Metrics = nullptr;
  /// Optional structured event log (not owned; thread-safe). The service
  /// emits deadline_expire and cache_tier lifecycle events carrying each
  /// request's TraceContext.
  EventLog *Events = nullptr;
  /// Collect structured optimization remarks during each pipeline run and
  /// store them in the CompiledCode artifact (cache hits replay them).
  bool CollectRemarks = false;
};

/// Service-wide counter snapshot.
struct CompileServiceStats {
  uint64_t Submitted = 0;
  uint64_t Compiled = 0;  ///< Pipeline actually ran.
  uint64_t CacheHits = 0; ///< Served from the in-memory code cache.
  uint64_t PersistentHits = 0; ///< Served from the on-disk tier.
  uint64_t Failed = 0;    ///< Parse or verify-each failures.
  /// Requests refused without compiling: enqueue after shutdown(), plus
  /// serve-layer load shedding reported through countRejected().
  uint64_t Rejected = 0;
  /// Requests whose deadline had passed before a worker reached them.
  uint64_t DeadlineMisses = 0;
  /// Sum of per-run PassStats across every compiled request.
  PassStats Aggregate;
};

/// A multi-threaded compilation server over the instrumented pipeline.
class CompileService {
public:
  explicit CompileService(CompileServiceOptions Options = {});

  /// Drains the queue and joins the workers (graceful shutdown).
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Submits \p Request; the future carries the result. In inline mode
  /// the compile happens before this returns. After shutdown() the future
  /// holds an Ok=false result without being queued.
  std::future<CompileResult> enqueue(CompileRequest Request);

  /// Stops accepting work, finishes what is queued, joins the workers.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Copy of the service counters and the merged per-pass aggregate.
  CompileServiceStats stats() const;

  /// Accounts one refused request (Rejected counter + sxe_rejects_total).
  /// The serve layer's admission control calls this for every load-shed
  /// rejection so shutdown refusals and overload refusals share one
  /// ledger; enqueue-after-shutdown calls it internally.
  void countRejected();

  /// The cache handed in at construction (may be null).
  CodeCache *cache() const { return Options.Cache; }

  /// The persistent tier handed in at construction (may be null).
  PersistentCache *persistent() const { return Options.Persistent; }

  unsigned jobs() const { return Options.Jobs; }

private:
  void workerLoop(unsigned WorkerIndex);
  CompileResult compileOne(CompileRequest &Request);

  /// Resolved metric handles (null when Options.Metrics is null);
  /// registered once at construction so the compile path never takes the
  /// registry mutex.
  struct MetricHandles {
    Counter *Compiles = nullptr;
    Counter *CacheHits = nullptr;
    Counter *PersistentHits = nullptr;
    Counter *Failures = nullptr;
    Counter *Rejects = nullptr;
    Counter *DeadlineMisses = nullptr;
    Gauge *QueueDepth = nullptr;
    Histogram *CompileLatency = nullptr;
    Histogram *QueueWait = nullptr;
  };

  CompileServiceOptions Options;
  MetricHandles Metrics;
  CompileQueue Queue;
  std::vector<std::thread> Workers;

  mutable std::mutex StatsMu;
  CompileServiceStats Counters;

  std::mutex ShutdownMu;
  bool ShutDown = false;
};

} // namespace sxe

#endif // SXE_JIT_COMPILESERVICE_H
