//===- obs/TraceContext.h - Request-scoped trace identity --------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The identity a request carries across process boundaries so its
/// client-side span, its daemon-side spans (queue wait, cache probes,
/// compile), its structured lifecycle events (obs/EventLog.h), its
/// flight-recorder entries (obs/FlightRecorder.h), and its latency
/// exemplars (obs/Metrics.h) can all be stitched back into one story:
///
///   - TraceId: a 64-bit id minted by whoever first sees the request
///     (normally the client; the daemon mints one for id-less legacy
///     clients so every served request is traceable). Rendered as 16
///     lowercase hex digits on the wire and in every artifact.
///   - RequestId: the daemon's own dense sequence number, assigned at
///     receipt. Cheap to log from a signal handler and unique within one
///     daemon lifetime, which is exactly the flight recorder's scope.
///
/// Zero means "absent" for both ids, which is also the wire-compat story:
/// `sxe.serve.v1` frames from clients that predate tracing simply carry
/// no id fields and decode to zeros.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_TRACECONTEXT_H
#define SXE_OBS_TRACECONTEXT_H

#include <cstdint>
#include <string>

namespace sxe {

/// The pair of ids a request is correlated by. Copied by value through
/// every serving layer; plain data, no ownership.
struct TraceContext {
  uint64_t TraceId = 0;   ///< Cross-process correlation id; 0 = absent.
  uint64_t RequestId = 0; ///< Daemon-assigned sequence number; 0 = absent.

  bool traced() const { return TraceId != 0; }
};

/// Mints a fresh, non-zero, process-unique trace id. Mixes wall clock,
/// pid, and a process-wide counter through a 64-bit finalizer, so
/// concurrent clients minting at the same nanosecond still diverge.
/// Thread-safe and allocation-free.
uint64_t mintTraceId();

/// Renders \p TraceId as the canonical 16-digit lowercase hex form used
/// on the wire and in artifacts ("00c0ffee..."). The one formatter for
/// every 64-bit id the project prints this way: trace ids, IR hashes and
/// persistent-cache checksums and file names.
std::string traceIdHex(uint64_t TraceId);

/// Parses the canonical hex form (1-16 hex digits). Returns false on
/// empty input or any non-hex character; \p Out is untouched on failure.
bool parseTraceIdHex(const std::string &Text, uint64_t &Out);

} // namespace sxe

#endif // SXE_OBS_TRACECONTEXT_H
