#ifndef BIGDANSING_OBS_BOOTSTRAP_H_
#define BIGDANSING_OBS_BOOTSTRAP_H_

#include <string>

namespace bigdansing {

/// Writes `text` to `path`: "-" or "stdout" print it and flush stdout, any
/// other path is truncated and written. A failed fopen, a short fwrite or a
/// failed fclose (or flush) returns false and logs a warning naming the
/// path. Every observability export goes through this one writer.
bool WriteOutput(const std::string& path, const std::string& text);

/// Applies the observability environment variables, so an embedder gets
/// the whole plane from one call (every bench runs it before main()):
///
///   BD_LOG_LEVEL=<level>     logger threshold (InitLoggingFromEnv)
///   BD_TRACE_JSON=<path>     enables the TraceRecorder; Chrome trace export
///   BD_EXPLAIN=1             enables the TraceRecorder; prints the runtime
///                            EXPLAIN tree on flush ("0" or empty = off)
///   BD_LINEAGE_JSONL=<path>  enables the repair lineage ledger
///   BD_QUALITY_JSONL=<path>  enables the data-quality recorder
///   BD_METRICS_JSON=<path>   metrics-registry snapshot export
///   BD_METRICS_PROM=<path>   metrics-registry Prometheus text export
///   BD_OBS_PORT=<port>       live HTTP endpoint (0 = ephemeral); a running
///                            server also enables the trace and quality
///                            recorders and starts the sampler
///   BD_PROFILE_HZ=<hz>       starts the sampling profiler at <hz>
///   BD_PROFILE_FOLDED=<path> starts the sampler (default 97 Hz); folded
///                            stacks export
///
/// Every <path> may be "-" or "stdout". Numbers must parse whole; a
/// malformed value ("8080x") is ignored with a warning. Calling it again is
/// harmless.
void InitObservabilityFromEnv();

/// Writes every export the environment requests: the lineage ledger (only
/// while its recorder is on), the quality run history, both metrics
/// snapshots, the folded stacks, and the Chrome trace and EXPLAIN tree
/// (only when spans exist). The recorders, the sampler and the server keep
/// running, so mid-run flushes are safe. Returns false when any write
/// failed.
bool FlushObservability();

/// FlushObservability(), then stops the sampler and the server. Returns
/// the flush result.
bool ShutdownObservability();

}  // namespace bigdansing

#endif  // BIGDANSING_OBS_BOOTSTRAP_H_
