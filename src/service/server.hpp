// Long-running verification server over a line protocol (stdin/stdout by
// default: `julie serve`). One scheduler, one pool; requests race their
// portfolios concurrently and verdicts stream back as they complete, so
// responses are NOT in request order — they carry the job id instead.
//
// Protocol (one request or reply per line):
//
//   client -> server
//     CHECK <model> [engines=E1,E2,..] [max-seconds=S] [max-states=N]
//                   [expect=V]          # same grammar as a manifest line;
//                                       # a built-in spec its family cannot
//                                       # build (asat:3, foo:3) is an ERR
//     STATS                             # live metrics snapshot
//     JOBS                              # per-job live state
//     HEALTH                            # liveness probe
//     QUIT                              # drain outstanding jobs, then exit
//
//   server -> client
//     READY <pool-threads> <engines-csv>           # once, at startup
//     JOB <id>                                     # ack: CHECK was accepted
//     ERR <message>                                # the CHECK was malformed:
//                                                  #   "line N: ..." names the
//                                                  #   session line
//     VERDICT <id> <verdict> winner=<w> seconds=<s> cancel-latency=<s>
//     STATS <one-line JSON>                        # uptime, job counts,
//                                                  #   queue depth, peak RSS,
//                                                  #   per-engine wins/
//                                                  #   cancels, histogram
//                                                  #   percentiles
//     JOBS <one-line JSON array>                   # [{id,model,state,...}]
//     HEALTH <one-line JSON>                       # {"status":"ok",...}
//     BYE <jobs-completed>                         # once, after QUIT / EOF
//
// The net loads on a pool worker, so a CHECK naming a file that cannot be
// read is acked with JOB and answered by an "error" VERDICT carrying the
// loader's message.
//
// A finished job keeps only its verdict record (id, model, verdict, winner,
// error, expect match, seconds, cancel latency): the VERDICT line is printed
// from the full result in the scheduler's on_complete, after which the net,
// the job's metrics registry and the racer outcomes are freed. JOBS lists
// every job of the session, finished ones from their records, so the
// server's memory grows by a few hundred bytes per job served.
//
// STATS/JOBS/HEALTH are answered inline by the serving thread from the
// scheduler's introspection surface (relaxed atomics + leaf locks), so they
// return immediately even while slow jobs are racing — the protocol test
// proves a reply arrives while a job is still blocked.
//
// EOF on the input behaves like QUIT. Replies are serialized through one
// output mutex because VERDICT lines are pushed from pool worker threads.
#pragma once

#include <iosfwd>

#include "service/scheduler.hpp"

namespace gpo::service {

struct ServerOptions {
  std::size_t pool_threads = 0;  // 0 = hardware concurrency
  /// nullptr = default_engine_registry(); tests inject synthetic engines.
  const EngineRegistry* registry = nullptr;
  /// Structured JSONL event log for job lifecycle records; may be null.
  /// Must outlive the serve() call.
  obs::EventLog* events = nullptr;
  /// > 0: run a progress heartbeat over the scheduler's service metrics at
  /// this interval (stderr), like `julie --progress`.
  double progress_secs = 0;
};

/// Runs the serve loop until QUIT or EOF; returns the number of jobs
/// completed. Blocks the calling thread (verdict pushes happen on the
/// scheduler's workers).
std::size_t serve(std::istream& in, std::ostream& out,
                  const ServerOptions& options = {});

}  // namespace gpo::service
