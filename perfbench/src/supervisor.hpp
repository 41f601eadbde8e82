#pragma once
/// \file supervisor.hpp
/// Runs a sweep of jobs in a forked child process under two wall
/// deadlines per job: one on the whole job and one on the time between
/// its heartbeats (a job beats at every regrid, so a livelocked job is
/// caught after one stall interval, not after the full job deadline).  A
/// job that misses a deadline or crashes its process is recorded as
/// failed, the child is killed and reaped, and a fresh child continues
/// with the next job — so a hang leaves no process behind.
///
/// The caller's process must not have started the library's thread pool:
/// a forked child has only the forking thread, so each child sizes its
/// own pool from SSAMR_THREADS on first use.

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Reports progress from inside a running job; restarts the stall clock.
using Heartbeat = std::function<void()>;

/// Executes job `j` in the child and returns its record (one line of
/// JSON, no newline).
using JobFn = std::function<std::string(int j, const Heartbeat& beat)>;

/// Builds the record of a job that failed with `reason` after `wall_s`.
using FailFn =
    std::function<std::string(int j, const std::string& reason, double wall_s)>;

struct Deadlines {
  double job_s = 0;    ///< wall limit of one job
  double stall_s = 0;  ///< wall limit between two heartbeats of a job
};

/// Run jobs 0..njobs-1 in order; returns one record per job, in order.
std::vector<std::string> run_sweep(int njobs, const Deadlines& deadlines,
                                   const JobFn& run, const FailFn& failed);

}  // namespace perfbench
