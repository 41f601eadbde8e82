/// \file selftest.cpp
/// Self-tests of the benchmark's own machinery (run with
/// `python3 perfbench/run.py --self-test`):
///  - the timing decorators are transparent: a decorated run's RunTrace
///    equals the undecorated run's, on one job of every workload;
///  - the replays reproduce the run, and notice when they do not;
///  - a job that overruns a forced short deadline, stops beating, or whose
///    process dies, is recorded as failed and leaves no child process
///    behind.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <iostream>
#include <string>

#include "layers.hpp"
#include "supervisor.hpp"
#include "workloads.hpp"

using namespace ssamr;
using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

/// Smallest job of each workload: the first one.
void decorators_are_transparent_and_replays_match() {
  for (const std::string& name : workload_names()) {
    Workload plain = make_workload(name, 7);
    Workload decorated = make_workload(name, 7);
    Job& a = plain.jobs.front();
    Job& b = decorated.jobs.front();

    AdaptiveRuntime undecorated(a.cluster, *a.source, *a.partitioner, a.cfg);
    const RunTrace expected = undecorated.run();

    TimedSource source(*b.source);
    TimedPartitioner partitioner(*b.partitioner);
    AdaptiveRuntime timed(b.cluster, source, partitioner, b.cfg);
    const RunTrace got = timed.run();
    check(got == expected, name + ": decorated RunTrace equals undecorated");
    check(trace_digest(got) == trace_digest(expected),
          name + ": digests agree");

    const ReplayStats rs = replay(b.cluster, b.cfg, got, partitioner.captured);
    check(rs.mismatch.empty(),
          name + ": replay reproduces total_time and capacities" +
              (rs.mismatch.empty() ? "" : " (" + rs.mismatch + ")"));
    check(rs.advance_calls == b.cfg.total_iterations,
          name + ": replay advances every iteration");

    RunTrace tampered = got;
    tampered.total_time += Seconds{1e-9};
    check(!replay(b.cluster, b.cfg, tampered, partitioner.captured)
               .mismatch.empty(),
          name + ": replay flags a different total_time");

    std::vector<std::string> errors;
    check(validate_partitions(partitioner.captured, b.cfg,
                              b.partitioner->constraints(), errors) == 0,
          name + ": every captured partition passes the validator");
  }
}

void deadline_and_crash_count_as_failures() {
  const JobFn run = [](int j, const Heartbeat& beat) -> std::string {
    if (j == 1)
      for (;;) ::pause();  // hangs without a beat: the stall limit ends it
    if (j == 2) _exit(7);  // the job's process dies
    if (j == 3)
      for (;;) {  // beats but never finishes: the job limit ends it
        beat();
        ::usleep(50000);
      }
    return "ok" + std::to_string(j);
  };
  const FailFn failed = [](int j, const std::string& reason, double wall) {
    return "failed" + std::to_string(j) + ":" + reason + ":" +
           std::to_string(wall);
  };
  const double t0 = now_s();
  const std::vector<std::string> recs =
      run_sweep(5, Deadlines{.job_s = 1.0, .stall_s = 0.3}, run, failed);
  const double took = now_s() - t0;
  check(recs.size() == 5, "one record per job");
  if (recs.size() != 5) return;
  check(recs[0] == "ok0", "job before the hang succeeds");
  check(recs[1].rfind("failed1:no progress", 0) == 0,
        "silent hung job is a stall failure: " + recs[1]);
  check(recs[2].rfind("failed2:process exited with code 7", 0) == 0,
        "dying job is a failure: " + recs[2]);
  check(recs[3].rfind("failed3:deadline", 0) == 0,
        "beating job past its limit is a deadline failure: " + recs[3]);
  check(recs[4] == "ok4", "job after the failures runs in a fresh child");
  check(took < 5.0, "each hang costs about one deadline");
  errno = 0;
  const pid_t left = ::waitpid(-1, nullptr, WNOHANG);
  check(left == -1 && errno == ECHILD, "no child process survives");
}

}  // namespace

int main() {
  // Fork before anything starts the library's thread pool.
  deadline_and_crash_count_as_failures();
  decorators_are_transparent_and_replays_match();
  std::cout << (g_failures == 0 ? "all self-tests passed"
                                : std::to_string(g_failures) + " failed")
            << '\n';
  return g_failures == 0 ? 0 : 1;
}
