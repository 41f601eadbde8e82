/// \file runner.cpp
/// Benchmark runner: builds one workload's inputs, runs its sweep of
/// AdaptiveRuntime::run() jobs under per-job deadlines for the requested
/// wall time, checks every run's outputs outside the timed window, and
/// prints one JSON record per line (setup, one per job, end).  run.py
/// aggregates the records into the metrics.
///
///   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
///                    [--export-dir DIR]
///
/// --trace 0 runs whole sweeps until S seconds have passed; --trace 1 runs
/// one sweep and adds the per-layer replays and the export.  Both run at
/// SSAMR_THREADS = 1: on a shared machine the pool's fork-join waits on the
/// slowest core, which roughly tripled the run-to-run spread at 2 threads.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "supervisor.hpp"
#include "workloads.hpp"

using namespace ssamr;
using namespace perfbench;

namespace {

constexpr std::size_t kSetupMinRepeats = 101;
constexpr double kSetupMinSeconds = 0.25;

/// Minimal JSON object writer (one line, fixed key order).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& strs(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + quote(v[i]);
    return raw(key, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& v) {
    std::string s = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        s += '\\';
        s += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        s += ' ';
      } else {
        s += c;
      }
    }
    return s + "\"";
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + value;
    return *this;
  }
  std::string body_;
};

JsonObject job_header(const Job& job, int index) {
  JsonObject o;
  o.integer("job", index)
      .str("label", job.label)
      .integer("pair", job.pair)
      .boolean("system", job.system_sensitive);
  return o;
}

/// One AdaptiveRuntime::run() plus its checks; executes in the child.
std::string run_job(Job& job, int index, bool traced,
                    const std::string& export_dir, const Heartbeat& beat) {
  TimedSource source(*job.source, beat);
  TimedPartitioner partitioner(*job.partitioner);

  const double w0 = now_s();
  AdaptiveRuntime runtime(job.cluster, source, partitioner, job.cfg);
  const double r0 = now_s();
  const RunTrace trace = runtime.run();
  const double w1 = now_s();

  // ---- outside the timed window ----
  beat();
  std::vector<std::string> errors;
  validate_partitions(partitioner.captured, job.cfg,
                      job.partitioner->constraints(), errors);
  if (trace.iterations != job.cfg.total_iterations)
    errors.push_back("run stopped after " + std::to_string(trace.iterations) +
                     " iterations");

  std::vector<double> cycles_ms;
  for (std::size_t i = 1; i < source.entry_s.size(); ++i)
    cycles_ms.push_back((source.entry_s[i] - source.entry_s[i - 1]) * 1e3);

  JsonObject o = job_header(job, index);
  o.integer("iterations", trace.iterations)
      .num("wall_s", w1 - w0)
      .num("total_time", trace.total_time.value())
      .str("digest", trace_digest(trace))
      .nums("cycles_ms", cycles_ms)
      .integer("timeouts", trace.health.timeouts)
      .integer("failures", trace.health.failures)
      .integer("quarantines", trace.health.quarantines);

  if (traced) {
    std::int64_t splits = 0;
    for (const CapturedPartition& c : partitioner.captured)
      splits += c.result.splits;
    const ReplayStats rs = replay(job.cluster, job.cfg, trace,
                                  partitioner.captured);
    if (!rs.mismatch.empty()) errors.push_back("replay: " + rs.mismatch);
    beat();
    const double e0 = now_s();
    const std::int64_t bytes =
        export_trace(trace, export_dir, "job" + std::to_string(index));
    const double export_s = now_s() - e0;

    char key[17];
    std::snprintf(key, sizeof key, "%016llx",
                  static_cast<unsigned long long>(job.trace_key));
    o.num("run_s", w1 - r0)
        .str("trace_key", job.trace_key ? key : "")
        .integer("amr_calls", static_cast<std::int64_t>(source.entry_s.size()))
        .num("amr_self_s", source.boxes_self_s)
        .num("amr_particles_self_s", source.particles_self_s)
        .num("amr_work_self_s",
             time_work_pricing(partitioner.captured, job.cfg))
        .integer("amr_boxes_out", source.boxes_out)
        .integer("partition_calls",
                 static_cast<std::int64_t>(partitioner.captured.size()))
        .num("partition_self_s", partitioner.self_s)
        .integer("partition_boxes_in", partitioner.boxes_in)
        .integer("partition_splits", splits)
        .integer("monitor_sweeps", rs.sweeps)
        .integer("monitor_probes", rs.probes)
        .num("monitor_self_s", rs.monitor_self_s)
        .integer("sim_advance_calls", rs.advance_calls)
        .num("sim_advance_self_s", rs.advance_self_s)
        .integer("sim_migrate_calls", rs.migrate_calls)
        .num("sim_migrate_self_s", rs.migrate_self_s)
        .num("sim_other_self_s", rs.sim_other_self_s)
        .integer("sim_events", rs.events)
        .integer("hdda_inserts", rs.inserts)
        .num("hdda_self_s", rs.hdda_self_s)
        .num("export_self_s", export_s)
        .integer("export_bytes", bytes);
  }
  o.boolean("ok", errors.empty())
      .str("reason", errors.empty() ? "" : "output check failed")
      .strs("errors", errors);
  return o.text();
}

std::string failed_job(const Job& job, int index, const std::string& reason,
                       double wall_s) {
  JsonObject o = job_header(job, index);
  o.integer("iterations", 0)
      .num("wall_s", wall_s)
      .boolean("ok", false)
      .str("reason", reason)
      .strs("errors", {reason});
  return o.text();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  std::string export_dir = ".bench_build/export";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.traced = v == "1";
    else if (k == "--export-dir") a.export_dir = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    // Read by each child's thread pool; this process never starts one.
    const int threads = 1;
    ::setenv("SSAMR_THREADS", std::to_string(threads).c_str(), 1);

    // Set-up: build every cluster, load script, fault plan, trace source
    // and partitioner.  One build takes microseconds, so it is repeated
    // for a while and setup_s is the median: the first builds run while
    // the core is still ramping up from idle.
    std::vector<double> setup_s;
    Workload w;
    const double setup_start = now_s();
    while (setup_s.size() < kSetupMinRepeats ||
           now_s() - setup_start < kSetupMinSeconds) {
      const double t0 = now_s();
      Workload built = make_workload(args.workload, args.seed);
      setup_s.push_back(now_s() - t0);
      w = std::move(built);  // frees the previous build outside the timing
    }

    JsonObject setup;
    setup.str("kind", "setup")
        .str("workload", w.name)
        .integer("seed", static_cast<std::int64_t>(args.seed))
        .integer("threads", threads)
        .integer("jobs", static_cast<std::int64_t>(w.jobs.size()))
        .num("job_deadline_s", w.deadlines.job_s)
        .num("stall_deadline_s", w.deadlines.stall_s)
        .num("setup_s", median(setup_s));
    std::cout << setup.text() << std::endl;

    const int njobs = static_cast<int>(w.jobs.size());
    const JobFn run = [&](int j, const Heartbeat& beat) {
      return run_job(w.jobs[static_cast<std::size_t>(j)], j, args.traced,
                     args.export_dir, beat);
    };
    const FailFn failed = [&](int j, const std::string& reason, double wall) {
      return failed_job(w.jobs[static_cast<std::size_t>(j)], j, reason, wall);
    };

    const double start = now_s();
    int sweeps = 0;
    do {
      for (const std::string& rec : run_sweep(njobs, w.deadlines, run, failed))
        std::cout << "{\"kind\":\"job\",\"sweep\":" << sweeps << ","
                  << rec.substr(1) << '\n';
      ++sweeps;
    } while (!args.traced && now_s() - start < args.seconds);

    rusage self{}, children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    JsonObject end;
    end.str("kind", "end")
        .integer("sweeps", sweeps)
        .num("elapsed_s", now_s() - start)
        .integer("peak_rss_kb", std::max(self.ru_maxrss, children.ru_maxrss));
    std::cout << end.text() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 2;
  }
}
