#pragma once
/// \file layers.hpp
/// Per-layer measurement from outside the library.
///
/// The runtime has two injectable seams, WorkloadSource and Partitioner;
/// timing decorators sit on both.  The layers the runtime owns internally
/// (monitor + capacity, execution-model pricing, the HDDA registry) are
/// replayed after the run with the same calls AdaptiveRuntime::run()
/// issues, in its order, and the replay must reproduce the RunTrace
/// exactly — which proves the replayed times describe the same work.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/ssamr.hpp"

namespace perfbench {

/// Monotonic wall seconds.
double now_s();

/// Forwards to a WorkloadSource, timing each call and stamping the entry
/// time of every boxes_for_regrid (consecutive stamps bound a regrid
/// cycle).  `on_regrid`, when set, runs at each boxes_for_regrid entry.
class TimedSource final : public ssamr::WorkloadSource {
 public:
  explicit TimedSource(ssamr::WorkloadSource& inner,
                       std::function<void()> on_regrid = {})
      : inner_(inner), on_regrid_(std::move(on_regrid)) {}
  ssamr::BoxList boxes_for_regrid(int regrid_index) override;
  const ssamr::ParticleField* particles_for_regrid(int regrid_index) override;

  std::vector<double> entry_s;     ///< steady-clock stamp per regrid call
  double boxes_self_s = 0;
  double particles_self_s = 0;
  std::int64_t boxes_out = 0;

 private:
  ssamr::WorkloadSource& inner_;
  std::function<void()> on_regrid_;
};

/// One partition call as the runtime issued it, kept for the output checks
/// and the replay.
struct CapturedPartition {
  ssamr::BoxList boxes;
  std::vector<ssamr::real_t> capacities;
  ssamr::PartitionResult result;
  std::optional<ssamr::ParticleField> particles;
};

/// Forwards to a Partitioner, timing each call and capturing its inputs
/// and result (copies are made outside the timed interval).
class TimedPartitioner final : public ssamr::Partitioner {
 public:
  explicit TimedPartitioner(const ssamr::Partitioner& inner) : inner_(inner) {}
  ssamr::PartitionResult partition(const ssamr::BoxList& boxes,
                                   const std::vector<ssamr::real_t>& capacities,
                                   const ssamr::WorkModel& work) const override;
  std::string name() const override { return inner_.name(); }
  ssamr::PartitionConstraints constraints() const override {
    return inner_.constraints();
  }

  mutable std::vector<CapturedPartition> captured;
  mutable double self_s = 0;
  mutable std::int64_t boxes_in = 0;

 private:
  const ssamr::Partitioner& inner_;
};

/// Self times and counts of the replayed layers.
struct ReplayStats {
  std::int64_t sweeps = 0;
  std::int64_t probes = 0;
  double monitor_self_s = 0;
  std::int64_t advance_calls = 0;
  double advance_self_s = 0;
  std::int64_t migrate_calls = 0;
  double migrate_self_s = 0;
  double sim_other_self_s = 0;  ///< sense + regrid + finish pricing
  std::int64_t events = 0;      ///< EventExecutor::events_processed()
  std::int64_t inserts = 0;
  double hdda_self_s = 0;
  /// Empty when the replay reproduced total_time bit-for-bit and every
  /// sensed capacity vector; otherwise what differed.
  std::string mismatch;
};

/// Replay monitor + capacity, exec-model pricing and the registry refresh
/// of a finished run on `cluster` (built identically to the run's).
ReplayStats replay(const ssamr::Cluster& cluster,
                   const ssamr::RuntimeConfig& cfg, const ssamr::RunTrace& trace,
                   const std::vector<CapturedPartition>& partitions);

/// Seconds the runtime's own per-regrid work pricing takes
/// (RegridRecord::total_work = total_work(boxes, work)), replayed on the
/// captured partitions; with particles it is a visible share of a run.
double time_work_pricing(const std::vector<CapturedPartition>& partitions,
                         const ssamr::RuntimeConfig& cfg);

/// audit::Validator over every captured partition; returns the number of
/// failed audits and appends their summaries to `errors`.
int validate_partitions(const std::vector<CapturedPartition>& partitions,
                        const ssamr::RuntimeConfig& cfg,
                        const ssamr::PartitionConstraints& constraints,
                        std::vector<std::string>& errors);

/// Fold `n` bytes into the FNV-1a hash `h`.
void fnv1a(std::uint64_t& h, const void* data, std::size_t n);

/// FNV-1a digest of total_time, every regrid's assigned_work and the
/// probe-health counters, as 16 hex digits.
std::string trace_digest(const ssamr::RunTrace& trace);

/// Write the Chrome trace JSON and a per-regrid CSV of `trace` under
/// `dir` (file names start with `stem`); returns the bytes written.
std::int64_t export_trace(const ssamr::RunTrace& trace, const std::string& dir,
                          const std::string& stem);

}  // namespace perfbench
