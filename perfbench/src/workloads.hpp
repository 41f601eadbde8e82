#pragma once
/// \file workloads.hpp
/// The benchmark's named workloads: each is a fixed list of adaptive
/// runtime runs ("jobs") built from the workload seed before the first
/// timed run.  A sweep executes every job once, in order; jobs come in
/// (system-sensitive, default) pairs so het_gain_pct can be formed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ssamr.hpp"
#include "supervisor.hpp"

namespace perfbench {

/// One AdaptiveRuntime::run() with everything it needs.
struct Job {
  std::string label;        ///< e.g. "P=32 heterogeneous"
  int pair = 0;             ///< index of the (system, default) pair
  bool system_sensitive = false;
  ssamr::Cluster cluster;
  ssamr::RuntimeConfig cfg;
  std::unique_ptr<ssamr::WorkloadSource> source;
  std::unique_ptr<ssamr::Partitioner> partitioner;
  /// Hash of the TraceConfig behind `source`; 0 for a lattice source that
  /// generates nothing (amr.repeat_frac counts trace calls only).
  std::uint64_t trace_key = 0;
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
  /// When a job counts as hung.
  Deadlines deadlines;
};

/// Names accepted by make_workload, in the order the notes list them.
const std::vector<std::string>& workload_names();

/// Build the workload's inputs from `seed`; equal seeds give equal inputs.
/// Throws ssamr::Error on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// A WorkloadSource that hands out the same prebuilt box list at every
/// regrid: the exp_scale lattice of four 8^3 boxes per rank.
class LatticeSource final : public ssamr::WorkloadSource {
 public:
  explicit LatticeSource(int nprocs);
  ssamr::BoxList boxes_for_regrid(int regrid_index) override;

 private:
  ssamr::BoxList boxes_;
};

/// FNV-1a hash of every TraceConfig field (the memoization key a
/// trace cache would need).
std::uint64_t trace_config_key(const ssamr::TraceConfig& cfg);

}  // namespace perfbench
