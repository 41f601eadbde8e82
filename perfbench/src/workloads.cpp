#include "workloads.hpp"

#include "cluster/fault_plan.hpp"
#include "core/experiment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "layers.hpp"

namespace perfbench {

using namespace ssamr;

namespace {

constexpr int kIterations = 200;

// sensing-faults: two (system, default) pairs at P = 32 per sweep, so
// het_gain_pct and the timings average over two perturbed traces.
constexpr int kFaultProcs = 32;
constexpr int kFaultPairs = 2;
// Dynamic-load timescale, fixed so every seed faces the same load script
// (exp::calibrate_timescale gives ~1190 s for this cluster at P = 32).
constexpr real_t kFaultTau = 1200.0;
// The partitioner matrix's particle cloud.
constexpr std::int64_t kParticleCount = 4096;
constexpr real_t kParticleCost = 50.0;

// A healthy job takes 0.8-3 s on one core and completes a regrid cycle
// at least every 0.15 s; both limits are several times that, so only a
// hang reaches them.
constexpr Deadlines kDeadlines{.job_s = 10.0, .stall_s = 2.0};

/// Uniform draw in [lo, hi) from the stream `state`.
real_t draw(std::uint64_t& state, real_t lo, real_t hi) {
  const std::uint64_t bits = splitmix64(state) >> 11;
  return lo + (hi - lo) * static_cast<real_t>(bits) * 0x1.0p-53;
}

/// Seed stream for (seed, pair, purpose): independent streams per input.
std::uint64_t stream(std::uint64_t seed, int pair, int purpose) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL +
                    static_cast<std::uint64_t>(pair) * 1000003ULL +
                    static_cast<std::uint64_t>(purpose);
  return splitmix64(s);
}

Job make_job(std::string label, int pair, bool system_sensitive,
             Cluster cluster, RuntimeConfig cfg, const std::string& scheme) {
  return Job{.label = std::move(label),
             .pair = pair,
             .system_sensitive = system_sensitive,
             .cluster = std::move(cluster),
             .cfg = cfg,
             .source = nullptr,
             .partitioner = make_partitioner(scheme),
             .trace_key = 0};
}

void set_trace_source(Job& job, const TraceConfig& tcfg) {
  job.source = std::make_unique<TraceWorkloadSource>(tcfg);
  job.trace_key = trace_config_key(tcfg);
}

/// Fig. 7 / Table I: P in {4, 8, 16, 32}, static loads, sense once, bsp.
Workload paper_static() {
  Workload w;
  w.name = "paper-static";
  RuntimeConfig cfg = exp::paper_runtime_config(kIterations, 0);
  cfg.exec_model = ExecModelKind::kBsp;
  const int procs[] = {4, 8, 16, 32};
  for (int i = 0; i < 4; ++i) {
    const int p = procs[i];
    for (const bool het : {true, false}) {
      Cluster cluster = exp::paper_cluster(p);
      exp::apply_static_loads(cluster);
      const std::string scheme = het ? "heterogeneous" : "default";
      Job job = make_job("P=" + std::to_string(p) + " " + scheme, i, het,
                         std::move(cluster), cfg, scheme);
      set_trace_source(job, exp::paper_trace_config());
      w.jobs.push_back(std::move(job));
    }
  }
  return w;
}

/// Dynamic sensing under probe faults, event model, particle cost.
Workload sensing_faults(std::uint64_t seed) {
  Workload w;
  w.name = "sensing-faults";
  for (int pair = 0; pair < kFaultPairs; ++pair) {
    FaultProfile profile;
    profile.probe_timeout_rate = 0.10;
    profile.probe_drop_rate = 0.10;
    profile.stale_windows = 2;
    profile.crash_episodes = 1;
    const FaultPlan plan =
        FaultPlan::scripted(kFaultProcs, Seconds{kFaultTau}, profile,
                            stream(seed, pair, /*purpose=*/1));

    RuntimeConfig cfg = exp::paper_runtime_config(kIterations, 5);
    cfg.exec_model = ExecModelKind::kEvent;
    cfg.monitor.seed = stream(seed, pair, /*purpose=*/2);
    cfg.sensing.capacity_change_threshold = 0.05;
    cfg.work.cost_per_particle = Work{kParticleCost};

    for (const bool het : {true, false}) {
      // Every run gets its own trace: no (TraceConfig, epoch) repeats.
      std::uint64_t ts = stream(seed, pair, het ? 3 : 4);
      TraceConfig tcfg = exp::paper_trace_config();
      tcfg.interface_x0 = draw(ts, 0.23, 0.27);
      tcfg.speed = draw(ts, 0.0285, 0.0315);
      tcfg.amplitude0 = draw(ts, 0.45, 0.55);
      tcfg.growth = draw(ts, 0.11, 0.13);
      tcfg.particles.count = kParticleCount;
      tcfg.particles.seed = splitmix64(ts);

      Cluster cluster = exp::paper_cluster(kFaultProcs);
      exp::apply_static_loads(cluster);
      exp::apply_dynamic_loads(cluster, kFaultTau);
      cluster.set_fault_plan(plan);
      const std::string scheme = het ? "heterogeneous" : "default";
      Job job = make_job("P=32 " + scheme + " trace" + std::to_string(pair),
                         pair, het, std::move(cluster), cfg, scheme);
      set_trace_source(job, tcfg);
      w.jobs.push_back(std::move(job));
    }
  }
  return w;
}

/// Simulator-bound lattice at P = 64 (exact network sim) and P = 256
/// (indexed network sim).
Workload scale_event() {
  Workload w;
  w.name = "scale-event";
  RuntimeConfig cfg = exp::paper_runtime_config(kIterations, 5);
  cfg.exec_model = ExecModelKind::kEvent;
  const int procs[] = {64, 256};
  for (int i = 0; i < 2; ++i) {
    const int p = procs[i];
    for (const bool het : {true, false}) {
      const std::string scheme = het ? "sfc-heterogeneous" : "default";
      Job job = make_job("P=" + std::to_string(p) + " " + scheme, i, het,
                         Cluster::heterogeneous(p, {1.0, 0.75, 1.5, 1.25}),
                         cfg, scheme);
      job.source = std::make_unique<LatticeSource>(p);
      w.jobs.push_back(std::move(job));
    }
  }
  return w;
}

template <class T>
void fnv_value(std::uint64_t& h, const T& v) {
  fnv1a(h, &v, sizeof v);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-static", "sensing-faults", "scale-event"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "paper-static") {
    w = paper_static();
  } else if (name == "sensing-faults") {
    w = sensing_faults(seed);
  } else if (name == "scale-event") {
    w = scale_event();
  } else {
    SSAMR_REQUIRE(false, "unknown workload: " + name);
  }
  w.deadlines = kDeadlines;
  return w;
}

LatticeSource::LatticeSource(int nprocs) {
  // exp_scale's shape: four 8^3 level-0 boxes per rank on a cube-ish
  // lattice, every eighth carrying a half-depth refined child.
  const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
  coord_t side = 1;
  while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
  std::int64_t placed = 0;
  for (coord_t k = 0; k < side && placed < nboxes; ++k)
    for (coord_t j = 0; j < side && placed < nboxes; ++j)
      for (coord_t i = 0; i < side && placed < nboxes; ++i) {
        boxes_.push_back(Box::from_extent(IntVec(i * 8, j * 8, k * 8),
                                          IntVec(8, 8, 8), 0));
        if (placed % 8 == 0)
          boxes_.push_back(Box::from_extent(IntVec(i * 16, j * 16, k * 16),
                                            IntVec(8, 8, 4), 1));
        ++placed;
      }
}

BoxList LatticeSource::boxes_for_regrid(int /*regrid_index*/) {
  return boxes_;
}

std::uint64_t trace_config_key(const TraceConfig& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int d = 0; d < 3; ++d) {
    fnv_value(h, c.domain.lo()[d]);
    fnv_value(h, c.domain.hi()[d]);
  }
  fnv_value(h, c.domain.level());
  fnv_value(h, c.ratio);
  fnv_value(h, c.max_levels);
  fnv_value(h, c.interface_x0);
  fnv_value(h, c.speed);
  fnv_value(h, c.amplitude0);
  fnv_value(h, c.growth);
  fnv_value(h, c.max_amplitude);
  fnv_value(h, c.waves_y);
  fnv_value(h, c.waves_z);
  fnv_value(h, c.band_halfwidth);
  fnv_value(h, c.cluster.efficiency);
  fnv_value(h, c.cluster.min_box_size);
  fnv_value(h, c.cluster.small_box_cells);
  fnv_value(h, c.cluster.max_depth);
  fnv_value(h, c.particles.count);
  fnv_value(h, c.particles.seed);
  fnv_value(h, c.particles.sigma_x);
  fnv_value(h, c.particles.sigma_yz_frac);
  return h;
}

}  // namespace perfbench
