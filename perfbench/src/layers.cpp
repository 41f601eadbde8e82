#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "sim/event_executor.hpp"
#include "util/csv.hpp"

namespace perfbench {

using namespace ssamr;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

BoxList TimedSource::boxes_for_regrid(int regrid_index) {
  if (on_regrid_) on_regrid_();
  const double t0 = now_s();
  entry_s.push_back(t0);
  BoxList boxes = inner_.boxes_for_regrid(regrid_index);
  boxes_self_s += now_s() - t0;
  boxes_out += static_cast<std::int64_t>(boxes.size());
  return boxes;
}

const ParticleField* TimedSource::particles_for_regrid(int regrid_index) {
  const double t0 = now_s();
  const ParticleField* field = inner_.particles_for_regrid(regrid_index);
  particles_self_s += now_s() - t0;
  return field;
}

PartitionResult TimedPartitioner::partition(
    const BoxList& boxes, const std::vector<real_t>& capacities,
    const WorkModel& work) const {
  const double t0 = now_s();
  PartitionResult result = inner_.partition(boxes, capacities, work);
  self_s += now_s() - t0;
  boxes_in += static_cast<std::int64_t>(boxes.size());
  CapturedPartition c{boxes, capacities, result, std::nullopt};
  if (work.particles != nullptr) c.particles = *work.particles;
  captured.push_back(std::move(c));
  return result;
}

namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string dec(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

ReplayStats replay(const Cluster& cluster, const RuntimeConfig& cfg,
                   const RunTrace& trace,
                   const std::vector<CapturedPartition>& partitions) {
  ReplayStats st;
  ResourceMonitor monitor(cluster, cfg.monitor);
  const CapacityCalculator calc(cfg.weights);
  const std::unique_ptr<ExecutionModel> model =
      make_execution_model(cfg.exec_model, cluster, cfg.executor);
  Hdda registry;
  const std::int64_t cell_bytes =
      static_cast<std::int64_t>(cfg.executor.ncomp) *
      cfg.executor.bytes_per_value * cfg.executor.time_levels;

  Seconds t{0};
  std::vector<real_t> caps;
  std::size_t next_sense = 0;
  auto fail = [&](const std::string& what) {
    if (st.mismatch.empty()) st.mismatch = what;
  };

  // AdaptiveRuntime::stage_sense (+ stage_adopt_capacities).
  auto sense = [&](int iteration, bool initial) {
    double w0 = now_s();
    const SweepResult sweep = monitor.probe_all(t);
    const std::vector<real_t> fresh = calc.relative_capacities(sweep.estimates);
    st.monitor_self_s += now_s() - w0;
    ++st.sweeps;
    st.probes += cluster.size();
    if (!initial || cfg.sensing.charge_initial_sweep) {
      w0 = now_s();
      t += model->sense(t, sweep.overhead_s, iteration);
      st.sim_other_self_s += now_s() - w0;
    }
    if (initial || sweep.health_event()) {
      caps = fresh;
    } else {
      real_t worst_shift = 0;
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        const real_t base = std::max(caps[k], real_t{1e-9});
        worst_shift = std::max(worst_shift, std::abs(fresh[k] - caps[k]) / base);
      }
      if (worst_shift >= cfg.sensing.capacity_change_threshold) caps = fresh;
    }
    const SenseRecord rec{iteration, t, caps};
    if (next_sense >= trace.senses.size() || !(trace.senses[next_sense] == rec))
      fail("sense record " + std::to_string(next_sense) + " (iteration " +
           std::to_string(iteration) + ") differs from the run's");
    ++next_sense;
  };

  sense(0, /*initial=*/true);
  PartitionResult current;
  std::size_t next_regrid = 0;
  for (int iter = 0; iter < cfg.total_iterations; ++iter) {
    if (cfg.sensing.interval > 0 && iter > 0 && iter % cfg.sensing.interval == 0)
      sense(iter, /*initial=*/false);

    if (next_regrid < trace.regrids.size() &&
        trace.regrids[next_regrid].iteration == iter) {
      if (next_regrid >= partitions.size()) {
        fail("more regrids than captured partitions");
        break;
      }
      const CapturedPartition& cp = partitions[next_regrid];
      if (cp.capacities != caps)
        fail("partition " + std::to_string(next_regrid) +
             " saw other capacities than the replayed monitor");
      double w0 = now_s();
      const Seconds t_regrid = model->regrid(t, cp.boxes.size(), iter);
      st.sim_other_self_s += now_s() - w0;
      w0 = now_s();
      const Seconds t_migrate = model->migrate(current, cp.result, t);
      st.migrate_self_s += now_s() - w0;
      ++st.migrate_calls;
      t += t_regrid + t_migrate;

      w0 = now_s();
      registry.clear();
      for (const BoxAssignment& a : cp.result.assignments)
        registry.insert(a.box, a.owner, a.box.cells() * cell_bytes);
      st.hdda_self_s += now_s() - w0;
      st.inserts += static_cast<std::int64_t>(cp.result.assignments.size());

      current = cp.result;
      ++next_regrid;
    }

    const double w0 = now_s();
    const StepCost step = model->advance(current, t, iter);
    st.advance_self_s += now_s() - w0;
    ++st.advance_calls;
    t += step.elapsed;
  }
  RunTrace scratch;
  const double w0 = now_s();
  model->finish(scratch, t);
  st.sim_other_self_s += now_s() - w0;

  if (next_regrid != trace.regrids.size())
    fail("replay saw " + std::to_string(next_regrid) + " of " +
         std::to_string(trace.regrids.size()) + " regrids");
  if (next_sense != trace.senses.size())
    fail("replay saw " + std::to_string(next_sense) + " of " +
         std::to_string(trace.senses.size()) + " senses");
  if (t != trace.total_time)
    fail("total_time differs: replay " + hex(t.value()) + " vs run " +
         hex(trace.total_time.value()));
  if (const auto* ev = dynamic_cast<const sim::EventExecutor*>(model.get()))
    st.events = static_cast<std::int64_t>(ev->events_processed());
  return st;
}

double time_work_pricing(const std::vector<CapturedPartition>& partitions,
                         const RuntimeConfig& cfg) {
  double self_s = 0;
  for (const CapturedPartition& cp : partitions) {
    WorkModel work = cfg.work;
    work.particles = cp.particles ? &*cp.particles : nullptr;
    const double t0 = now_s();
    const real_t total = total_work(cp.boxes, work);
    self_s += now_s() - t0;
    (void)total;
  }
  return self_s;
}

int validate_partitions(const std::vector<CapturedPartition>& partitions,
                        const RuntimeConfig& cfg,
                        const PartitionConstraints& constraints,
                        std::vector<std::string>& errors) {
  int failed = 0;
  const audit::Validator validator;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const CapturedPartition& cp = partitions[i];
    WorkModel work = cfg.work;
    work.particles = cp.particles ? &*cp.particles : nullptr;
    const audit::AuditReport report = validator.validate_partition(
        cp.boxes, cp.result, cp.capacities, work, constraints);
    if (!report.ok()) {
      ++failed;
      errors.push_back("partition " + std::to_string(i) + ": " +
                       report.summary());
    }
  }
  return failed;
}

void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

namespace {

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv1a(h, &bits, sizeof bits);
}

}  // namespace

std::string trace_digest(const RunTrace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_double(h, trace.total_time.value());
  for (const RegridRecord& r : trace.regrids)
    for (const real_t w : r.assigned_work) fnv_double(h, w);
  const ProbeHealth& ph = trace.health;
  for (const int c : {ph.ok, ph.stale, ph.timeouts, ph.failures,
                      ph.quarantines, ph.readmissions, ph.forced_repartitions})
    fnv1a(h, &c, sizeof c);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::int64_t export_trace(const RunTrace& trace, const std::string& dir,
                          const std::string& stem) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const fs::path json = fs::path(dir) / (stem + ".json");
  const fs::path csv = fs::path(dir) / (stem + ".csv");
  sim::write_chrome_trace_file(json.string(), trace);
  {
    CsvWriter out(csv.string(), {"iteration", "regrid_index", "vtime_s",
                                 "num_boxes", "splits", "total_work",
                                 "max_imbalance_pct"});
    for (const RegridRecord& r : trace.regrids) {
      const real_t worst =
          r.imbalance_pct.empty()
              ? 0
              : *std::max_element(r.imbalance_pct.begin(), r.imbalance_pct.end());
      out.add_row({std::to_string(r.iteration), std::to_string(r.regrid_index),
                   dec(r.vtime.value()), std::to_string(r.num_boxes),
                   std::to_string(r.splits), dec(r.total_work.value()),
                   dec(worst)});
    }
  }
  return static_cast<std::int64_t>(fs::file_size(json) + fs::file_size(csv));
}

}  // namespace perfbench
