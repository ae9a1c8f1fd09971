// Runtime-layer probes of the traced map_scale run: the profiling path the
// synthetic patterns stand in for. The five paper apps at 64 ranks on the
// 4-region x 16 m4.xlarge EC2 deployment (paper Fig. 5), constraint ratio
// 0.2: profile each app on the threaded runtime, map the profiled pattern
// with Geo-distributed, execute that mapping, and replay a captured trace
// of the same execution.
//
// No timed workload runs the threaded runtime. Its 64 rank threads keep
// every vCPU busy and synchronise constantly, so a host that preempts one
// vCPU slows a whole job: on a shared 4-vCPU VM, runs of such jobs moved
// by up to 70% within minutes, far beyond any usable bound.

#include <algorithm>
#include <cmath>
#include <exception>

#include "apps/app.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "harness.h"
#include "mapping/problem.h"
#include "net/calibration.h"
#include "net/cloud.h"
#include "runtime/comm.h"
#include "sim/replay.h"
#include "trace/optrace.h"
#include "trace/profile.h"

namespace perfbench {

using namespace geomap;

std::string runtime_probes(const Config& config, Tracer* tracer,
                           Metrics& out) {
  const net::CloudTopology topo(
      net::aws_experiment_profile(config.smoke ? 4 : 16));
  const int ranks = topo.total_nodes();
  const double gflops = topo.instance().gflops;
  net::CalibrationOptions calib;
  calib.seed = mix_seed(config.seed, 1000);
  const net::NetworkModel model = net::Calibrator(calib).calibrate(topo).model;

  std::vector<double> cpu_per_wall, spread;
  double messages = 0, bytes = 0, gap = 0;
  std::uint64_t salt = 1001;
  for (const apps::App* app : apps::all_apps()) {
    apps::AppConfig cfg = app->default_config(ranks);
    cfg.seed = mix_seed(config.seed, salt++);
    double metric = 0;
    const auto body = [&](runtime::Comm& c) {
      const double v = app->run(c, cfg);
      if (c.rank() == 0) metric = v;
    };

    trace::ApplicationProfile profile(ranks);
    {
      runtime::Runtime rt(model, Mapping(static_cast<std::size_t>(ranks), 0),
                          gflops, &profile);
      Scope s(tracer, "runtime.profile");
      (void)rt.run(body);
    }
    trace::CommMatrix comm;
    {
      Scope s(tracer, "trace.build_comm_matrix");
      comm = profile.build_comm_matrix();
    }
    Rng rng(mix_seed(config.seed, salt++));
    ConstraintVector pins = mapping::make_random_constraints(
        ranks, topo.capacities(), 0.2, rng);
    const mapping::MappingProblem problem =
        core::make_problem(topo, model, std::move(comm), std::move(pins));
    const Mapping geo = core::GeoDistMapper().map(problem);
    try {
      mapping::validate_mapping(problem, geo);
    } catch (const std::exception& e) {
      return app->name() + ": validate_mapping: " + e.what();
    }

    // The same Geo mapping executed three times: CPU use, message counts,
    // and how far the virtual makespan moves between identical runs.
    std::vector<double> makespans;
    for (int r = 0; r < 3; ++r) {
      runtime::Runtime rt(model, geo, gflops);
      runtime::RunResult result;
      const double cpu0 = process_cpu_s();
      const double t0 = now_s();
      {
        Scope s(tracer, "runtime.exec");
        result = rt.run(body);
      }
      cpu_per_wall.push_back((process_cpu_s() - cpu0) / (now_s() - t0));
      if (!std::isfinite(metric) || !std::isfinite(result.makespan) ||
          !(result.makespan > 0))
        return app->name() + ": app metric or makespan not finite";
      makespans.push_back(result.makespan);
      if (r == 0) {
        for (const runtime::RankStats& rs : result.ranks) {
          messages += static_cast<double>(rs.messages_sent);
          bytes += rs.bytes_sent;
        }
      }
    }
    const auto [lo, hi] = std::minmax_element(makespans.begin(), makespans.end());
    spread.push_back(100.0 * (*hi - *lo) / median(makespans));

    trace::OpTraceLog ops(ranks);
    runtime::Runtime rt(model, geo, gflops);
    rt.capture_ops(&ops);
    const double live = rt.run(body).makespan;
    double replayed = 0;
    {
      Scope s(tracer, "sim.replay_ops");
      replayed = sim::replay_ops(ops, model, geo).makespan;
    }
    gap += 100.0 * std::abs(replayed - live) / live;
  }
  const double k = static_cast<double>(apps::all_apps().size());
  out["runtime.cpu_per_wall"] = {median(cpu_per_wall), "x"};
  out["runtime.messages"] = {messages / k, "count"};
  out["runtime.bytes"] = {bytes / k, "B"};
  out["runtime.makespan_spread_pct"] = {median(spread), "%"};
  out["sim.replay_gap_pct"] = {gap / k, "%"};
  return {};
}

}  // namespace perfbench
