// map_scale: the paper's Figure 7 at about 16k processes. Synthetic LU
// (near-diagonal), K-means (complex) and DNN (sparse) patterns on all 11
// AWS regions (kappa = 4, so 24 group orders), constraint ratio 0.2.
// One job is GeoDistMapper::map, validate_mapping, then total_cost; the
// runtime, replay and the control loop are bypassed. The traced run also
// probes the threaded runtime (runtime_probe.cpp).

#include <cmath>
#include <exception>

#include "apps/app.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/geodist_mapper.h"
#include "core/pipeline.h"
#include "harness.h"
#include "mapping/cost.h"
#include "mapping/metrics.h"
#include "mapping/problem.h"
#include "mapping/random_mapper.h"
#include "net/calibration.h"
#include "net/cloud.h"

namespace perfbench {
namespace {

using namespace geomap;

constexpr double kConstraintRatio = 0.2;
constexpr int kBaselineDraws = 8;

struct Instance {
  mapping::MappingProblem problem;
  double baseline_cost = 0;  // mean COST of the random draws
  double improvement = NAN;  // set by the first job on this instance
  int orders = 0;
};

class MapScale : public Workload {
 public:
  explicit MapScale(const Config& config) : config_(config) {
    tracer_ = config.tracer;
    const int nodes_per_site = config.smoke ? 24 : 1490;
    const int n = config.smoke ? 256 : 16384;
    const net::CloudTopology topo(
        net::aws2016_profile("c3.8xlarge", nodes_per_site));
    net::CalibrationOptions calib;
    calib.seed = mix_seed(config.seed, 1);
    net::NetworkModel model;
    {
      Scope s(tracer_, "net.calibrate");
      model = net::Calibrator(calib).calibrate(topo).model;
    }
    std::uint64_t salt = 10;
    for (const char* name : {"LU", "K-means", "DNN"}) {
      const apps::App& app = apps::app_by_name(name);
      apps::AppConfig cfg = app.default_config(n);
      cfg.seed = mix_seed(config.seed, salt++);
      trace::CommMatrix comm;
      {
        Scope s(tracer_, "apps.synthetic_pattern");
        comm = app.synthetic_pattern(n, cfg);
      }
      Rng rng(mix_seed(config.seed, salt++));
      ConstraintVector pins = mapping::make_random_constraints(
          n, topo.capacities(), kConstraintRatio, rng);
      Instance& in = instances_.emplace_back();
      in.problem =
          core::make_problem(topo, model, std::move(comm), std::move(pins));
      in.problem.validate();
      const mapping::CostEvaluator eval(in.problem);
      for (int d = 0; d < kBaselineDraws; ++d) {
        Scope s(tracer_, "mapping.random_baseline");
        in.baseline_cost +=
            eval.total_cost(mapping::RandomMapper::draw(in.problem, rng));
      }
      in.baseline_cost /= kBaselineDraws;
    }
  }

  std::size_t cycle() const override { return instances_.size(); }

  std::string run_job(std::size_t i) override {
    Instance& in = instances_[i];
    core::GeoDistMapper mapper;
    Mapping m;
    {
      Scope s(tracer_, "core.map");
      m = mapper.map(in.problem);
    }
    try {
      Scope s(tracer_, "mapping.validate");
      mapping::validate_mapping(in.problem, m);
    } catch (const std::exception& e) {
      return std::string("validate_mapping: ") + e.what();
    }
    double cost = 0;
    {
      Scope s(tracer_, "mapping.total_cost");
      cost = mapping::CostEvaluator(in.problem).total_cost(m);
    }
    const double imp = mapping::improvement_percent(in.baseline_cost, cost);
    if (!std::isfinite(imp)) return "improvement is not finite";
    if (std::isnan(in.improvement)) {
      in.improvement = imp;
      in.orders = mapper.last_orders_evaluated();
    } else if (imp != in.improvement ||
               mapper.last_orders_evaluated() != in.orders) {
      return "mapping of one instance changed between jobs";
    }
    return {};
  }

  double improvement_pct() const override {
    double sum = 0;
    for (const Instance& in : instances_) sum += in.improvement;
    return sum / static_cast<double>(instances_.size());
  }

  std::string layer_metrics(Metrics& out) override {
    // Stage probes, once per instance: the order-search inputs, one
    // heap fill, and the whole map at one worker against the pinned
    // count.
    double nnz = 0, orders = 0, edges = 0, serial = 0, parallel = 0;
    for (const Instance& in : instances_) {
      core::Grouping grouping;
      {
        Scope s(tracer_, "core.group_sites");
        grouping = core::group_sites(in.problem.site_coords, 4);
      }
      std::vector<GroupId> order(static_cast<std::size_t>(grouping.num_groups));
      for (std::size_t g = 0; g < order.size(); ++g)
        order[g] = static_cast<GroupId>(g);
      {
        Scope s(tracer_, "core.fill_for_order");
        (void)core::fill_for_order(in.problem, grouping, order,
                                   core::GeoDistOptions::FillEngine::kHeap);
      }
      core::GeoDistMapper mapper;
      double t0 = now_s();
      (void)mapper.map(in.problem);
      parallel += now_s() - t0;
      const std::size_t pinned = parallel_workers();
      set_parallel_workers(1);
      t0 = now_s();
      {
        Scope s(tracer_, "core.map_serial");
        (void)mapper.map(in.problem);
      }
      serial += now_s() - t0;
      set_parallel_workers(pinned);
      const double in_nnz = static_cast<double>(in.problem.comm.nnz());
      nnz += in_nnz;
      orders += in.orders;
      edges += in.orders * in_nnz;
    }
    const double k = static_cast<double>(instances_.size());
    out["trace.nnz"] = {nnz / k, "count"};
    out["core.orders_evaluated"] = {orders / k, "count"};
    out["core.fill_edges_per_s"] = {edges / parallel, "1/s"};
    out["core.parallel_speedup"] = {serial / parallel, "x"};
    return runtime_probes(config_, tracer_, out);
  }

 private:
  Config config_;
  std::vector<Instance> instances_;
};

}  // namespace

std::unique_ptr<Workload> make_map_scale(const Config& config) {
  return std::make_unique<MapScale>(config);
}

}  // namespace perfbench
