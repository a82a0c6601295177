#include "replay.hpp"

#include <algorithm>
#include <utility>

#include "cluster/fc_multilevel.hpp"
#include "cluster/ppa_costs.hpp"
#include "cts/cts.hpp"
#include "hier/dendrogram.hpp"
#include "place/floorplan.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "place/model.hpp"
#include "place/sharded.hpp"
#include "sta/activity.hpp"
#include "sta/power.hpp"
#include "sta/sta.hpp"
#include "vpr/vpr.hpp"

namespace flowbench {

namespace {

using fault::FlowError;
template <typename T>
using Result = fault::Expected<T, FlowError>;

Result<ReplayPlacement> fail(FlowError error) {
  return fault::Unexpected<FlowError>(std::move(error));
}

void note_early_stop(const std::string& code, const char* what) {
  if (!code.empty()) {
    fault::record_degradation({"place.solve", code, "early-stop", what});
  }
}

place::Floorplan make_floorplan(netlist::Netlist& nl, const flow::FlowOptions& options) {
  place::FloorplanOptions fpo;
  fpo.utilization = options.floorplan_utilization;
  const place::Floorplan fp = place::Floorplan::create(
      nl.total_cell_area(), nl.library().row_height_um(), fpo);
  place::place_ports_on_boundary(nl, fp);
  return fp;
}

place::Placement flat_seed(const netlist::Netlist& nl, const place::PlaceModel& model,
                           const std::vector<geom::Point>& cells) {
  place::Placement seed(model.objects.size());
  for (std::size_t i = 0; i < nl.cell_count(); ++i) seed[i] = cells[i];
  for (std::size_t i = nl.cell_count(); i < model.objects.size(); ++i) {
    seed[i] = model.objects[i].fixed_position;
  }
  return seed;
}

Result<ReplayPlacement> replay_default(netlist::Netlist& nl,
                                       const flow::FlowOptions& options,
                                       Spans* spans) {
  ReplayPlacement out;
  const place::Floorplan fp = make_floorplan(nl, options);
  const place::PlaceModel model = place::make_place_model(nl, fp);
  place::PlaceResult placed;
  {
    Scope scope(spans, "place.gp");
    place::GlobalPlacerOptions placer_options = options.placer;
    placer_options.seed = options.seed;
    placer_options.trace_iterations = true;
    place::GlobalPlacer placer(model, placer_options);
    auto placed_or = placer.try_run(options.degrade);
    if (!placed_or.has_value()) return fail(std::move(placed_or).error());
    placed = std::move(placed_or).value();
  }
  note_early_stop(placed.degrade_code, "flat global placement");
  out.gp_iters = placed.iterations;
  place::LegalizeResult legal;
  {
    Scope scope(spans, "place.legalize");
    legal = place::legalize(model, placed.placement);
  }
  out.positions = place::cell_positions(nl, legal.placement);
  out.hpwl_um = place::netlist_hpwl(nl, out.positions);
  return out;
}

/// Alg. 1 lines 2-10 for the two clustering methods the workloads use. The
/// replay covers the option sets the workloads run; the equality
/// check in main.cpp against the flow entry points catches any other divergence.
Result<cluster::ClusteredNetlist> replay_clustering(const netlist::Netlist& nl,
                                                    const flow::FlowOptions& options,
                                                    Spans* spans) {
  cluster::FcOptions fc = options.fc;
  fc.seed = options.seed;
  cluster::FcPpaInputs inputs;
  std::vector<double> timing_cost;
  std::vector<double> theta;
  hier::HierClusteringResult hier_result;
  if (options.cluster_method == flow::ClusterMethod::kPpaAware) {
    {
      Scope scope(spans, "sta.extract");
      sta::StaOptions sta_options;
      sta_options.clock_period_ps = options.clock_period_ps;
      sta::Sta sta(nl, sta_options);
      auto sta_run = sta.try_run();
      if (sta_run.has_value()) {
        timing_cost = cluster::net_timing_costs(nl, sta, options.clock_period_ps,
                                                options.top_paths);
      } else if (options.degrade.sta_fallback_hpwl) {
        fault::record_degradation({"sta.arrival", sta_run.error().code, "hpwl-only",
                                   "clustering timing costs unavailable"});
      } else {
        return fault::Unexpected<FlowError>(std::move(sta_run).error());
      }
      const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
      theta = cluster::net_switching_activity(nl, activities);
    }
    if (nl.has_hierarchy()) {
      Scope scope(spans, "hier.group");
      hier_result = hier::hierarchy_clustering(nl);
    }
    if (!timing_cost.empty()) inputs.net_timing_cost = &timing_cost;
    inputs.net_switching = &theta;
    if (nl.has_hierarchy() && hier_result.cluster_count > 1) {
      inputs.grouping = &hier_result.cluster_of_cell;
    }
  } else {
    // Plain MFC, the sharded workload's clustering.
    fc.use_grouping = false;
    fc.use_timing = false;
    fc.use_switching = false;
  }
  Scope scope(spans, "cluster.cluster");
  const cluster::FcResult result = cluster::fc_multilevel_cluster(nl, inputs, fc);
  return cluster::build_clustered_netlist(nl, result.cluster_of_cell,
                                          result.cluster_count);
}

Result<ReplayPlacement> replay_clustered(FlowKind kind, netlist::Netlist& nl,
                                         const flow::FlowOptions& options,
                                         Spans* spans) {
  ReplayPlacement out;
  out.clustered = true;
  const place::Floorplan fp = make_floorplan(nl, options);
  auto clusters_or = replay_clustering(nl, options, spans);
  if (!clusters_or.has_value()) return fail(std::move(clusters_or).error());
  out.clusters = std::move(clusters_or).value();
  cluster::ClusteredNetlist& clustered = out.clusters;
  out.cluster_count = static_cast<int>(clustered.cluster_count());

  if (options.shape_mode == flow::ShapeMode::kVpr) {
    Scope scope(spans, "vpr.shape");
    auto stats = vpr::try_select_cluster_shapes(nl, clustered, options.vpr, nullptr,
                                                options.degrade);
    if (!stats.has_value()) return fail(std::move(stats).error());
    out.clusters_shaped = stats.value().clusters_shaped;
    out.vpr_runs = stats.value().vpr_runs;
  }  // uniform shapes are the clusters' build-time default

  place::PlaceResult seed_placed;
  std::vector<geom::Point> seeded_cells;
  {
    Scope scope(spans, "place.seed");
    const place::PlaceModel cluster_model = cluster::make_cluster_place_model(
        clustered, nl, fp, options.io_weight_scale);
    place::GlobalPlacerOptions seed_options = options.placer;
    seed_options.seed = options.seed;
    seed_options.spread_mode = place::SpreadMode::kBisection;
    seed_options.trace_iterations = true;
    place::GlobalPlacer seed_placer(cluster_model, seed_options);
    auto seed_or = seed_placer.try_run(options.degrade);
    if (!seed_or.has_value()) return fail(std::move(seed_or).error());
    seed_placed = std::move(seed_or).value();
    note_early_stop(seed_placed.degrade_code, "cluster seed placement");
    seeded_cells = cluster::induce_cell_positions(
        clustered, nl, seed_placed.placement, options.scatter_seed, options.seed);
  }
  out.seed_iters = seed_placed.iterations;

  place::GlobalPlacerOptions inc_options = options.placer;
  inc_options.seed = options.seed;
  inc_options.trace_iterations = true;
  place::PlaceModel flat_model;
  place::Placement global;
  if (kind == FlowKind::kOurs) {
    Scope scope(spans, "place.incr");
    flat_model = place::make_place_model(nl, fp);
    place::GlobalPlacer flat_placer(flat_model, inc_options);
    auto inc_or = flat_placer.try_run_incremental(flat_seed(nl, flat_model, seeded_cells),
                                                  options.degrade);
    if (!inc_or.has_value()) return fail(std::move(inc_or).error());
    place::PlaceResult incremental = std::move(inc_or).value();
    note_early_stop(incremental.degrade_code, "incremental flat placement");
    out.incr_iters = incremental.iterations;
    global = std::move(incremental.placement);
  } else {
    Scope scope(spans, "place.shard");
    std::vector<place::ShardGroup> groups;
    groups.reserve(clustered.cluster_count());
    for (const cluster::ClusterId ci : clustered.cluster_ids()) {
      place::ShardGroup group;
      group.center = seed_placed.placement[ci.index()];
      group.rect = cluster::cluster_region(clustered, ci, seed_placed.placement);
      group.weight = static_cast<std::int64_t>(clustered.clusters[ci].cells.size());
      groups.push_back(group);
    }
    const place::RegionPartition partition =
        place::partition_regions(groups, fp.core, options.sharding.shards);
    out.shard_count = partition.shard_count();
    flat_model = place::make_place_model(nl, fp);
    std::vector<std::int32_t> shard_of_object(flat_model.objects.size(), -1);
    out.shard_of_cell.resize(nl.cell_count());
    for (std::size_t i = 0; i < nl.cell_count(); ++i) {
      const cluster::ClusterId ci =
          clustered.cluster_of_cell[static_cast<netlist::CellId>(i)];
      shard_of_object[i] = partition.shard_of_group[ci.index()];
      out.shard_of_cell[i] = shard_of_object[i];
    }
    auto sharded_or = place::try_place_sharded(
        flat_model, flat_seed(nl, flat_model, seeded_cells), shard_of_object,
        partition, options.sharding, inc_options, options.degrade);
    if (!sharded_or.has_value()) return fail(std::move(sharded_or).error());
    place::ShardedPlaceResult sharded = std::move(sharded_or).value();
    for (const place::ShardStat& stat : sharded.shards) {
      out.shard_fallbacks += stat.fell_back ? 1 : 0;
      out.shard_movables.push_back(stat.movables);
    }
    global = std::move(sharded.placement);
  }

  place::LegalizeResult legal;
  {
    Scope scope(spans, "place.legalize");
    // The clustered flow drops its (Innovus-only) fences before legalizing;
    // the OpenROAD-like model has none, so the flat model legalizes as is.
    legal = place::legalize(flat_model, global);
  }
  out.positions = place::cell_positions(nl, legal.placement);
  out.hpwl_um = place::netlist_hpwl(nl, out.positions);
  return out;
}

}  // namespace

const char* to_string(FlowKind kind) {
  switch (kind) {
    case FlowKind::kDefault: return "default";
    case FlowKind::kOurs: return "ours";
    case FlowKind::kSharded: return "sharded";
  }
  return "?";
}

Result<ReplayPlacement> replay_flow(FlowKind kind, netlist::Netlist& nl,
                                    const flow::FlowOptions& options, Spans* spans) {
  if (kind == FlowKind::kDefault) return replay_default(nl, options, spans);
  return replay_clustered(kind, nl, options, spans);
}

Result<ReplaySignoff> replay_signoff(const netlist::Netlist& nl,
                                     const std::vector<geom::Point>& positions,
                                     const flow::FlowOptions& options, Spans* spans) {
  ReplaySignoff out;
  geom::BBox box;
  for (const geom::Point& p : positions) box.expand(p);
  for (std::size_t po = 0; po < nl.port_count(); ++po) {
    box.expand(nl.port(static_cast<netlist::PortId>(po)).position);
  }
  {
    Scope scope(spans, "route.route");
    route::RouteOptions route_options = options.router;
    route_options.observe_stream = true;
    route::GlobalRouter router(nl, positions, box.rect(), route_options);
    auto routed_or = router.try_run(options.degrade);
    if (!routed_or.has_value()) {
      return fault::Unexpected<FlowError>(std::move(routed_or).error());
    }
    out.route = std::move(routed_or).value();
  }
  if (out.route.failed_nets > 0) {
    fault::record_degradation({"route.maze", "route-maze-failed", "partial-routes",
                               std::to_string(out.route.failed_nets) +
                                   " nets skipped after retries"});
  }
  out.ppa.route_overflow_edges = out.route.overflow_edges;

  cts::ClockTreeResult tree;
  {
    Scope scope(spans, "cts.tree");
    tree = cts::synthesize_clock_tree(nl, positions, options.cts);
  }
  out.ppa.clock_skew_ps = tree.max_skew_ps;
  out.ppa.rwl_um = out.route.wirelength_um + tree.wirelength_um;

  {
    Scope scope(spans, "sta.signoff");
    sta::StaOptions sta_options;
    sta_options.clock_period_ps = options.clock_period_ps;
    sta_options.cell_positions = &positions;
    sta_options.clock_arrivals_ps = &tree.insertion_delay_ps;
    sta_options.observe_stream = true;
    sta::Sta sta(nl, sta_options);
    auto sta_run = sta.try_run();
    if (sta_run.has_value()) {
      out.ppa.wns_ps = sta.wns_ps();
      out.ppa.tns_ns = sta.tns_ns();
    } else if (options.degrade.sta_fallback_hpwl) {
      fault::record_degradation({"sta.arrival", sta_run.error().code, "hpwl-only",
                                 "WNS/TNS unavailable"});
    } else {
      return fault::Unexpected<FlowError>(std::move(sta_run).error());
    }
  }

  // Power, as try_evaluate_ppa computes it (not a named layer call).
  const auto activities = sta::propagate_activity(nl, sta::ActivityOptions{});
  const sta::PowerReport base =
      sta::compute_power(nl, activities, options.clock_period_ps, &positions);
  const liberty::Library& lib = nl.library();
  const double clock_toggle = 2.0;
  const double cts_clock_w = 0.5e-3 * lib.vdd() * lib.vdd() * tree.total_cap_ff *
                             clock_toggle / options.clock_period_ps * 1.10;
  double buffer_leakage_w = 0.0;
  if (const auto buf = lib.find(options.cts.buffer_cell)) {
    buffer_leakage_w = tree.buffer_count * lib.cell(*buf).leakage_uw * 1e-6;
  }
  out.ppa.power_w = base.total_w - base.clock_w + cts_clock_w + buffer_leakage_w;
  return out;
}

}  // namespace flowbench
