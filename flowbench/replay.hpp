/// \file replay.hpp
/// \brief Stage-by-stage replay of the library's flows, one module call at a
/// time, in the order src/flow/flow.cpp uses.
///
/// The replay exists for two reasons: each layer call gets its own span
/// (timed from outside the library), and the intermediate products the flow
/// entry points do not return -- the cluster partition, the shard of every
/// cell, the router's edge utilisation -- become visible to the output
/// checks. The replay must reproduce the entry points' legal placement
/// bit-for-bit; main.cpp checks that on every traced pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/clustered_netlist.hpp"
#include "fault/expected.hpp"
#include "flow/flow.hpp"
#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"
#include "route/global_router.hpp"
#include "spans.hpp"

namespace flowbench {

using namespace ppacd;

/// The three flows the workloads run: flat placement ("default"), the
/// paper's clustered flow with V-P&R shapes ("ours"), and MFC clustering
/// with uniform shapes and region-sharded placement ("sharded").
enum class FlowKind { kDefault, kOurs, kSharded };

const char* to_string(FlowKind kind);

/// Placement result of one replayed flow plus the intermediates the checks
/// and the per-layer counters need.
struct ReplayPlacement {
  std::vector<geom::Point> positions;  ///< legal cell centers
  double hpwl_um = 0.0;
  bool clustered = false;
  cluster::ClusteredNetlist clusters;        ///< valid when `clustered`
  std::vector<std::int32_t> shard_of_cell;   ///< empty unless sharded
  std::vector<std::int64_t> shard_movables;  ///< per shard, from ShardStat
  int shard_count = 0;
  int shard_fallbacks = 0;
  int cluster_count = 0;
  int clusters_shaped = 0;
  double vpr_runs = 0.0;
  int seed_iters = 0;
  int gp_iters = 0;
  int incr_iters = 0;
};

/// Signoff result: the PPA the entry point reports plus the full route.
struct ReplaySignoff {
  flow::PpaOutcome ppa;
  route::RouteResult route;
};

/// Replays one flow on `nl` (mutated like the entry point mutates it: ports
/// are placed on the floorplan boundary). Spans go to `spans` when non-null.
fault::Expected<ReplayPlacement, fault::FlowError> replay_flow(
    FlowKind kind, netlist::Netlist& nl, const flow::FlowOptions& options,
    Spans* spans);

/// Replays flow::try_evaluate_ppa: route, CTS, signoff STA, power.
fault::Expected<ReplaySignoff, fault::FlowError> replay_signoff(
    const netlist::Netlist& nl, const std::vector<geom::Point>& positions,
    const flow::FlowOptions& options, Spans* spans);

}  // namespace flowbench
