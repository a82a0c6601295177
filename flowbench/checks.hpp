/// \file checks.hpp
/// \brief Output checks made apart from the program (the benchmark's own
/// code, not src/check), plus a self-test that seeds one corruption per
/// check and confirms the check catches it.
///
/// Every check returns an empty string when the output passes, otherwise a
/// one-line description of the first violation found.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/clustered_netlist.hpp"
#include "geom/geometry.hpp"
#include "netlist/netlist.hpp"
#include "route/global_router.hpp"

namespace flowbench {

using namespace ppacd;

/// Inside the core, single-row cells centered on a row, and no two cells
/// overlapping in a row (a sort-and-sweep per row). The core is the one the
/// flow's floorplan derives from the cell area and `utilization`.
std::string check_legality(const netlist::Netlist& nl,
                           const std::vector<geom::Point>& positions,
                           double utilization);

/// HPWL recomputed from the positions and the pins (cell centers, port
/// positions) equals `reported_um` within 1e-9 relative.
std::string check_hpwl(const netlist::Netlist& nl,
                       const std::vector<geom::Point>& positions,
                       double reported_um);

/// The clusters form an exact partition of the cells: each cell is listed
/// by exactly one cluster, and cluster_of_cell agrees with that listing.
std::string check_partition(const netlist::Netlist& nl,
                            const cluster::ClusteredNetlist& clusters);

/// Every cell is in exactly one valid shard, the per-shard cell counts match
/// the placer's per-shard movable counts, and no shard fell back.
std::string check_shards(const netlist::Netlist& nl,
                         const std::vector<std::int32_t>& shard_of_cell,
                         const std::vector<std::int64_t>& shard_movables,
                         int shard_count, int fallbacks);

/// The overflow-edge count recounted from edge_utilization equals the
/// reported one, the grid has the expected edge count, and no net failed.
std::string check_route(const route::RouteResult& routed);

/// tns_ns * 1000 <= min(wns_ps, 0), and TNS is 0 when WNS >= 0.
std::string check_timing(double wns_ps, double tns_ns);

/// One routed, clustered and (optionally) sharded output to corrupt.
struct SelfTestSample {
  const netlist::Netlist* nl = nullptr;
  std::vector<geom::Point> positions;
  double utilization = 0.65;
  double hpwl_um = 0.0;
  const cluster::ClusteredNetlist* clusters = nullptr;  ///< optional
  std::vector<std::int32_t> shard_of_cell;              ///< optional
  std::vector<std::int64_t> shard_movables;
  int shard_count = 0;
  const route::RouteResult* route = nullptr;  ///< optional
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  bool has_timing = false;
};

/// Confirms that the sample passes every applicable check, then that each
/// seeded corruption makes its check fail. Returns one line per case, each
/// starting "ok " or "FAIL ".
std::vector<std::string> self_test(const SelfTestSample& sample);

}  // namespace flowbench
