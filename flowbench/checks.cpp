#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "place/floorplan.hpp"

namespace flowbench {

namespace {

constexpr double kTolUm = 1e-6;  ///< absorbs double rounding only

}  // namespace

std::string check_legality(const netlist::Netlist& nl,
                           const std::vector<geom::Point>& positions,
                           double utilization) {
  std::ostringstream out;
  if (positions.size() != nl.cell_count()) {
    out << "legality: " << positions.size() << " positions for " << nl.cell_count()
        << " cells";
    return out.str();
  }
  place::FloorplanOptions fpo;
  fpo.utilization = utilization;
  const double row_h = nl.library().row_height_um();
  const place::Floorplan fp = place::Floorplan::create(nl.total_cell_area(), row_h, fpo);
  const geom::Rect& core = fp.core;
  const int rows = fp.row_count;

  struct Interval {
    double left;
    double right;
    std::size_t cell;
  };
  std::vector<std::vector<Interval>> by_row(static_cast<std::size_t>(rows));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const liberty::LibCell& lc = nl.lib_cell_of(static_cast<netlist::CellId>(i));
    const geom::Point& p = positions[i];
    const double hw = lc.width_um * 0.5;
    const double hh = lc.height_um * 0.5;
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || p.x - hw < core.lx - kTolUm ||
        p.x + hw > core.ux + kTolUm || p.y - hh < core.ly - kTolUm ||
        p.y + hh > core.uy + kTolUm) {
      out << "legality: cell " << i << " at (" << p.x << ", " << p.y
          << ") leaves the core [" << core.lx << ", " << core.ly << "] x [" << core.ux
          << ", " << core.uy << "]";
      return out.str();
    }
    // A cell of h rows spans rows [first, first + h); its bottom edge must
    // sit on a row boundary.
    const double span = std::max(1.0, std::round(lc.height_um / row_h));
    const double bottom = (p.y - hh - core.ly) / row_h;
    const double first = std::round(bottom);
    if (std::fabs(bottom - first) * row_h > kTolUm) {
      out << "legality: cell " << i << " at y " << p.y << " is off its row (row height "
          << row_h << ")";
      return out.str();
    }
    for (int r = static_cast<int>(first); r < static_cast<int>(first + span); ++r) {
      by_row[static_cast<std::size_t>(std::clamp(r, 0, rows - 1))].push_back(
          {p.x - hw, p.x + hw, i});
    }
  }
  for (std::size_t r = 0; r < by_row.size(); ++r) {
    std::vector<Interval>& row = by_row[r];
    std::sort(row.begin(), row.end(), [](const Interval& a, const Interval& b) {
      return a.left != b.left ? a.left < b.left : a.cell < b.cell;
    });
    for (std::size_t k = 1; k < row.size(); ++k) {
      if (row[k - 1].right > row[k].left + kTolUm) {
        out << "legality: cells " << row[k - 1].cell << " and " << row[k].cell
            << " overlap by " << row[k - 1].right - row[k].left << " um in row " << r;
        return out.str();
      }
    }
  }
  return {};
}

std::string check_hpwl(const netlist::Netlist& nl,
                       const std::vector<geom::Point>& positions, double reported_um) {
  double total = 0.0;
  for (const netlist::NetId n : nl.net_ids()) {
    const netlist::Net& net = nl.net(n);
    if (net.pins.size() < 2) continue;
    double lx = INFINITY, ly = INFINITY, ux = -INFINITY, uy = -INFINITY;
    for (const netlist::PinId pid : net.pins) {
      const netlist::Pin& pin = nl.pin(pid);
      const geom::Point p = pin.kind == netlist::PinKind::kTopPort
                                ? nl.port(pin.port).position
                                : positions.at(pin.cell.index());
      lx = std::min(lx, p.x);
      ly = std::min(ly, p.y);
      ux = std::max(ux, p.x);
      uy = std::max(uy, p.y);
    }
    total += (ux - lx) + (uy - ly);
  }
  if (!(std::fabs(total - reported_um) <= 1e-9 * std::fabs(total))) {
    std::ostringstream out;
    out.precision(17);
    out << "hpwl: recomputed " << total << " um, reported " << reported_um << " um";
    return out.str();
  }
  return {};
}

std::string check_partition(const netlist::Netlist& nl,
                            const cluster::ClusteredNetlist& clusters) {
  std::ostringstream out;
  const std::size_t cells = nl.cell_count();
  if (clusters.cluster_of_cell.size() != cells) {
    out << "partition: cluster_of_cell covers " << clusters.cluster_of_cell.size()
        << " of " << cells << " cells";
    return out.str();
  }
  std::vector<std::int32_t> listed_in(cells, -1);
  for (const cluster::ClusterId ci : clusters.cluster_ids()) {
    for (const netlist::CellId c : clusters.clusters[ci].cells) {
      if (c.index() >= cells) {
        out << "partition: cluster " << ci.index() << " lists unknown cell " << c.index();
        return out.str();
      }
      if (listed_in[c.index()] >= 0) {
        out << "partition: cell " << c.index() << " is in clusters "
            << listed_in[c.index()] << " and " << ci.index();
        return out.str();
      }
      listed_in[c.index()] = static_cast<std::int32_t>(ci.index());
    }
  }
  for (std::size_t i = 0; i < cells; ++i) {
    const cluster::ClusterId owner = clusters.cluster_of_cell[static_cast<netlist::CellId>(i)];
    if (listed_in[i] < 0) {
      out << "partition: cell " << i << " is in no cluster";
      return out.str();
    }
    if (static_cast<std::int32_t>(owner.index()) != listed_in[i]) {
      out << "partition: cell " << i << " maps to cluster " << owner.index()
          << " but is listed by cluster " << listed_in[i];
      return out.str();
    }
  }
  return {};
}

std::string check_shards(const netlist::Netlist& nl,
                         const std::vector<std::int32_t>& shard_of_cell,
                         const std::vector<std::int64_t>& shard_movables,
                         int shard_count, int fallbacks) {
  std::ostringstream out;
  if (fallbacks != 0) {
    out << "shards: " << fallbacks << " shards fell back to their seed";
    return out.str();
  }
  if (shard_of_cell.size() != nl.cell_count() ||
      shard_movables.size() != static_cast<std::size_t>(shard_count)) {
    out << "shards: " << shard_of_cell.size() << " shard entries for " << nl.cell_count()
        << " cells, " << shard_movables.size() << " stats for " << shard_count << " shards";
    return out.str();
  }
  std::vector<std::int64_t> members(static_cast<std::size_t>(shard_count), 0);
  for (std::size_t i = 0; i < shard_of_cell.size(); ++i) {
    const std::int32_t s = shard_of_cell[i];
    if (s < 0 || s >= shard_count) {
      out << "shards: cell " << i << " is in shard " << s << " of " << shard_count;
      return out.str();
    }
    ++members[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < shard_count; ++s) {
    if (members[static_cast<std::size_t>(s)] != shard_movables[static_cast<std::size_t>(s)]) {
      out << "shards: shard " << s << " holds " << members[static_cast<std::size_t>(s)]
          << " cells but placed " << shard_movables[static_cast<std::size_t>(s)];
      return out.str();
    }
  }
  return {};
}

std::string check_route(const route::RouteResult& routed) {
  std::ostringstream out;
  const std::size_t nx = static_cast<std::size_t>(std::max(routed.grid_nx, 0));
  const std::size_t ny = static_cast<std::size_t>(std::max(routed.grid_ny, 0));
  const std::size_t expected = nx < 1 || ny < 1 ? 0 : (nx - 1) * ny + nx * (ny - 1);
  if (routed.edge_utilization.size() != expected || expected == 0) {
    out << "route: " << routed.edge_utilization.size() << " edge utilisations for a "
        << nx << " x " << ny << " grid";
    return out.str();
  }
  int over = 0;
  for (const double u : routed.edge_utilization) over += u > 1.0 ? 1 : 0;
  if (over != routed.overflow_edges) {
    out << "route: recounted " << over << " overflow edges, reported "
        << routed.overflow_edges;
    return out.str();
  }
  if (routed.failed_nets != 0) {
    out << "route: " << routed.failed_nets << " failed nets";
    return out.str();
  }
  return {};
}

std::string check_timing(double wns_ps, double tns_ns) {
  std::ostringstream out;
  if (!std::isfinite(wns_ps) || !std::isfinite(tns_ns) ||
      tns_ns * 1000.0 > std::min(wns_ps, 0.0) + 1e-9 * std::fabs(tns_ns * 1000.0) ||
      (wns_ps >= 0.0 && tns_ns != 0.0)) {
    out.precision(17);
    out << "timing: WNS " << wns_ps << " ps, TNS " << tns_ns << " ns";
    return out.str();
  }
  return {};
}

std::vector<std::string> self_test(const SelfTestSample& s) {
  std::vector<std::string> lines;
  const auto expect = [&lines](const std::string& name, const std::string& result,
                               bool should_fail) {
    const bool failed = !result.empty();
    const bool good = failed == should_fail;
    lines.push_back(std::string(good ? "ok " : "FAIL ") + name +
                    (should_fail ? (failed ? " caught: " + result : " not caught")
                                 : (failed ? " rejects clean output: " + result
                                           : " passes clean output")));
  };
  const netlist::Netlist& nl = *s.nl;

  expect("legality", check_legality(nl, s.positions, s.utilization), false);
  expect("hpwl", check_hpwl(nl, s.positions, s.hpwl_um), false);
  {
    // One cell moved onto another: same center as its neighbour.
    std::vector<geom::Point> bad = s.positions;
    bad[0] = bad[1];
    expect("legality/cell-on-cell", check_legality(nl, bad, s.utilization), true);
  }
  {
    // One cell moved off its row, by a third of a row, toward the core center.
    std::vector<geom::Point> bad = s.positions;
    const double row_h = nl.library().row_height_um();
    bad[0].y += bad[0].y > bad[1].y ? -row_h / 3.0 : row_h / 3.0;
    expect("legality/off-row", check_legality(nl, bad, s.utilization), true);
  }
  expect("hpwl/scaled-1e-6", check_hpwl(nl, s.positions, s.hpwl_um * (1.0 + 1e-6)), true);
  if (s.clusters != nullptr) {
    expect("partition", check_partition(nl, *s.clusters), false);
    // One cell dropped from its cluster's member list.
    cluster::ClusteredNetlist bad = *s.clusters;
    for (const cluster::ClusterId ci : bad.cluster_ids()) {
      if (!bad.clusters[ci].cells.empty()) {
        bad.clusters[ci].cells.pop_back();
        break;
      }
    }
    expect("partition/cell-dropped", check_partition(nl, bad), true);
  }
  if (!s.shard_of_cell.empty()) {
    expect("shards", check_shards(nl, s.shard_of_cell, s.shard_movables, s.shard_count, 0),
           false);
    std::vector<std::int32_t> bad = s.shard_of_cell;
    bad[0] = (bad[0] + 1) % s.shard_count;  // one cell moved to another shard
    expect("shards/cell-moved", check_shards(nl, bad, s.shard_movables, s.shard_count, 0),
           true);
    expect("shards/fallback",
           check_shards(nl, s.shard_of_cell, s.shard_movables, s.shard_count, 1), true);
  }
  if (s.route != nullptr) {
    expect("route", check_route(*s.route), false);
    route::RouteResult bad = *s.route;
    bad.overflow_edges += 1;
    expect("route/overflow-miscount", check_route(bad), true);
    bad = *s.route;
    bad.failed_nets = 1;
    expect("route/failed-net", check_route(bad), true);
  }
  if (s.has_timing) {
    expect("timing", check_timing(s.wns_ps, s.tns_ns), false);
    expect("timing/positive-tns", check_timing(s.wns_ps, std::fabs(s.tns_ns) + 1e-3), true);
    // A total (-0.1 ps) less negative than the worst endpoint (-1 ps).
    expect("timing/tns-above-wns", check_timing(-1.0, -1e-4), true);
  }
  return lines;
}

}  // namespace flowbench
