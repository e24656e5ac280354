#include "geo/road_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/file_util.h"
#include "common/line_scanner.h"

namespace ltc {
namespace geo {
namespace {

std::uint64_t NextGraphId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Weight >= Euclidean length, with a hair of slack for parse/print
// round-trip rounding.
constexpr double kWeightSlack = 1e-9;

// 2^-1074 is the smallest subnormal: below it ticks * 2^-k would round.
constexpr int kMaxTickExponent = 1074;

// ceil(weight * 2^k), at least 1; kMaxPathTicks when it is that large.
// ldexp is exact unless the result is below the normal range, where the
// ceiling is 1 whichever way it rounded.
std::int64_t TicksOf(double weight, int k) {
  const double scaled = std::ceil(std::ldexp(weight, k));
  if (!(scaled < static_cast<double>(RoadGraph::kMaxPathTicks))) {
    return RoadGraph::kMaxPathTicks;
  }
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(scaled));
}

// The edges' ticks at exponent k, or nothing when they sum to
// kMaxPathTicks or more.
std::optional<std::vector<std::int64_t>> TicksAt(
    const std::vector<RoadGraph::Edge>& edges, int k) {
  std::vector<std::int64_t> ticks;
  ticks.reserve(edges.size());
  std::int64_t total = 0;
  for (const RoadGraph::Edge& e : edges) {
    ticks.push_back(TicksOf(e.weight, k));
    total += ticks.back();
    if (total >= RoadGraph::kMaxPathTicks) return std::nullopt;
  }
  return ticks;
}

// The tick exponent (DESIGN.md §12) and the edges' ticks at it. With the
// total weight in [2^e, 2^(e+1)), ticks at k = 53 - e would reach 2^53, so
// k starts at 52 - e, and steps down while rounding each edge up still
// takes the sum to 2^53.
std::vector<std::int64_t> PickTicks(const std::vector<RoadGraph::Edge>& edges,
                                    int* k) {
  double total = 0.0;
  for (const RoadGraph::Edge& e : edges) total += e.weight;
  int e = 0;
  if (std::isfinite(total)) {
    e = std::ilogb(total);
  } else {
    // Past DBL_MAX: sum at 2^-64 scale (the tiny weights this drops cannot
    // move the exponent).
    double scaled = 0.0;
    for (const RoadGraph::Edge& edge : edges) scaled += edge.weight * 0x1p-64;
    e = std::ilogb(scaled) + 64;
  }
  *k = edges.empty() ? kMaxTickExponent
                     : std::min(kMaxTickExponent, 52 - e);
  while (true) {
    if (auto ticks = TicksAt(edges, *k)) return std::move(*ticks);
    --*k;
  }
}

// A point's coordinates as bit patterns: memo keys that tell -0.0 from 0.0
// and never approximate.
struct PointBits {
  std::uint64_t x;
  std::uint64_t y;
};

PointBits BitsOf(const Point& p) {
  PointBits bits;
  std::memcpy(&bits.x, &p.x, sizeof(bits.x));
  std::memcpy(&bits.y, &p.y, sizeof(bits.y));
  return bits;
}

// Multiplicative hash of both coordinates; the top `slot_bits` bits pick
// the slot.
std::size_t SlotOf(const PointBits& bits, int slot_bits) {
  const std::uint64_t h =
      (bits.x * 0x9E3779B97F4A7C15ULL) ^ (bits.y * 0xC2B2AE3D27D4EB4FULL);
  return static_cast<std::size_t>(h >> (64 - slot_bits));
}

}  // namespace

StatusOr<RoadGraph> RoadGraph::Build(std::vector<Point> nodes,
                                     const std::vector<Edge>& edges) {
  if (nodes.empty()) {
    return Status::InvalidArgument("road graph needs at least one node");
  }
  const auto n = static_cast<std::int32_t>(nodes.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " endpoint out of range");
    }
    if (e.u == e.v) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " is a self loop");
    }
    if (!(e.weight > 0.0) || !std::isfinite(e.weight)) {
      return Status::InvalidArgument("road edge " + std::to_string(i) +
                                     " has non-positive weight");
    }
    const double length =
        Distance(nodes[static_cast<std::size_t>(e.u)],
                 nodes[static_cast<std::size_t>(e.v)]);
    if (e.weight + kWeightSlack < length) {
      return Status::InvalidArgument(
          "road edge " + std::to_string(i) +
          " weight below its Euclidean length (metric contract)");
    }
  }

  RoadGraph g;
  g.id_ = NextGraphId();
  const std::vector<std::int64_t> edge_ticks =
      PickTicks(edges, &g.tick_exponent_);
  g.tick_units_ = std::ldexp(1.0, -g.tick_exponent_);
  g.nodes_ = std::move(nodes);
  g.edges_ = edges;

  // Two-pass CSR, both directions (the flow layer's builder idiom).
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++g.offsets_[static_cast<std::size_t>(e.u) + 1];
    ++g.offsets_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.targets_.resize(static_cast<std::size_t>(g.offsets_.back()));
  g.ticks_.resize(g.targets_.size());
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    auto place = [&](std::int32_t from, std::int32_t to) {
      const auto slot =
          static_cast<std::size_t>(cursor[static_cast<std::size_t>(from)]++);
      g.targets_[slot] = to;
      g.ticks_[slot] = edge_ticks[i];
    };
    place(edges[i].u, edges[i].v);
    place(edges[i].v, edges[i].u);
  }

  // Snap index: a static grid sized so an average cell holds ~1 node.
  double min_x = g.nodes_[0].x, max_x = g.nodes_[0].x;
  double min_y = g.nodes_[0].y, max_y = g.nodes_[0].y;
  for (const Point& p : g.nodes_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double extent = std::max(max_x - min_x, max_y - min_y);
  const double side =
      std::max(1.0, std::floor(std::sqrt(static_cast<double>(n))));
  const double cell = std::max(extent / side, 1.0);
  LTC_ASSIGN_OR_RETURN(auto snap, GridIndex::Build(g.nodes_, cell));
  g.snap_index_.emplace(std::move(snap));
  return g;
}

std::int32_t RoadGraph::Snap(const Point& p) const {
  return static_cast<std::int32_t>(snap_index_->Nearest(p));
}

std::int32_t RoadGraph::Snap(const Point& p, Workspace* ws) const {
  Attach(ws);
  if (ws->snaps.empty()) ws->snaps.resize(Workspace::kSnapSlots);
  const PointBits bits = BitsOf(p);
  Workspace::SnapEntry& e = ws->snaps[SlotOf(bits, Workspace::kSnapSlotBits)];
  if (e.node < 0 || e.x_bits != bits.x || e.y_bits != bits.y) {
    e.x_bits = bits.x;
    e.y_bits = bits.y;
    e.node = Snap(p);
  }
  return e.node;
}

std::int64_t RoadGraph::ToTicks(double weight) const {
  return TicksOf(weight, tick_exponent_);
}

void RoadGraph::Attach(Workspace* ws) const {
  if (ws->graph_id == id_) return;
  const auto n = static_cast<std::size_t>(num_nodes());
  ws->graph_id = id_;
  ws->dist.assign(n, kUnreachableTicks);
  ws->frontier.Reset(n);
  ws->touched.clear();
  ws->source = -1;
  ws->snaps.clear();  // re-filled empty by the next memoized snap
  ws->rows.assign(Workspace::kRowSets * Workspace::kRowWays, Workspace::Row{});
}

void RoadGraph::StartSearch(std::int32_t source, Workspace* ws) const {
  Attach(ws);
  if (ws->source == source) return;
  // New source: undo only what the last search wrote.
  for (const std::int32_t v : ws->touched) {
    ws->dist[static_cast<std::size_t>(v)] = kUnreachableTicks;
  }
  ws->frontier.Clear();
  ws->touched.clear();
  ws->source = source;
  ws->dist[static_cast<std::size_t>(source)] = 0;
  ws->touched.push_back(source);
  ws->frontier.PushOrDecrease(source, 0);
}

std::int64_t RoadGraph::SettleNext(Workspace* ws) const {
  const auto [d, u] = ws->frontier.PopMin();
  const auto begin =
      static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
  const auto end =
      static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
  for (std::size_t k = begin; k < end; ++k) {
    const std::int32_t v = targets_[k];
    const std::int64_t nd = d + ticks_[k];
    std::int64_t& dv = ws->dist[static_cast<std::size_t>(v)];
    if (nd < dv) {
      if (dv == kUnreachableTicks) ws->touched.push_back(v);
      dv = nd;
      ws->frontier.PushOrDecrease(v, nd);
    }
  }
  return u;
}

void RoadGraph::Settle(std::int32_t target, std::int64_t bound,
                       Workspace* ws) const {
  while (!ws->frontier.empty()) {
    // Every weight is positive, so once the smallest frontier key reaches
    // dist[target], no later pop can lower it; and once it exceeds `bound`,
    // every node still unsettled is farther than `bound`.
    const std::int64_t key = ws->frontier.PeekMin().first;
    if (key >= ws->dist[static_cast<std::size_t>(target)]) {
      return;
    }
    if (key > bound) return;
    SettleNext(ws);
  }
}

std::int64_t RoadGraph::NodeTicks(std::int32_t u, std::int32_t v,
                                  Workspace* ws) const {
  Attach(ws);
  // d(u, v) == d(v, u), so a row from either end answers.
  for (const std::int32_t from : {v, u}) {
    if (const Workspace::Row* row = FindRow(from, ws)) {
      const std::int64_t t = RowTicks(*row, from == v ? u : v, *ws);
      if (t >= 0) return t;
      if (row->bound == kUnreachableTicks) return kUnreachableTicks;
    }
  }
  StartSearch(u, ws);
  Settle(v, kUnreachableTicks, ws);
  return ws->dist[static_cast<std::size_t>(v)];
}

std::int64_t RoadGraph::ReachTicks(std::int32_t source, std::int32_t v,
                                   std::int64_t need, Workspace* ws) const {
  Attach(ws);
  Workspace::Row* row = FindRow(source, ws);
  if (row == nullptr ||
      (row->bound < need &&
       row->size < static_cast<std::int32_t>(Workspace::kRowCapacity))) {
    // Absent, or built for a smaller need and not full. The bound keeps
    // need's four leading bits and fills the rest, so workers whose radii
    // differ a little share one row per node instead of rebuilding it.
    int shift = 0;
    while ((need >> (shift + 4)) > 0) ++shift;
    const std::int64_t level = need | ((std::int64_t{1} << shift) - 1);
    row = BuildRow(source, level, row, ws);
  }
  const std::int64_t t = RowTicks(*row, v, *ws);
  if (t >= 0) return t;
  if (row->bound == kUnreachableTicks) return kUnreachableTicks;
  if (row->bound >= need) return row->bound + 1;
  // The row filled up short of `need`: search from v instead, a search the
  // next candidate of the same gather resumes.
  StartSearch(v, ws);
  Settle(source, need, ws);
  // dist[source] is final when it is within `need` or the search ran dry.
  const std::int64_t d = ws->dist[static_cast<std::size_t>(source)];
  return d <= need || ws->frontier.empty() ? d : need + 1;
}

namespace {

using Workspace = RoadGraph::Workspace;

static_assert(Workspace::kRowCapacity < Workspace::kNoPosition,
              "row positions must fit the index's bytes");
static_assert(2 * Workspace::kRowCapacity <= Workspace::kRowIndexSlots,
              "a full row must leave the index at most half full");

// The row set of `source`: a multiplicative hash, so neighbouring node ids
// spread over the sets.
std::size_t RowSetOf(std::int32_t source) {
  return static_cast<std::size_t>(
             (static_cast<std::uint32_t>(source) * 0x9E3779B1u) >> 27) %
         Workspace::kRowSets;
}

// Where a row's index starts probing for node `v`: the same multiplicative
// hash, its top kRowIndexBits bits.
std::size_t IndexSlotOf(std::int32_t v) {
  const std::uint32_t h = static_cast<std::uint32_t>(v) * 0x9E3779B1u;
  return h >> (32 - Workspace::kRowIndexBits);
}

std::size_t NextIndexSlot(std::size_t slot) {
  return (slot + 1) % Workspace::kRowIndexSlots;
}

}  // namespace

RoadGraph::Workspace::Row* RoadGraph::FindRow(std::int32_t source,
                                              Workspace* ws) const {
  Workspace::Row* set = &ws->rows[RowSetOf(source) * Workspace::kRowWays];
  for (std::size_t w = 0; w < Workspace::kRowWays; ++w) {
    if (set[w].source == source) {
      set[w].last_use = ++ws->row_clock;
      return &set[w];
    }
  }
  return nullptr;
}

RoadGraph::Workspace::Row* RoadGraph::BuildRow(std::int32_t source,
                                               std::int64_t bound,
                                               Workspace::Row* reuse,
                                               Workspace* ws) const {
  Workspace::Row* row = reuse;
  if (row == nullptr) {
    // Empty ways have last_use 0, so they go first.
    Workspace::Row* set = &ws->rows[RowSetOf(source) * Workspace::kRowWays];
    row = set;
    for (std::size_t w = 1; w < Workspace::kRowWays; ++w) {
      if (set[w].last_use < row->last_use) row = &set[w];
    }
  }
  // Row storage is taken on the first build: a workspace that only ever
  // measures distances (routes, tests) never pays for it.
  ws->row_nodes.resize(ws->rows.size() * Workspace::kRowCapacity);
  ws->row_ticks.resize(ws->rows.size() * Workspace::kRowCapacity);
  ws->row_index.resize(ws->rows.size() * Workspace::kRowIndexSlots);
  const auto r = static_cast<std::size_t>(row - ws->rows.data());
  std::int32_t* nodes = &ws->row_nodes[r * Workspace::kRowCapacity];
  std::int64_t* ticks = &ws->row_ticks[r * Workspace::kRowCapacity];
  std::uint8_t* index = &ws->row_index[r * Workspace::kRowIndexSlots];
  std::fill_n(index, Workspace::kRowIndexSlots, Workspace::kNoPosition);

  // A fresh search from `source` (a paused one may have settled past the
  // bound), cut where the smallest key passes the bound or the row is full.
  // Nodes settle in key order, so every node closer than the first key
  // left on the frontier is listed.
  ws->source = -1;
  StartSearch(source, ws);
  std::size_t size = 0;
  while (!ws->frontier.empty() && size < Workspace::kRowCapacity &&
         ws->frontier.PeekMin().first <= bound) {
    ticks[size] = ws->frontier.PeekMin().first;
    nodes[size] = static_cast<std::int32_t>(SettleNext(ws));
    std::size_t s = IndexSlotOf(nodes[size]);
    while (index[s] != Workspace::kNoPosition) s = NextIndexSlot(s);
    index[s] = static_cast<std::uint8_t>(size);
    ++size;
  }
  row->source = source;
  row->size = static_cast<std::int32_t>(size);
  row->bound = ws->frontier.empty() ? kUnreachableTicks
                                    : ws->frontier.PeekMin().first - 1;
  row->last_use = ++ws->row_clock;
  return row;
}

std::int64_t RoadGraph::RowTicks(const Workspace::Row& row, std::int32_t v,
                                 const Workspace& ws) {
  const auto r = static_cast<std::size_t>(&row - ws.rows.data());
  const std::size_t base = r * Workspace::kRowCapacity;
  const std::uint8_t* index = &ws.row_index[r * Workspace::kRowIndexSlots];
  // Linear probing over an index at most half full: the probe ends at v's
  // position or at the first empty slot.
  for (std::size_t s = IndexSlotOf(v);; s = NextIndexSlot(s)) {
    const std::uint8_t pos = index[s];
    if (pos == Workspace::kNoPosition) return -1;
    if (ws.row_nodes[base + pos] == v) return ws.row_ticks[base + pos];
  }
}

std::string RoadGraph::Serialize() const {
  std::string out = "# ltc-road v1\nnodes " + std::to_string(num_nodes()) +
                    '\n';
  char x[kRealChars];
  for (const Point& p : nodes_) {
    out.append(x, FormatReal(p.x, x));
    AppendRealField(&out, p.y);
    out.push_back('\n');
  }
  out += "edges " + std::to_string(edges_.size()) + '\n';
  for (const Edge& e : edges_) {
    out += std::to_string(e.u) + ' ' + std::to_string(e.v);
    AppendRealField(&out, e.weight);
    out.push_back('\n');
  }
  return out;
}

Status RoadGraph::Save(const std::string& path) const {
  return WriteFile(path, Serialize());
}

StatusOr<RoadGraph> RoadGraph::Parse(const std::string& text) {
  LineScanner scan(text, "ltc-road");
  LTC_RETURN_IF_ERROR(scan.Header("# ltc-road v1"));
  // A "<key> <count>" line, then one line per item. The count is
  // untrusted: no more than the lines left.
  const auto list = [&scan](const char* key, std::int32_t lo, auto* items,
                            auto read_item) -> Status {
    std::int32_t count = 0;
    if (!scan.NextRecord()) return scan.Error(std::string("no ") + key);
    LTC_RETURN_IF_ERROR(scan.Expect(key));
    LTC_RETURN_IF_ERROR(scan.Int(&count, lo, scan.lines_left()));
    LTC_RETURN_IF_ERROR(scan.EndLine());
    items->resize(static_cast<std::size_t>(count));
    for (auto& item : *items) {
      if (!scan.NextRecord()) return scan.Error("truncated list");
      LTC_RETURN_IF_ERROR(read_item(&item));
      LTC_RETURN_IF_ERROR(scan.EndLine());
    }
    return Status::OK();
  };
  std::vector<Point> nodes;
  LTC_RETURN_IF_ERROR(list("nodes", 1, &nodes, [&scan](Point* p) -> Status {
    LTC_RETURN_IF_ERROR(scan.Real(&p->x));
    return scan.Real(&p->y);
  }));
  const auto last = static_cast<std::int64_t>(nodes.size()) - 1;
  std::vector<Edge> edges;
  LTC_RETURN_IF_ERROR(
      list("edges", 0, &edges, [&scan, last](Edge* e) -> Status {
        LTC_RETURN_IF_ERROR(scan.Int(&e->u, 0, last));
        LTC_RETURN_IF_ERROR(scan.Int(&e->v, 0, last));
        return scan.Real(&e->weight);
      }));
  if (scan.NextRecord()) return scan.Error("trailing content");
  LTC_RETURN_IF_ERROR(scan.Finish());
  return Build(std::move(nodes), edges);
}

StatusOr<RoadGraph> RoadGraph::Load(const std::string& path) {
  LTC_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  return Parse(text);
}

namespace {

// Forgets the last gather's distances and makes `origin` on the graph
// `graph_id` the key of the next ones. Only the used slots are emptied.
void BeginGather(std::uint64_t graph_id, const Point& origin, Workspace* ws) {
  if (ws->gather.empty()) ws->gather.resize(Workspace::kGatherSlots);
  for (const std::uint16_t s : ws->gather_used) {
    ws->gather[s] = Workspace::GatherEntry{};
  }
  ws->gather_used.clear();
  const PointBits bits = BitsOf(origin);
  ws->gather_graph_id = graph_id;
  ws->gather_x_bits = bits.x;
  ws->gather_y_bits = bits.y;
}

// Records Distance(gather origin, p) == d. Past half the slots the rest
// go unrecorded, and Distance recomputes them.
void RecordGather(const Point& p, double d, Workspace* ws) {
  if (ws->gather_used.size() >= Workspace::kGatherSlots / 2) return;
  const PointBits bits = BitsOf(p);
  std::size_t s = SlotOf(bits, Workspace::kGatherSlotBits);
  while (ws->gather[s].distance >= 0.0) {
    // A second task at the same point: the same distance is already there.
    if (ws->gather[s].x_bits == bits.x && ws->gather[s].y_bits == bits.y) {
      return;
    }
    s = (s + 1) % Workspace::kGatherSlots;
  }
  ws->gather[s] = Workspace::GatherEntry{bits.x, bits.y, d};
  ws->gather_used.push_back(static_cast<std::uint16_t>(s));
}

// The recorded Distance(a, b) when `a` is the last gather's origin on this
// graph and the gather emitted `b`; otherwise null.
const double* GatheredDistance(const Workspace& ws, std::uint64_t graph_id,
                               const Point& a, const Point& b) {
  if (ws.gather_graph_id != graph_id) return nullptr;
  const PointBits origin = BitsOf(a);
  if (origin.x != ws.gather_x_bits || origin.y != ws.gather_y_bits) {
    return nullptr;
  }
  const PointBits bits = BitsOf(b);
  for (std::size_t s = SlotOf(bits, Workspace::kGatherSlotBits);
       ws.gather[s].distance >= 0.0; s = (s + 1) % Workspace::kGatherSlots) {
    if (ws.gather[s].x_bits == bits.x && ws.gather[s].y_bits == bits.y) {
      return &ws.gather[s].distance;
    }
  }
  return nullptr;
}

}  // namespace

double RoadMetric::Distance(const Point& a, const Point& b) const {
  RoadGraph::Workspace& ws = LocalWorkspace();
  if (const double* d = GatheredDistance(ws, graph_->id(), a, b)) return *d;
  const std::int32_t u = graph_->Snap(a, &ws);
  const std::int32_t v = graph_->Snap(b, &ws);
  // The legs first: a + b == b + a, so the sum is symmetric bit for bit.
  const double legs =
      geo::Distance(a, graph_->node(u)) + geo::Distance(graph_->node(v), b);
  if (u == v) return legs;
  return legs + graph_->NodeDistance(u, v, &ws);
}

void RoadMetric::EligibleWithin(
    const GridIndex& grid, const Point& origin, double radius,
    const std::function<void(std::int64_t)>& visit) const {
  if (!(radius >= 0.0)) return;  // the grid visits nothing either
  RoadGraph::Workspace& ws = LocalWorkspace();
  const std::int32_t u = graph_->Snap(origin, &ws);
  BeginGather(graph_->id(), origin, &ws);
  const double approach = geo::Distance(origin, graph_->node(u));
  // The radius in whole ticks: a path longer than `need` ticks is longer
  // than the radius, and so is any Distance that adds legs to it.
  const double scaled = std::floor(std::ldexp(radius, graph_->tick_exponent()));
  constexpr std::int64_t kNeedCap = std::int64_t{1} << 62;
  const std::int64_t need = scaled < static_cast<double>(kNeedCap)
                                ? static_cast<std::int64_t>(scaled)
                                : kNeedCap;
  grid.ForEachInRadius(origin, radius, [&](std::int64_t id) {
    const Point& p = grid.point(id);
    const std::int32_t v = graph_->Snap(p, &ws);
    const std::int64_t t = graph_->ReachTicks(v, u, need, &ws);
    if (t > need && t != RoadGraph::kUnreachableTicks) return;
    // Distance(origin, p), summed in the same order.
    const double legs = approach + geo::Distance(graph_->node(v), p);
    const double d = legs + graph_->ToUnits(t);
    if (d <= radius) {
      RecordGather(p, d, &ws);
      visit(id);
    }
  });
}

std::string RoadMetric::Name() const {
  return "road(nodes=" + std::to_string(graph_->num_nodes()) +
         ",edges=" + std::to_string(graph_->num_edges()) + ")";
}

RoadGraph::Workspace& RoadMetric::LocalWorkspace() const {
  // One workspace per thread, shared across RoadMetric instances; the
  // graph-id key inside StartSearch resets it when graphs alternate.
  thread_local RoadGraph::Workspace ws;
  return ws;
}

}  // namespace geo
}  // namespace ltc
