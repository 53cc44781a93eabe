#include "spice/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/simd.hpp"

namespace mss::spice {

namespace {

/// Symmetrised, deduplicated adjacency (diagonal excluded) of a CSC
/// pattern, in compact CSR form — the graph all three ordering routines
/// walk. adj[ptr[v] .. ptr[v] + deg[v]) are the sorted neighbours of v.
struct SymAdjacency {
  std::vector<std::uint32_t> ptr;
  std::vector<std::uint32_t> adj;
  std::vector<std::uint32_t> deg;
};

[[nodiscard]] SymAdjacency symmetrized_adjacency(
    std::size_t dim, const std::vector<std::uint32_t>& col_ptr,
    const std::vector<std::uint32_t>& row_ind) {
  if (col_ptr.size() != dim + 1) {
    throw std::invalid_argument("sparse ordering: bad column pointer array");
  }
  const auto n = static_cast<std::uint32_t>(dim);
  SymAdjacency out;
  out.deg.assign(dim, 0);
  for (std::uint32_t c = 0; c < n; ++c) {
    for (std::uint32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      const std::uint32_t r = row_ind[p];
      if (r == c) continue;
      ++out.deg[r];
      ++out.deg[c];
    }
  }
  out.ptr.assign(dim + 1, 0);
  for (std::size_t v = 0; v < dim; ++v) {
    out.ptr[v + 1] = out.ptr[v] + out.deg[v];
  }
  out.adj.resize(out.ptr[dim]);
  {
    std::vector<std::uint32_t> fill = out.ptr;
    for (std::uint32_t c = 0; c < n; ++c) {
      for (std::uint32_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
        const std::uint32_t r = row_ind[p];
        if (r == c) continue;
        out.adj[fill[r]++] = c;
        out.adj[fill[c]++] = r;
      }
    }
  }
  for (std::size_t v = 0; v < dim; ++v) {
    const auto b = out.adj.begin() + out.ptr[v];
    const auto e = out.adj.begin() + out.ptr[v] + out.deg[v];
    std::sort(b, e);
    const auto last = std::unique(b, e);
    out.deg[v] = static_cast<std::uint32_t>(last - b);
  }
  return out;
}

// Internal variants take a prebuilt adjacency so Ordering::Auto can run
// RCM, AMD, and both fill predictions off one graph construction.
[[nodiscard]] std::vector<std::uint32_t> rcm_from_adjacency(
    std::size_t dim, const SymAdjacency& g);
[[nodiscard]] std::vector<std::uint32_t> amd_from_adjacency(
    std::size_t dim, const SymAdjacency& g);
[[nodiscard]] std::size_t fill_from_adjacency(
    std::size_t dim, const SymAdjacency& g,
    const std::vector<std::uint32_t>& order);

} // namespace

// ---------------------------------------------------------------------------
// Reverse-Cuthill-McKee ordering
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> rcm_order(std::size_t dim,
                                     const std::vector<std::uint32_t>& col_ptr,
                                     const std::vector<std::uint32_t>& row_ind) {
  return rcm_from_adjacency(dim, symmetrized_adjacency(dim, col_ptr, row_ind));
}

namespace {

std::vector<std::uint32_t> rcm_from_adjacency(std::size_t dim,
                                              const SymAdjacency& g) {
  const auto n = static_cast<std::uint32_t>(dim);

  std::vector<std::uint8_t> visited(dim, 0);
  std::vector<std::uint32_t> order;
  order.reserve(dim);
  std::vector<std::uint32_t> frontier, next;

  // Plain BFS used both for the pseudo-peripheral search and the CM sweep.
  const auto bfs = [&](std::uint32_t seed, bool record) -> std::uint32_t {
    std::vector<std::uint8_t> seen(dim, 0);
    seen[seed] = 1;
    frontier.assign(1, seed);
    std::uint32_t last_min_deg = seed;
    while (!frontier.empty()) {
      next.clear();
      for (const std::uint32_t v : frontier) {
        if (record) order.push_back(v);
        // Neighbours in ascending-degree order — the Cuthill-McKee rule.
        const std::uint32_t b = g.ptr[v];
        std::vector<std::uint32_t> nbrs(g.adj.begin() + b,
                                        g.adj.begin() + b + g.deg[v]);
        std::sort(nbrs.begin(), nbrs.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                    return g.deg[x] != g.deg[y] ? g.deg[x] < g.deg[y] : x < y;
                  });
        for (const std::uint32_t w : nbrs) {
          if (!seen[w]) {
            seen[w] = 1;
            next.push_back(w);
          }
        }
      }
      if (!next.empty()) {
        last_min_deg = *std::min_element(
            next.begin(), next.end(), [&](std::uint32_t x, std::uint32_t y) {
              return g.deg[x] != g.deg[y] ? g.deg[x] < g.deg[y] : x < y;
            });
      }
      frontier.swap(next);
    }
    if (record) {
      for (const std::uint32_t v : order) visited[v] = 1;
    }
    return last_min_deg;
  };

  for (std::uint32_t v0 = 0; v0 < n; ++v0) {
    if (visited[v0]) continue;
    // Pseudo-peripheral seed: two BFS hops towards an eccentric vertex.
    std::uint32_t seed = v0;
    seed = bfs(seed, /*record=*/false);
    seed = bfs(seed, /*record=*/false);
    bfs(seed, /*record=*/true);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

} // namespace

// ---------------------------------------------------------------------------
// Approximate-minimum-degree ordering
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> amd_order(std::size_t dim,
                                     const std::vector<std::uint32_t>& col_ptr,
                                     const std::vector<std::uint32_t>& row_ind) {
  return amd_from_adjacency(dim, symmetrized_adjacency(dim, col_ptr, row_ind));
}

namespace {

std::vector<std::uint32_t> amd_from_adjacency(std::size_t dim,
                                              const SymAdjacency& g) {
  const auto n = static_cast<std::uint32_t>(dim);

  // Quotient-graph state. Eliminating v turns it into an *element* whose
  // pivot list covers v's live neighbourhood; variables keep a list of
  // plain variable neighbours (avars) and adjacent elements (aelems).
  std::vector<std::vector<std::uint32_t>> avars(dim), aelems(dim);
  std::vector<std::vector<std::uint32_t>> elem_vars; // by element id
  std::vector<std::uint8_t> absorbed;                // by element id
  for (std::uint32_t v = 0; v < n; ++v) {
    avars[v].assign(g.adj.begin() + g.ptr[v],
                    g.adj.begin() + g.ptr[v] + g.deg[v]);
  }

  std::vector<std::uint32_t> adeg(dim);
  for (std::size_t v = 0; v < dim; ++v) adeg[v] = g.deg[v];

  // Lazy min-heap of (degree, vertex); stale entries are skipped on pop.
  using Entry = std::pair<std::uint32_t, std::uint32_t>;
  std::vector<Entry> heap;
  heap.reserve(dim);
  const auto cmp = std::greater<Entry>();
  for (std::uint32_t v = 0; v < n; ++v) heap.emplace_back(adeg[v], v);
  std::make_heap(heap.begin(), heap.end(), cmp);

  std::vector<std::uint8_t> eliminated(dim, 0);
  std::vector<std::uint32_t> stamp(dim, 0);
  std::uint32_t stamp_ctr = 0;
  std::vector<std::uint32_t> order;
  order.reserve(dim);
  std::vector<std::uint32_t> lv; // pivot list of the element being formed

  while (order.size() < dim) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (eliminated[v] || d != adeg[v]) continue; // stale entry

    // Element list Lv = live neighbourhood of v: plain variable
    // neighbours plus the members of every adjacent element.
    ++stamp_ctr;
    stamp[v] = stamp_ctr;
    lv.clear();
    for (const std::uint32_t u : avars[v]) {
      if (!eliminated[u] && stamp[u] != stamp_ctr) {
        stamp[u] = stamp_ctr;
        lv.push_back(u);
      }
    }
    for (const std::uint32_t e : aelems[v]) {
      for (const std::uint32_t u : elem_vars[e]) {
        if (!eliminated[u] && u != v && stamp[u] != stamp_ctr) {
          stamp[u] = stamp_ctr;
          lv.push_back(u);
        }
      }
    }
    // Absorb the elements v was attached to — their cliques are subsumed
    // by the new element.
    for (const std::uint32_t e : aelems[v]) {
      absorbed[e] = 1;
      elem_vars[e].clear();
      elem_vars[e].shrink_to_fit();
    }
    const auto eid = static_cast<std::uint32_t>(elem_vars.size());
    elem_vars.push_back(lv);
    absorbed.push_back(0);
    eliminated[v] = 1;
    order.push_back(v);

    // Update each member of the new element: prune variable neighbours now
    // covered by the element (v itself and every other Lv member), drop
    // absorbed elements, attach the new one, and recompute the
    // approximate degree |avars| + sum of adjacent element sizes (minus
    // self per element) — the classic AMD overcount bound.
    for (const std::uint32_t u : lv) {
      auto& av = avars[u];
      av.erase(std::remove_if(av.begin(), av.end(),
                              [&](std::uint32_t w) {
                                return eliminated[w] || stamp[w] == stamp_ctr;
                              }),
               av.end());
      auto& ae = aelems[u];
      ae.erase(std::remove_if(ae.begin(), ae.end(),
                              [&](std::uint32_t e) { return absorbed[e] != 0; }),
               ae.end());
      ae.push_back(eid);
      std::size_t deg_u = av.size();
      for (const std::uint32_t e : ae) deg_u += elem_vars[e].size() - 1;
      adeg[u] = static_cast<std::uint32_t>(
          std::min<std::size_t>(deg_u, dim == 0 ? 0 : dim - 1));
      heap.emplace_back(adeg[u], u);
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  return order;
}

} // namespace

// ---------------------------------------------------------------------------
// Symbolic fill prediction
// ---------------------------------------------------------------------------

std::size_t symbolic_fill(std::size_t dim,
                          const std::vector<std::uint32_t>& col_ptr,
                          const std::vector<std::uint32_t>& row_ind,
                          const std::vector<std::uint32_t>& order) {
  if (order.size() != dim) {
    throw std::invalid_argument("symbolic_fill: order size mismatch");
  }
  return fill_from_adjacency(dim, symmetrized_adjacency(dim, col_ptr, row_ind),
                             order);
}

namespace {

std::size_t fill_from_adjacency(std::size_t dim, const SymAdjacency& g,
                                const std::vector<std::uint32_t>& order) {
  std::vector<std::uint32_t> pos(dim);
  for (std::uint32_t k = 0; k < dim; ++k) pos[order[k]] = k;

  // George-Liu row-structure walk: row k of L holds the nodes on the
  // elimination-tree paths from each below-diagonal neighbour up towards
  // k; the tree is built on the fly (parent set at first discovery).
  std::vector<std::int32_t> parent(dim, -1);
  std::vector<std::int32_t> mark(dim, -1);
  std::size_t nnz_l = dim; // diagonal
  for (std::uint32_t k = 0; k < dim; ++k) {
    const std::uint32_t v = order[k];
    mark[k] = static_cast<std::int32_t>(k);
    for (std::uint32_t p = g.ptr[v]; p < g.ptr[v] + g.deg[v]; ++p) {
      std::uint32_t j = pos[g.adj[p]];
      if (j >= k) continue;
      while (mark[j] != static_cast<std::int32_t>(k)) {
        mark[j] = static_cast<std::int32_t>(k);
        ++nnz_l;
        if (parent[j] < 0) {
          parent[j] = static_cast<std::int32_t>(k);
          break;
        }
        j = static_cast<std::uint32_t>(parent[j]);
      }
    }
  }
  return nnz_l;
}

// ---------------------------------------------------------------------------
// Supernodal panel kernel
// ---------------------------------------------------------------------------

/// Panel width cap. Wider panels amortise better but recompute more on a
/// partial restart (restarts snap to panel boundaries); 32 columns keeps a
/// panel column comfortably inside L1 at array-scale below-block sizes.
constexpr std::size_t kMaxPanelWidth = 32;

/// acc[0..n) += col[0..n) * u over the portable Batch lanes. Lane-wise
/// identical to the scalar loop (Batch has no horizontal ops), so the
/// supernodal path's rounding difference vs the scalar path comes only
/// from the panel-level accumulation order, never from this kernel.
template <typename T>
inline void axpy_batched(T* acc, const T* col, T u, std::size_t n) {
  constexpr std::size_t W = 4;
  using Bt = mss::util::Batch<T, W>;
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    Bt a{};
    Bt c{};
    for (std::size_t l = 0; l < W; ++l) a.lane[l] = acc[k + l];
    for (std::size_t l = 0; l < W; ++l) c.lane[l] = col[k + l];
    a += c * u;
    for (std::size_t l = 0; l < W; ++l) acc[k + l] = a.lane[l];
  }
  for (; k < n; ++k) acc[k] += col[k] * u;
}

/// Rank-4 fused update: acc += c0*u0 + c1*u1 + c2*u2 + c3*u3 in one pass.
/// Four times fewer accumulator loads/stores per flop than four rank-1
/// passes — the rank-1 AXPY has the same memory traffic as the scalar
/// left-looking scatter loop, so the fusion is where the panel path's
/// actual arithmetic-intensity advantage comes from. Per element the
/// additions run in the same order as the sequential rank-1 passes
/// (u0 first, u3 last), so the result is bit-identical to them.
template <typename T>
inline void axpy4_batched(T* acc, const T* const* cols, const T* u,
                          std::size_t n) {
  constexpr std::size_t W = 4;
  using Bt = mss::util::Batch<T, W>;
  const T* c0 = cols[0];
  const T* c1 = cols[1];
  const T* c2 = cols[2];
  const T* c3 = cols[3];
  const T u0 = u[0], u1 = u[1], u2 = u[2], u3 = u[3];
  std::size_t k = 0;
  for (; k + W <= n; k += W) {
    Bt a{};
    Bt c{};
    for (std::size_t l = 0; l < W; ++l) a.lane[l] = acc[k + l];
    for (std::size_t l = 0; l < W; ++l) c.lane[l] = c0[k + l];
    a += c * u0;
    for (std::size_t l = 0; l < W; ++l) c.lane[l] = c1[k + l];
    a += c * u1;
    for (std::size_t l = 0; l < W; ++l) c.lane[l] = c2[k + l];
    a += c * u2;
    for (std::size_t l = 0; l < W; ++l) c.lane[l] = c3[k + l];
    a += c * u3;
    for (std::size_t l = 0; l < W; ++l) acc[k + l] = a.lane[l];
  }
  for (; k < n; ++k) {
    T a = acc[k];
    a += c0[k] * u0;
    a += c1[k] * u1;
    a += c2[k] * u2;
    a += c3[k] * u3;
    acc[k] = a;
  }
}

/// Runtime-dispatched wrappers of the real-valued rank-1/rank-4 updates
/// (the supernodal hot loop); the complex AC instantiation keeps the
/// portable path (target_clones does not apply to templates).
MSS_SIMD_CLONES
void panel_axpy(double* acc, const double* col, double u, std::size_t n) {
  axpy_batched(acc, col, u, n);
}

void panel_axpy(std::complex<double>* acc, const std::complex<double>* col,
                std::complex<double> u, std::size_t n) {
  axpy_batched(acc, col, u, n);
}

MSS_SIMD_CLONES
void panel_axpy4(double* acc, const double* const* cols, const double* u,
                 std::size_t n) {
  axpy4_batched(acc, cols, u, n);
}

void panel_axpy4(std::complex<double>* acc,
                 const std::complex<double>* const* cols,
                 const std::complex<double>* u, std::size_t n) {
  axpy4_batched(acc, cols, u, n);
}

} // namespace

// ---------------------------------------------------------------------------
// SparseSolverT
// ---------------------------------------------------------------------------

template <typename T>
SparseSolverT<T>::SparseSolverT(double pivot_tol) : tol_(pivot_tol) {
  if (tol_ <= 0.0 || tol_ > 1.0) {
    throw std::invalid_argument("SparseSolverT: pivot_tol must be in (0, 1]");
  }
}

template <typename T>
void SparseSolverT<T>::set_ordering(Ordering ordering) {
  if (ordering == ordering_) return;
  ordering_ = ordering;
  pattern_dirty_ = true; // re-run the symbolic phase under the new policy
}

template <typename T>
void SparseSolverT<T>::set_supernodal(bool enabled) {
  if (enabled == supernodal_) return;
  supernodal_ = enabled;
  // The two modes agree only to rounding, so a partial restart must never
  // reuse a prefix factored under the other mode.
  factor_valid_ = false;
}

template <typename T>
void SparseSolverT<T>::begin(std::size_t dim) {
  if (dim != dim_) {
    dim_ = dim;
    slot_of_.clear();
    slot_row_.clear();
    slot_col_.clear();
    vals_.clear();
    pattern_dirty_ = true;
    factor_valid_ = false;
    this->bump_epoch(); // outstanding slot handles are now meaningless
  }
  std::fill(vals_.begin(), vals_.end(), T{});
}

template <typename T>
std::uint32_t SparseSolverT<T>::slot(std::size_t i, std::size_t j) {
  const std::uint64_t key = (static_cast<std::uint64_t>(i) << 32) |
                            static_cast<std::uint64_t>(j);
  const auto [it, inserted] =
      slot_of_.try_emplace(key, static_cast<std::uint32_t>(slot_row_.size()));
  if (inserted) {
    slot_row_.push_back(static_cast<std::uint32_t>(i));
    slot_col_.push_back(static_cast<std::uint32_t>(j));
    vals_.push_back(T{});
    pattern_dirty_ = true;
  }
  return it->second;
}

template <typename T>
void SparseSolverT<T>::add(std::size_t i, std::size_t j, T v) {
  vals_[slot(i, j)] += v;
}

template <typename T>
void SparseSolverT<T>::rebuild_symbolic() {
  const std::size_t nnz = slot_row_.size();
  // Sort slots by (col, row) to obtain the CSC layout and the slot -> CSC
  // scatter map used by every later gather.
  std::vector<std::uint32_t> perm(nnz);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](std::uint32_t a, std::uint32_t b) {
    return slot_col_[a] != slot_col_[b] ? slot_col_[a] < slot_col_[b]
                                        : slot_row_[a] < slot_row_[b];
  });
  col_ptr_.assign(dim_ + 1, 0);
  for (std::size_t s = 0; s < nnz; ++s) ++col_ptr_[slot_col_[s] + 1];
  for (std::size_t c = 0; c < dim_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  row_ind_.resize(nnz);
  csc_of_slot_.resize(nnz);
  for (std::size_t k = 0; k < nnz; ++k) {
    const std::uint32_t s = perm[k];
    row_ind_[k] = slot_row_[s];
    csc_of_slot_[s] = static_cast<std::uint32_t>(k);
  }

  switch (ordering_) {
    case Ordering::Natural:
      q_.resize(dim_);
      std::iota(q_.begin(), q_.end(), 0u);
      ordering_used_ = "natural";
      break;
    case Ordering::Rcm:
      q_ = rcm_order(dim_, col_ptr_, row_ind_);
      ordering_used_ = "rcm";
      break;
    case Ordering::Amd:
      q_ = amd_order(dim_, col_ptr_, row_ind_);
      ordering_used_ = "amd";
      break;
    case Ordering::Auto: {
      // Profile heuristic vs fill heuristic: predict nnz(L) for both and
      // keep the winner. One-time cost per pattern, O(nnz(L)) each, off a
      // single shared adjacency construction.
      const SymAdjacency g = symmetrized_adjacency(dim_, col_ptr_, row_ind_);
      auto rcm = rcm_from_adjacency(dim_, g);
      auto amd = amd_from_adjacency(dim_, g);
      const std::size_t fill_rcm = fill_from_adjacency(dim_, g, rcm);
      const std::size_t fill_amd = fill_from_adjacency(dim_, g, amd);
      if (fill_amd < fill_rcm) {
        q_ = std::move(amd);
        ordering_used_ = "amd";
      } else {
        q_ = std::move(rcm);
        ordering_used_ = "rcm";
      }
      break;
    }
  }
  qpos_.resize(dim_);
  for (std::uint32_t k = 0; k < dim_; ++k) qpos_[q_[k]] = k;

  csc_vals_.assign(nnz, T{});
  cached_vals_.assign(nnz, T{});
  work_.assign(dim_, T{});
  mark_.assign(dim_, 0);
  pinv_.assign(dim_, -1);
  prow_.assign(dim_, 0);
  diag_.assign(dim_, T{});
  sol_.assign(dim_, T{});
  heap_.clear();
  unassigned_.clear();
  sn_mark_.assign(dim_, 0); // sn_mark_ctr_ stays monotonic: stale-proof
  sn_loc_.assign(dim_, 0);
  pattern_dirty_ = false;
  factor_valid_ = false;
}

template <typename T>
bool SparseSolverT<T>::factor(std::size_t start) {
  const std::size_t n = dim_;
  if (start == 0) {
    l_ptr_.assign(1, 0);
    l_rows_.clear();
    l_vals_.clear();
    u_ptr_.assign(1, 0);
    u_rows_.clear();
    u_vals_.clear();
    std::fill(pinv_.begin(), pinv_.end(), -1);
    sn_start_.clear();
    sn_width_.clear();
    sn_of_col_.assign(n, 0);
    sn_rows_ptr_.assign(1, 0);
    sn_rows_.clear();
    sn_panel_ptr_.clear();
    sn_panel_vals_.clear();
    sn_panels_multi_ = 0;
    sn_cols_multi_ = 0;
  } else {
    // Keep the factored prefix [0, start); free the pivot assignments of
    // the recomputed suffix (prow_ is complete — partial restarts only run
    // on top of a full valid factorization).
    for (std::size_t k = start; k < n; ++k) pinv_[prow_[k]] = -1;
    l_rows_.resize(l_ptr_[start]);
    l_vals_.resize(l_ptr_[start]);
    l_ptr_.resize(start + 1);
    u_rows_.resize(u_ptr_[start]);
    u_vals_.resize(u_ptr_[start]);
    u_ptr_.resize(start + 1);
    if (supernodal_ && !sn_start_.empty()) {
      // `start` is a panel boundary (solve() snaps it down); drop every
      // panel at or after it and recount the width >= 2 observables.
      const std::uint32_t p0 = sn_of_col_[start];
      sn_rows_.resize(sn_rows_ptr_[p0]);
      sn_rows_ptr_.resize(p0 + 1);
      sn_panel_vals_.resize(sn_panel_ptr_[p0]);
      sn_panel_ptr_.resize(p0);
      sn_start_.resize(p0);
      sn_width_.resize(p0);
      sn_panels_multi_ = 0;
      sn_cols_multi_ = 0;
      for (const std::uint32_t w : sn_width_) {
        if (w >= 2) {
          ++sn_panels_multi_;
          sn_cols_multi_ += w;
        }
      }
    }
  }
  last_factor_start_ = start;
  factor_cols_total_ += n - start;
  // Trailing detection panel: columns join while their below-diagonal L
  // pattern nests exactly into the panel's opening pattern.
  std::size_t open_start = start;
  std::size_t open_nb0 = 0;

  const auto heap_cmp = std::greater<std::uint32_t>();
  bool singular = false;

  for (std::size_t k = start; k < n && !singular; ++k) {
    const std::uint32_t col = q_[k];
    ++sn_col_stamp_; // new target column: every panel is unapplied again
    heap_.clear();
    unassigned_.clear();
    u_scratch_rows_.clear();
    u_scratch_vals_.clear();
    touched_.clear();

    // Scatter A(:, col). The assembled pattern has unique positions, so a
    // plain store per row suffices.
    for (std::uint32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p) {
      const std::uint32_t r = row_ind_[p];
      work_[r] = csc_vals_[p];
      mark_[r] = 1;
      touched_.push_back(r);
      if (pinv_[r] >= 0) {
        heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
        std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
      } else {
        unassigned_.push_back(r);
      }
    }

    // Left-looking update: apply earlier pivot columns in ascending pivot
    // order. Fill introduced by column t is always assigned to a pivot
    // later than t (or unassigned), so the min-heap pops monotonically and
    // each pivot is pushed at most once (rows are marked on first touch).
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
      const std::uint32_t t = heap_.back();
      heap_.pop_back();
      if (supernodal_ && t < open_start && sn_width_[sn_of_col_[t]] >= 2) {
        // First popped member of a closed multi-column panel: apply the
        // whole panel densely. Later members of the same panel pop with
        // the done-stamp set and are skipped — their U entries were
        // produced here, in ascending order (members below the first
        // touched one solve to exact zero in the triangle).
        const std::uint32_t panel = sn_of_col_[t];
        if (sn_done_[panel] == sn_col_stamp_) continue;
        sn_done_[panel] = sn_col_stamp_;
        apply_closed_panel(panel, static_cast<std::int32_t>(k));
        continue;
      }
      const T ut = work_[prow_[t]];
      if (ut == T{}) continue; // exact numeric zero: no U entry, no update
      u_scratch_rows_.push_back(t);
      u_scratch_vals_.push_back(ut);
      for (std::uint32_t p = l_ptr_[t]; p < l_ptr_[t + 1]; ++p) {
        const std::uint32_t r = l_rows_[p];
        const T delta = l_vals_[p] * ut;
        if (!mark_[r]) {
          mark_[r] = 1;
          touched_.push_back(r);
          work_[r] = -delta;
          if (pinv_[r] >= 0) {
            heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
            std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
          } else {
            unassigned_.push_back(r);
          }
        } else {
          work_[r] -= delta;
        }
      }
    }

    // Threshold partial pivoting among the not-yet-pivotal rows; the
    // diagonal row wins when within tol_ of the column maximum (keeps the
    // ordering's structure), otherwise the max-magnitude row (handles the
    // zero-diagonal branch rows of voltage sources).
    double best = 0.0;
    std::uint32_t pr = 0;
    bool have = false;
    for (const std::uint32_t r : unassigned_) {
      const double m = std::abs(work_[r]);
      if (!have || m > best) {
        best = m;
        pr = r;
        have = true;
      }
    }
    if (!have || best < 1e-300) {
      singular = true;
    } else {
      if (col < n && pinv_[col] < 0 && mark_[col]) {
        const double dmag = std::abs(work_[col]);
        if (dmag > 0.0 && dmag >= tol_ * best) pr = col;
      }
      const T piv = work_[pr];
      pinv_[pr] = static_cast<std::int32_t>(k);
      prow_[k] = pr;
      diag_[k] = piv;

      u_rows_.insert(u_rows_.end(), u_scratch_rows_.begin(),
                     u_scratch_rows_.end());
      u_vals_.insert(u_vals_.end(), u_scratch_vals_.begin(),
                     u_scratch_vals_.end());
      u_ptr_.push_back(static_cast<std::uint32_t>(u_rows_.size()));

      for (const std::uint32_t r : unassigned_) {
        if (r == pr) continue;
        const T lv = work_[r] / piv;
        if (lv == T{}) continue;
        l_rows_.push_back(r);
        l_vals_.push_back(lv);
      }
      l_ptr_.push_back(static_cast<std::uint32_t>(l_rows_.size()));

      if (supernodal_) {
        // On-the-fly detection: position k joins the open panel iff its
        // pivot row and all of its L rows lie in the panel's opening row
        // set and the count matches the nested-pattern identity
        // |L_k| = nb0 - (k - open_start). Assigned rows can never appear
        // in a later L column, so subset + count <=> exact equality.
        const std::uint32_t lbeg = l_ptr_[k];
        const std::uint32_t lend = l_ptr_[k + 1];
        const std::size_t nbk = lend - lbeg;
        bool joins = false;
        if (k > open_start && k - open_start < kMaxPanelWidth &&
            open_nb0 == nbk + (k - open_start) &&
            sn_mark_[pr] == sn_mark_ctr_) {
          joins = true;
          for (std::uint32_t p = lbeg; p < lend; ++p) {
            if (sn_mark_[l_rows_[p]] != sn_mark_ctr_) {
              joins = false;
              break;
            }
          }
        }
        if (!joins) {
          if (k > open_start) close_panel(open_start, k);
          open_start = k;
          open_nb0 = nbk;
          ++sn_mark_ctr_;
          for (std::uint32_t p = lbeg; p < lend; ++p) {
            sn_mark_[l_rows_[p]] = sn_mark_ctr_;
          }
        }
      }
    }

    for (const std::uint32_t r : touched_) {
      mark_[r] = 0;
      work_[r] = T{};
    }
  }
  if (supernodal_ && !singular && open_start < n) close_panel(open_start, n);
  return !singular;
}

template <typename T>
void SparseSolverT<T>::close_panel(std::size_t s, std::size_t e) {
  const auto panel = static_cast<std::uint32_t>(sn_start_.size());
  const auto w = static_cast<std::uint32_t>(e - s);
  sn_start_.push_back(static_cast<std::uint32_t>(s));
  sn_width_.push_back(w);
  for (std::size_t pos = s; pos < e; ++pos) {
    sn_of_col_[pos] = panel;
  }
  // Canonical below-row order: the last member's L rows — the nested
  // pattern's intersection — in their stored order.
  const std::uint32_t lbeg = l_ptr_[e - 1];
  const std::uint32_t lend = l_ptr_[e];
  const std::uint32_t nb = lend - lbeg;
  sn_rows_.insert(sn_rows_.end(), l_rows_.begin() + lbeg,
                  l_rows_.begin() + lend);
  sn_rows_ptr_.push_back(static_cast<std::uint32_t>(sn_rows_.size()));
  sn_panel_ptr_.push_back(static_cast<std::uint32_t>(sn_panel_vals_.size()));
  if (sn_done_.size() <= panel) sn_done_.resize(panel + 1, 0);
  if (w < 2) return; // singletons keep the scalar per-column path
  // Dense column-major copy: [w unit-triangle rows][nb below rows] per
  // column; entries absent from a member's L column stay exact zero.
  const std::size_t len = static_cast<std::size_t>(w) + nb;
  for (std::uint32_t j = 0; j < w; ++j) sn_loc_[prow_[s + j]] = j;
  for (std::uint32_t i = 0; i < nb; ++i) {
    sn_loc_[l_rows_[lbeg + i]] = w + i;
  }
  const std::size_t base = sn_panel_vals_.size();
  sn_panel_vals_.resize(base + static_cast<std::size_t>(w) * len, T{});
  for (std::uint32_t i = 0; i < w; ++i) {
    T* colv = sn_panel_vals_.data() + base + i * len;
    for (std::uint32_t p = l_ptr_[s + i]; p < l_ptr_[s + i + 1]; ++p) {
      colv[sn_loc_[l_rows_[p]]] = l_vals_[p];
    }
  }
  ++sn_panels_multi_;
  sn_cols_multi_ += w;
}

template <typename T>
void SparseSolverT<T>::apply_closed_panel(std::uint32_t panel,
                                          std::int32_t pivotal_bound) {
  const auto heap_cmp = std::greater<std::uint32_t>();
  const std::uint32_t w = sn_width_[panel];
  const std::uint32_t s = sn_start_[panel];
  const std::uint32_t rb = sn_rows_ptr_[panel];
  const std::uint32_t nb = sn_rows_ptr_[panel + 1] - rb;
  const std::size_t len = w + nb;
  const T* panelv = sn_panel_vals_.data() + sn_panel_ptr_[panel];
  // Gather the raw pivot-row values; the dense unit-lower solve
  // applies the intra-panel updates (external updates from pivots
  // before the panel are complete — the heap pops ascending).
  if (sn_u_.size() < w) sn_u_.resize(w);
  for (std::uint32_t j = 0; j < w; ++j) {
    const std::uint32_t r = prow_[s + j];
    sn_u_[j] = mark_[r] ? work_[r] : T{};
  }
  for (std::uint32_t i = 0; i + 1 < w; ++i) {
    const T ui = sn_u_[i];
    if (ui == T{}) continue;
    const T* colv = panelv + i * len;
    for (std::uint32_t j = i + 1; j < w; ++j) sn_u_[j] -= colv[j] * ui;
  }
  for (std::uint32_t j = 0; j < w; ++j) {
    if (sn_u_[j] == T{}) continue;
    u_scratch_rows_.push_back(s + j);
    u_scratch_vals_.push_back(sn_u_[j]);
  }
  if (nb != 0) {
    // Rank-w update of the shared below-block: compress the nonzero
    // u's, accumulate densely (rank-4 fused SIMD passes, rank-1
    // remainder), scatter-subtract once. The rank-4 fusion quarters
    // the accumulator traffic per flop; per element the additions
    // keep the sequential rank-1 order, so the blocking is
    // bit-neutral.
    if (sn_acc_.size() < nb) sn_acc_.resize(nb);
    std::fill_n(sn_acc_.begin(), nb, T{});
    const T* ucols[kMaxPanelWidth];
    T uvals[kMaxPanelWidth];
    std::uint32_t m = 0;
    for (std::uint32_t i = 0; i < w; ++i) {
      const T ui = sn_u_[i];
      if (ui == T{}) continue;
      ucols[m] = panelv + i * len + w;
      uvals[m] = ui;
      ++m;
    }
    std::uint32_t i4 = 0;
    for (; i4 + 4 <= m; i4 += 4) {
      panel_axpy4(sn_acc_.data(), ucols + i4, uvals + i4, nb);
    }
    for (; i4 < m; ++i4) {
      panel_axpy(sn_acc_.data(), ucols[i4], uvals[i4], nb);
    }
    const bool any = m != 0;
    if (any) {
      const std::uint32_t* rows = sn_rows_.data() + rb;
      for (std::uint32_t idx = 0; idx < nb; ++idx) {
        const T d = sn_acc_[idx];
        if (d == T{}) continue;
        const std::uint32_t r = rows[idx];
        if (!mark_[r]) {
          mark_[r] = 1;
          touched_.push_back(r);
          work_[r] = -d;
          if (pinv_[r] >= 0 && pinv_[r] < pivotal_bound) {
            heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
            std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
          } else {
            unassigned_.push_back(r);
          }
        } else {
          work_[r] -= d;
        }
      }
    }
  }
}

template <typename T>
bool SparseSolverT<T>::replay_column(std::size_t k) {
  const std::uint32_t col = q_[k];
  const auto kb = static_cast<std::int32_t>(k);
  const auto heap_cmp = std::greater<std::uint32_t>();
  ++sn_col_stamp_; // new target column: every panel is unapplied again
  heap_.clear();
  unassigned_.clear();
  u_scratch_rows_.clear();
  u_scratch_vals_.clear();
  l_scratch_vals_.clear();
  touched_.clear();

  const auto finish = [this](bool ok) {
    for (const std::uint32_t r : touched_) {
      mark_[r] = 0;
      work_[r] = T{};
    }
    return ok;
  };

  // Scatter A(:, col). Rows pivotal before position k push their pivot;
  // rows assigned at or after k were still pivot candidates when k was
  // first factored, so they stay candidates in the replay.
  for (std::uint32_t p = col_ptr_[col]; p < col_ptr_[col + 1]; ++p) {
    const std::uint32_t r = row_ind_[p];
    work_[r] = csc_vals_[p];
    mark_[r] = 1;
    touched_.push_back(r);
    if (pinv_[r] >= 0 && pinv_[r] < kb) {
      heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
      std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
    } else {
      unassigned_.push_back(r);
    }
  }

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), heap_cmp);
    const std::uint32_t t = heap_.back();
    heap_.pop_back();
    if (supernodal_ && !sn_start_.empty()) {
      // A panel was *closed* while column k was originally factored iff it
      // ends strictly before k (the panel ending exactly at k was still
      // open — its close decision was made by k itself). Those pop through
      // the dense path; the trailing open panel's members stay scalar,
      // which replays the original trace bit-for-bit.
      const std::uint32_t panel = sn_of_col_[t];
      if (sn_width_[panel] >= 2 &&
          sn_start_[panel] + sn_width_[panel] < static_cast<std::uint32_t>(k)) {
        if (sn_done_[panel] == sn_col_stamp_) continue;
        sn_done_[panel] = sn_col_stamp_;
        apply_closed_panel(panel, kb);
        continue;
      }
    }
    const T ut = work_[prow_[t]];
    if (ut == T{}) continue; // exact numeric zero: no U entry, no update
    u_scratch_rows_.push_back(t);
    u_scratch_vals_.push_back(ut);
    for (std::uint32_t p = l_ptr_[t]; p < l_ptr_[t + 1]; ++p) {
      const std::uint32_t r = l_rows_[p];
      const T delta = l_vals_[p] * ut;
      if (!mark_[r]) {
        mark_[r] = 1;
        touched_.push_back(r);
        work_[r] = -delta;
        if (pinv_[r] >= 0 && pinv_[r] < kb) {
          heap_.push_back(static_cast<std::uint32_t>(pinv_[r]));
          std::push_heap(heap_.begin(), heap_.end(), heap_cmp);
        } else {
          unassigned_.push_back(r);
        }
      } else {
        work_[r] -= delta;
      }
    }
  }

  // The same threshold-pivoting rule as factor(); the replay only commits
  // when it lands on the row the stored factorization chose.
  double best = 0.0;
  std::uint32_t pr = 0;
  bool have = false;
  for (const std::uint32_t r : unassigned_) {
    const double m = std::abs(work_[r]);
    if (!have || m > best) {
      best = m;
      pr = r;
      have = true;
    }
  }
  if (!have || best < 1e-300) return finish(false);
  if (col < dim_ && (pinv_[col] < 0 || pinv_[col] >= kb) && mark_[col]) {
    const double dmag = std::abs(work_[col]);
    if (dmag > 0.0 && dmag >= tol_ * best) pr = col;
  }
  if (pr != prow_[k]) return finish(false);

  // U must replay the stored trace exactly (same rows, same order).
  const std::uint32_t ub = u_ptr_[k];
  const std::uint32_t ue = u_ptr_[k + 1];
  if (ue - ub != u_scratch_rows_.size()) return finish(false);
  for (std::uint32_t i = 0; i < ue - ub; ++i) {
    if (u_rows_[ub + i] != u_scratch_rows_[i]) return finish(false);
  }

  // L likewise: candidates in insertion order, exact zeros dropped, must
  // reproduce the stored row sequence.
  const T piv = work_[pr];
  const std::uint32_t lb = l_ptr_[k];
  const std::uint32_t le = l_ptr_[k + 1];
  std::uint32_t li = 0;
  for (const std::uint32_t r : unassigned_) {
    if (r == pr) continue;
    const T lv = work_[r] / piv;
    if (lv == T{}) continue;
    if (li >= le - lb || l_rows_[lb + li] != r) return finish(false);
    l_scratch_vals_.push_back(lv);
    ++li;
  }
  if (li != le - lb) return finish(false);

  diag_[k] = piv;
  std::copy(u_scratch_vals_.begin(), u_scratch_vals_.end(),
            u_vals_.begin() + ub);
  std::copy(l_scratch_vals_.begin(), l_scratch_vals_.end(),
            l_vals_.begin() + lb);
  return finish(true);
}

template <typename T>
bool SparseSolverT<T>::refactor_scattered(std::size_t first_dirty,
                                          bool& engaged) {
  engaged = false;
  const std::size_t n = dim_;
  // Propagate dirtiness through the stored U structure: a clean column
  // whose U column references a dirty earlier pivot sees different
  // updates and must be recomputed; everything else replays identically
  // and keeps its stored L/U column. The walk stops at the first dirty
  // position inside a width >= 2 panel — panel dense values are only
  // rebuilt by close_panel(), so from that panel's start the classic
  // suffix restart takes over.
  std::size_t cutoff = n;
  for (std::size_t k = first_dirty; k < n; ++k) {
    if (!dirty_pos_[k]) {
      for (std::uint32_t p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p) {
        if (dirty_pos_[u_rows_[p]]) {
          dirty_pos_[k] = 1;
          break;
        }
      }
    }
    if (dirty_pos_[k] && supernodal_ && !sn_start_.empty() &&
        sn_width_[sn_of_col_[k]] >= 2) {
      cutoff = sn_start_[sn_of_col_[k]];
      break;
    }
  }
  std::size_t scattered = 0;
  for (std::size_t k = first_dirty; k < cutoff; ++k) scattered += dirty_pos_[k];

  // Engage only when skipping clean columns buys enough over the suffix
  // restart (which has no per-column replay checks): at least a quarter
  // of the suffix must be skippable.
  std::size_t suffix_start = first_dirty;
  if (suffix_start > 0 && supernodal_ && !sn_start_.empty()) {
    suffix_start = sn_start_[sn_of_col_[suffix_start - 1]];
  }
  if (scattered + (n - cutoff) >= ((n - suffix_start) * 3) / 4) return true;
  engaged = true;

  // Suffix restart from position s, with the same panel snap solve()
  // applies: the column at s may have a different L pattern under the new
  // values, which can change the extend/close decision of the panel
  // containing s-1 — re-running that panel re-makes the decision exactly
  // the way a from-scratch factorization would.
  const auto suffix_from = [&](std::size_t s) {
    if (s > 0 && supernodal_ && !sn_start_.empty()) {
      s = sn_start_[sn_of_col_[s - 1]];
    }
    const bool ok = factor(s);
    if (ok) last_factor_start_ = std::min(last_factor_start_, first_dirty);
    return ok;
  };

  for (std::size_t k = first_dirty; k < cutoff; ++k) {
    if (!dirty_pos_[k]) continue;
    // Values drifted past a pivot choice, a pattern row, or an exact-zero
    // drop: finish with the suffix path from here.
    if (!replay_column(k)) return suffix_from(k);
    ++factor_cols_total_;
    ++scattered_cols_total_;
  }
  if (cutoff < n) return suffix_from(cutoff);
  last_factor_start_ = first_dirty;
  return true;
}

template <typename T>
bool SparseSolverT<T>::solve(const std::vector<T>& b, std::vector<T>& x) {
  if (b.size() != dim_) {
    throw std::invalid_argument("SparseSolverT: rhs dimension mismatch");
  }
  if (pattern_dirty_) rebuild_symbolic();

  // Gather the slot-ordered accumulation into CSC order. Slots not stamped
  // in this pass hold zero, which keeps the pattern stable across passes.
  for (std::size_t s = 0; s < csc_of_slot_.size(); ++s) {
    csc_vals_[csc_of_slot_[s]] = vals_[s];
  }

  // Dirty scan, column-wise: the first changed pivot position bounds what
  // the refactorization must recompute (a left-looking column depends only
  // on its A column and earlier pivot columns). The same pass marks every
  // own-dirty pivot position so the scattered refactorization can skip the
  // clean columns inside the suffix without rescanning the values.
  std::size_t first_dirty = std::numeric_limits<std::size_t>::max();
  if (factor_valid_) {
    dirty_pos_.assign(dim_, 0);
    for (std::size_t c = 0; c < dim_; ++c) {
      for (std::uint32_t p = col_ptr_[c]; p < col_ptr_[c + 1]; ++p) {
        if (csc_vals_[p] != cached_vals_[p]) {
          dirty_pos_[qpos_[c]] = 1;
          if (qpos_[c] < first_dirty) first_dirty = qpos_[c];
          break;
        }
      }
    }
  } else {
    first_dirty = 0;
  }

  if (first_dirty != std::numeric_limits<std::size_t>::max()) {
    const bool scatter_eligible = partial_ && factor_valid_;
    factor_valid_ = false;
    bool engaged = false;
    bool ok = false;
    if (scatter_eligible) {
      ok = refactor_scattered(first_dirty, engaged);
    }
    if (!engaged) {
      std::size_t start = scatter_eligible ? first_dirty : std::size_t{0};
      if (start > 0 && supernodal_ && !sn_start_.empty()) {
        // Snap to the panel containing position start-1: a full refactor
        // reaches the first dirty position with that panel still *open*
        // (the close decision is made by the dirty column itself), so the
        // restart must re-run it to keep partial == full bit-for-bit.
        start = sn_start_[sn_of_col_[start - 1]];
      }
      ok = factor(start);
    }
    if (!ok) return false;
    cached_vals_ = csc_vals_;
    factor_valid_ = true;
    ++factor_count_;
  }

  const std::size_t n = dim_;
  x = b;
  // Forward solve through unit-diagonal L: columns in pivot order only ever
  // update rows with later pivot order.
  for (std::size_t t = 0; t < n; ++t) {
    const T ct = x[prow_[t]];
    if (ct == T{}) continue;
    for (std::uint32_t p = l_ptr_[t]; p < l_ptr_[t + 1]; ++p) {
      x[l_rows_[p]] -= l_vals_[p] * ct;
    }
  }
  // Column-sweep back substitution through U.
  for (std::size_t k = n; k-- > 0;) {
    const T w = x[prow_[k]] / diag_[k];
    sol_[k] = w;
    if (w == T{}) continue;
    for (std::uint32_t p = u_ptr_[k]; p < u_ptr_[k + 1]; ++p) {
      x[prow_[u_rows_[p]]] -= u_vals_[p] * w;
    }
  }
  // Undo the column permutation: position q_[k] of the solution is sol_[k].
  for (std::size_t k = 0; k < n; ++k) x[q_[k]] = sol_[k];
  return true;
}

template class SparseSolverT<double>;
template class SparseSolverT<std::complex<double>>;

} // namespace mss::spice
