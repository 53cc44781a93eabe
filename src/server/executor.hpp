// Cache-backed, cancellable, streaming execution of a RowExperiment over a
// ParamSpace — the server-side twin of sweep::Runner::run(memoize=true).
//
// Determinism contract (identical to the Runner's, and tested against it
// row-for-row): the chunk layout is a pure function of (space size,
// chunk_size); the point at flat index i draws from jump substream i/chunk
// forked with label i%chunk of a base stream seeded with `seed`; repeated
// Point::key()s are evaluated once at their first occurrence. A persistent
// cache hit substitutes the stored row for the evaluation — bit-identical
// to an in-memory memo hit when the stored row came from a run with the
// same (experiment id+version, seed) identity, which is exactly what the
// cache keys on.
//
// Execution proceeds in *stripes* of whole chunks: per stripe, the
// first-occurrence points missing from the cache are evaluated in parallel
// over the shared thread pool, appended to the cache (in index order, so
// the file layout is deterministic too), and then every row of the stripe
// is handed to the sink in index order. Cancellation is cooperative at
// stripe granularity: rows already streamed stay valid and cached, so a
// cancelled job resumes from the cache like a killed one.
//
// All per-point work is per stripe, so a job's set-up and first row cost
// O(stripe), not O(space): the first-occurrence scan (Point::key() into a
// run-wide first-index map) covers only the stripe's indices, and the
// chunk substreams are not derived up front — a forward-only cursor on the
// substream sequence is jump()ed to the chunk of each miss, in index
// order, so a fully cached job never jumps.
//
// The stripe is also the *scheduling* quantum: StripedRun exposes the
// stripe loop one step() at a time, so the server's executor can
// round-robin several jobs without changing a single row — every stripe is
// self-contained (its RNG is a pure function of (seed, chunk, index)), so
// interleaving stripes of different jobs cannot reorder or perturb either
// job's rows relative to a solo run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "server/cache.hpp"
#include "sweep/experiment.hpp" // RunStats
#include "sweep/servable.hpp"
#include "util/rng.hpp"

namespace mss::server {

struct ExecOptions {
  std::uint64_t seed = 0x5EEDC0DEull;
  /// Points per chunk (RNG keying unit, as in sweep::RunOptions).
  std::size_t chunk_size = 1;
  /// Thread policy: 0 = shared global pool, 1 = serial, N = pool of N.
  std::size_t threads = 0;
  /// Chunks per stripe — the cancellation/streaming/cache-append quantum.
  std::size_t stripe_chunks = 8;
};

enum class ExecOutcome { Done, Cancelled };

/// Called after each stripe with the stats accumulated so far and the rows
/// completed so far ([done_begin, done_end) are new this stripe, indexed
/// into `rows`). Return value ignored.
using StripeFn = std::function<void(const sweep::RunStats& so_far,
                                    const std::vector<std::vector<sweep::Value>>& rows,
                                    std::size_t done_end)>;

/// One job's striped execution state, advanced a stripe at a time — the
/// scheduler-facing core of run_cached(). The referenced experiment,
/// space and cache must outlive the run. Not thread-safe: one owner
/// advances it (the server's executor thread); readers synchronise
/// externally (the server copies rows out under the job mutex after each
/// step).
class StripedRun {
 public:
  StripedRun(const sweep::RowExperiment& exp, const sweep::ParamSpace& space,
             const ExecOptions& opt, ResultCache* cache);

  /// Executes the next stripe: cache lookups, parallel evaluation of the
  /// misses, in-order cache appends, duplicate copy-down. No-op once
  /// finished(). Throws what evaluate() throws (the run is then poisoned;
  /// callers treat the job as failed).
  void step();

  [[nodiscard]] bool finished() const { return next_ >= n_; }
  /// Rows completed so far: rows()[0, done_end()) are final.
  [[nodiscard]] std::size_t done_end() const { return next_; }
  [[nodiscard]] const std::vector<std::vector<sweep::Value>>& rows() const {
    return rows_;
  }
  [[nodiscard]] const sweep::RunStats& stats() const { return stats_; }
  /// jump()s the substream cursor has made so far: the index of the
  /// highest chunk that has evaluated a point (0 when none has).
  [[nodiscard]] std::size_t substream_jumps() const { return cursor_chunk_; }

 private:
  /// A first-occurrence point of the current stripe missing from the cache.
  struct Pending {
    std::size_t index;
    const std::string* key; ///< its Point::key(), owned by first_of_
    util::Rng rng;          ///< its chunk's substream, forked by offset
  };

  /// The cache key of `point_key`: the run's prefix plus the point key,
  /// built in key_ (valid until the next call).
  const std::string& full_key(const std::string& point_key);

  const sweep::RowExperiment& exp_;
  const sweep::ParamSpace& space_;
  ExecOptions opt_;
  ResultCache* cache_;

  std::size_t n_;
  std::size_t chunk_;
  std::size_t stripe_;
  std::size_t next_ = 0; ///< first index of the next stripe

  util::Rng cursor_;             ///< substream of chunk cursor_chunk_
  std::size_t cursor_chunk_ = 0;
  std::string key_;              ///< cache-key prefix, then scratch
  std::size_t prefix_size_ = 0;
  /// Point key -> index of its first occurrence, over the stripes so far.
  std::unordered_map<std::string, std::size_t> first_of_;
  std::vector<std::size_t> owner_; ///< scratch: owner of each stripe index
  std::vector<Pending> pending_;   ///< scratch: this stripe's misses
  std::vector<std::vector<sweep::Value>> rows_;
  sweep::RunStats stats_;
};

/// Runs `exp` over `space` to completion (a loop over StripedRun::step).
/// `cache` may be null (pure memo semantics); `cancel` may be null (never
/// cancelled); `on_stripe` may be empty. Returns Cancelled when the flag
/// was observed at a stripe boundary — `stats` then reflects the work
/// actually done.
ExecOutcome run_cached(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache* cache, const std::atomic<bool>* cancel,
                       const StripeFn& on_stripe,
                       sweep::RunStats* stats = nullptr);

} // namespace mss::server
