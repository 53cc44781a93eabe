#include "server/executor.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/parallel.hpp"

namespace mss::server {

StripedRun::StripedRun(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache* cache)
    : exp_(exp), space_(space), opt_(opt), cache_(cache) {
  n_ = space_.size();
  chunk_ = opt_.chunk_size == 0 ? 1 : opt_.chunk_size;
  stripe_ = chunk_ * (opt_.stripe_chunks == 0 ? 1 : opt_.stripe_chunks);
  stats_.points = n_;
  rows_.resize(n_);
  if (cache_) {
    key_ = cache_key_prefix(exp_.id, exp_.version, opt_.seed);
    prefix_size_ = key_.size();
  }

  // Identical RNG keying to sweep::Runner: the cursor starts on the first
  // stream base.jump_substreams() would return (chunk 0); step() jumps it
  // forward to the chunks that actually evaluate.
  util::Rng base(opt_.seed);
  cursor_ = base.fork(base.next_u64());
}

const std::string& StripedRun::full_key(const std::string& point_key) {
  key_.resize(prefix_size_);
  key_ += point_key;
  return key_;
}

void StripedRun::step() {
  if (finished()) return;
  const std::size_t begin = next_;
  const std::size_t end = std::min(n_, begin + stripe_);

  // First-occurrence scan of this stripe — memo semantics. An owner's
  // index never exceeds its duplicates', and stripes run in index order,
  // so this assigns the same owners as one scan of the whole space.
  owner_.clear();
  pending_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    const auto [it, inserted] = first_of_.try_emplace(space_.at(i).key(), i);
    owner_.push_back(it->second);
    if (!inserted) continue; // duplicate: copied below
    if (cache_) {
      if (auto hit = cache_->lookup(full_key(it->first))) {
        rows_[i] = std::move(*hit);
        ++stats_.cache_hits;
        continue;
      }
    }
    // Misses arrive in index order, so the cursor only moves forward, and
    // a fully cached job never jumps.
    for (; cursor_chunk_ < i / chunk_; ++cursor_chunk_) cursor_.jump();
    pending_.push_back(
        {i, &it->first, cursor_.fork(std::uint64_t(i % chunk_))});
  }

  // Evaluate the stripe's misses in parallel. The RNG of index i is a
  // pure function of (seed, chunk, i) — never of which indices happen to
  // be cached or of which other jobs' stripes ran in between — so warm,
  // cold and time-sliced runs all draw identically.
  util::ThreadPool::run_with(
      opt_.threads, pending_.size(), 1,
      [&](std::size_t, std::size_t b, std::size_t e) {
        for (std::size_t k = b; k < e; ++k) {
          const Pending& p = pending_[k];
          // A local copy: neighbouring entries' streams share cache lines
          // and belong to other workers.
          util::Rng rng = p.rng;
          std::vector<sweep::Value> row =
              exp_.evaluate(space_.at(p.index), rng);
          if (row.size() != exp_.columns.size()) {
            throw std::logic_error(
                "RowExperiment '" + exp_.id + "' produced " +
                std::to_string(row.size()) + " cells for " +
                std::to_string(exp_.columns.size()) + " columns");
          }
          rows_[p.index] = std::move(row);
        }
      });
  stats_.evaluated += pending_.size();

  // Append to the cache serially in index order: the file layout is then
  // a deterministic function of the job, not of thread scheduling.
  if (cache_) {
    for (const Pending& p : pending_) {
      cache_->insert(full_key(*p.key), rows_[p.index]);
    }
  }

  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t owner = owner_[i - begin];
    if (owner != i) {
      rows_[i] = rows_[owner];
      ++stats_.memo_hits;
    }
  }
  next_ = end;
}

ExecOutcome run_cached(const sweep::RowExperiment& exp,
                       const sweep::ParamSpace& space, const ExecOptions& opt,
                       ResultCache* cache, const std::atomic<bool>* cancel,
                       const StripeFn& on_stripe, sweep::RunStats* stats) {
  StripedRun run(exp, space, opt, cache);
  if (run.finished()) { // empty space: report once, done
    if (on_stripe) on_stripe(run.stats(), run.rows(), 0);
    if (stats) *stats = run.stats();
    return ExecOutcome::Done;
  }
  while (!run.finished()) {
    if (cancel && cancel->load(std::memory_order_relaxed)) {
      if (stats) *stats = run.stats();
      return ExecOutcome::Cancelled;
    }
    run.step();
    if (on_stripe) on_stripe(run.stats(), run.rows(), run.done_end());
  }
  if (stats) *stats = run.stats();
  return ExecOutcome::Done;
}

} // namespace mss::server
