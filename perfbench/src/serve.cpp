// serve-cold and serve-warm: an in-process server::Server driven over its
// unix socket by closed-loop server::Client threads, each waiting for its
// job's last row before submitting the next (the `mss-client run` shape).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <unordered_map>
#include <malloc.h>
#include <unistd.h>

#include "magpie/scenario.hpp"
#include "nvsim/array_model.hpp"
#include "probes.hpp"
#include "server/cache.hpp"
#include "server/client.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;
namespace srv = mss::server;

namespace {

/// SplitMix64 finalizer: distinct inputs give distinct job seeds.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Identifies which job an evaluation belongs to. The server hands each
/// point's evaluate() the RNG stream StripedRun derives from (job seed,
/// flat index); the first draw of a copy of that stream is a fingerprint
/// the client side can compute before it submits.
class EvalTags {
 public:
  struct Tag {
    std::int64_t job = -1;
    std::size_t index = 0;
  };

  /// Registers every point of a job submitted with `seed` over `n` points
  /// at chunk size 1 (the server default).
  void add_job(std::int64_t job, std::uint64_t seed, std::size_t n) {
    mss::util::Rng base(seed);
    auto streams = base.jump_substreams(n);
    const std::lock_guard lock(m_);
    for (std::size_t i = 0; i < n; ++i) {
      mss::util::Rng r = streams[i].fork(0);
      tags_[r.next_u64()] = Tag{job, i};
    }
  }

  [[nodiscard]] Tag find(mss::util::Rng rng) const {
    const std::uint64_t fp = rng.next_u64();
    const std::lock_guard lock(m_);
    const auto it = tags_.find(fp);
    return it == tags_.end() ? Tag{} : it->second;
  }

  /// Eval spans of a job by point index: (start, end).
  void on_eval(const Tag& t, Clock::time_point a, Clock::time_point b) {
    if (t.job < 0) return;
    const std::lock_guard lock(m_);
    evals_[t.job].push_back({t.index, a, b});
  }

  /// Wall extent of the job's evaluations of points [0, stripe).
  [[nodiscard]] double first_stripe_eval_ms(std::int64_t job,
                                            std::size_t stripe) const {
    const std::lock_guard lock(m_);
    const auto it = evals_.find(job);
    if (it == evals_.end()) return 0.0;
    Clock::time_point lo = Clock::time_point::max();
    Clock::time_point hi = Clock::time_point::min();
    for (const auto& e : it->second) {
      if (e.index >= stripe) continue;
      lo = std::min(lo, e.start);
      hi = std::max(hi, e.end);
    }
    return lo < hi ? ms_between(lo, hi) : 0.0;
  }

 private:
  struct Eval {
    std::size_t index;
    Clock::time_point start;
    Clock::time_point end;
  };
  mutable std::mutex m_;
  std::unordered_map<std::uint64_t, Tag> tags_;
  std::unordered_map<std::int64_t, std::vector<Eval>> evals_;
};

/// The builtin registry with every evaluate() wrapped in an "eval.<id>"
/// span (recorded only while the tracer is enabled).
srv::Registry traced_registry(const std::shared_ptr<EvalTags>& tags) {
  srv::Registry reg;
  const srv::Registry builtin = srv::Registry::builtin();
  for (auto exp : builtin.all()) {
    auto inner = exp.evaluate;
    const std::string name = "eval." + exp.id;
    exp.evaluate = [inner, tags, name](const mss::sweep::Point& p,
                                       mss::util::Rng& rng) {
      if (!tracer().enabled()) return inner(p, rng);
      const EvalTags::Tag tag = tags->find(rng);
      const auto t0 = Clock::now();
      auto row = inner(p, rng);
      const auto t1 = Clock::now();
      tracer().record(name, t0, t1, 0, tag.job);
      tags->on_eval(tag, t0, t1);
      return row;
    };
    reg.add(std::move(exp));
  }
  return reg;
}

/// A running server on files under the run directory, and its endpoint.
struct Served {
  std::string socket;
  std::string cache_file;
  std::unique_ptr<srv::Server> server;

  Served(const std::string& dir, const std::string& tag,
         const std::string& cache, const std::shared_ptr<EvalTags>& tags)
      : socket(dir + "/" + tag + ".sock"), cache_file(cache) {
    srv::ServerOptions o;
    o.socket_path = socket;
    o.cache_path = cache_file;
    server = std::make_unique<srv::Server>(o, traced_registry(tags));
    server->start();
  }
  ~Served() {
    server->request_stop();
    server->wait();
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
};

/// One job a client submits over the workload's space.
struct JobSpec {
  std::int64_t id = 0; ///< the benchmark's job number (span job id)
  std::uint64_t seed = 0;
  std::size_t seed_index = 0; ///< serve-warm: which prefilled seed
};

/// What a client saw of one job.
struct JobOutcome {
  double job_ms = 0.0;
  double first_row_ms = 0.0;
  double submit_ms = 0.0;
  std::vector<double> gaps_us;
  srv::FetchResult fetched{mss::sweep::ResultTable({"_"}), {}};
  bool error = false;
  std::string error_text;
};

/// Submits one job and streams its rows; `emit_csv` renders the table the
/// way `mss-client run --format csv` does, inside the job's time.
JobOutcome run_job(srv::Client& client, const std::string& experiment,
                   const ParamSpace& space, const JobSpec& spec, bool emit_csv,
                   bool keep_gaps) {
  JobOutcome out;
  const std::uint64_t span = tracer().reserve();
  const auto t0 = Clock::now();
  Clock::time_point first{};
  Clock::time_point last{};
  bool seen = false;
  try {
    srv::SubmitOptions so;
    so.seed = spec.seed;
    so.space = space;
    const std::uint64_t id = client.submit(experiment, so);
    const auto t_sub = Clock::now();
    out.fetched = client.fetch(id, [&](const std::vector<Value>&) {
      const auto now = Clock::now();
      if (!seen) {
        first = now;
        seen = true;
      } else if (keep_gaps) {
        out.gaps_us.push_back(1e3 * ms_between(last, now));
      }
      last = now;
    });
    std::size_t chars = 0;
    if (emit_csv) chars = out.fetched.table.csv().size();
    const auto t_end = Clock::now();
    out.job_ms = ms_between(t0, t_end);
    out.first_row_ms = ms_between(t0, seen ? first : t_end);
    out.submit_ms = ms_between(t0, t_sub);
    tracer().record("client.submit", t0, t_sub, span, spec.id);
    tracer().record("client.fetch", t_sub, t_end, span, spec.id);
    if (seen) tracer().record("client.first_row", first, first, span, spec.id);
    if (emit_csv && chars == 0) {
      out.error = true;
      out.error_text = "empty csv";
    }
  } catch (const std::exception& e) {
    out.error = true;
    out.error_text = e.what();
  }
  tracer().record_as(span, "client.job", t0, Clock::now(), 0, spec.id);
  return out;
}

/// Checks one finished job (outside its timing) and returns why it is
/// wrong, or an empty string. Called from the client threads.
using JobCheck = std::function<std::string(const JobSpec&, const JobOutcome&)>;

/// Runs `plan[c]` on client thread c, closed loop, and adds its samples,
/// counters and resource use to `phase`. Each outcome is checked by
/// `check` as soon as its job ends and then dropped, so client memory
/// stays flat.
void drive(const std::string& socket, const std::string& experiment,
           const ParamSpace& space,
           const std::vector<std::vector<JobSpec>>& plan, bool emit_csv,
           EvalTags* tags, const JobCheck& check, Phase& phase) {
  const bool tracing = tracer().enabled();
  std::vector<Phase> per(plan.size());
  const auto before = ResourceSnapshot::take();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plan.size(); ++c) {
    threads.emplace_back([&, c] {
      Phase& p = per[c];
      const auto take = [&](const JobSpec& spec, const JobOutcome& o) {
        ++p.attempted;
        if (!check(spec, o).empty()) ++p.failed;
        if (o.error) return;
        p.job_ms.push_back(o.job_ms);
        p.first_row_ms.push_back(o.first_row_ms);
        p.submit_ms.push_back(o.submit_ms);
        p.row_gap_us.insert(p.row_gap_us.end(), o.gaps_us.begin(),
                            o.gaps_us.end());
        p.rows += double(o.fetched.table.rows());
        const auto& st = o.fetched.status;
        p.slices += double(st.slices);
        p.evaluated += double(st.evaluated);
        p.cache_hits += double(st.cache_hits);
        p.points += double(st.total);
        const double eval =
            tags != nullptr ? tags->first_stripe_eval_ms(
                                  spec.id, srv::ServerOptions{}.stripe_chunks)
                            : 0.0;
        p.queue_wait_ms.push_back(
            std::max(0.0, o.first_row_ms - o.submit_ms - eval));
      };
      std::size_t k = 0;
      try {
        srv::Client client(socket);
        for (; k < plan[c].size(); ++k) {
          const auto& spec = plan[c][k];
          if (tags != nullptr) {
            tags->add_job(spec.id, spec.seed, space.size());
          }
          take(spec, run_job(client, experiment, space, spec, emit_csv,
                             tracing));
        }
      } catch (const std::exception& e) {
        // A client that cannot connect fails every job it had left.
        for (; k < plan[c].size(); ++k) {
          JobOutcome o;
          o.error = true;
          o.error_text = e.what();
          take(plan[c][k], o);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase clients;
  clients.res = delta(before, ResourceSnapshot::take());
  for (const auto& p : per) merge_phase(clients, p);
  if (clients.rows > 0) {
    clients.round_job_ms.push_back(clients.job_ms);
    clients.round_first_row_ms.push_back(clients.first_row_ms);
    clients.round_rows_per_s.push_back(clients.rows / clients.res.wall_s);
    clients.round_cpu_us_per_row.push_back(1e6 * clients.res.cpu_s /
                                           clients.rows);
  }
  merge_phase(phase, clients);
}

std::vector<Row> table_rows(const mss::sweep::ResultTable& t) {
  std::vector<Row> rows(t.rows());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    for (std::size_t c = 0; c < t.cols(); ++c) rows[i].push_back(t.at(i, c));
  }
  return rows;
}

/// A job's rows, checked against its reference: terminal Done, every row
/// present and bit-identical. Returns the failure reason or empty.
std::string check_rows(const JobOutcome& o, const std::vector<Row>& ref) {
  if (o.error) return "job error: " + o.error_text;
  if (o.fetched.status.state != srv::JobState::Done) return "job not Done";
  const auto rows = table_rows(o.fetched.table);
  if (rows.size() != ref.size()) return "row count differs";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!same_bits(rows[i], ref[i])) return "row " + std::to_string(i) + " differs";
  }
  return {};
}

/// The layer probes the serve workloads share for layers they do not
/// reach (SPICE calibration, the nvsim estimate) — one fixed organisation.
void probe_array_layers(RunResult& r) {
  mss::nvsim::ArrayOrg org;
  org.rows = 1024;
  org.cols = 1024;
  org.word_bits = 512;
  const auto pdk = mss::core::Pdk::mss45();
  const auto t0 = Clock::now();
  (void)mss::nvsim::ArrayModel(pdk, org).estimate_spice(64, 64);
  r.set("nvsim.estimate_spice_ms", 1e3 * seconds_since(t0), "ms");
  const Calibration c = replay_calibration(org, 64, 64);
  report_calibration(r, c);
}

} // namespace

// --- serve-cold ---------------------------------------------------------------

RunResult run_serve_cold(const RunConfig& cfg) {
  RunResult r;
  const auto origin = Clock::now();
  const std::string exp_id = "magpie.scenario";
  // 4 PARSEC kernels x the 4 L2 scenarios: 16 points, two 8-point
  // stripes, so first and last row differ (the reduced size keeps 2-point
  // jobs). Every job has the same space: with two clients the executor
  // alternates their stripes, and a single space keeps every first row at
  // one (other job's stripe + own first stripe) cost instead of a mix of
  // stripe costs whose median flips between modes from run to run. The
  // seed picks the job seeds, cache keys no earlier job used.
  const ParamSpace space = cfg.small ? magpie_space(0, 1, 2) : magpie_space(0);
  const std::size_t clients = 2;
  const std::size_t jobs = phase_jobs(cfg, 2.8, 100);

  std::uint64_t next_job = 0;
  const auto plan_phase = [&](std::uint64_t phase_tag) {
    std::vector<std::vector<JobSpec>> plan(clients);
    for (std::size_t j = 0; j < jobs; ++j) {
      JobSpec s;
      s.id = std::int64_t(next_job++);
      s.seed = mix(cfg.seed * 0x100000001B3ull + phase_tag * 0x10000 + j);
      plan[j % clients].push_back(s);
    }
    return plan;
  };

  const auto tags = std::make_shared<EvalTags>();
  std::unique_ptr<Served> served;
  int rep = 0;
  const double setup_s = median_setup(kSetupReps, [&](bool last) {
    const std::string tag = "cold" + std::to_string(::getpid()) + "-" +
                            std::to_string(rep++);
    const std::string cache = cfg.out_dir + "/" + tag + ".mssc";
    fs::remove(cache);
    auto s = std::make_unique<Served>(cfg.out_dir, tag, cache, tags);
    // One job triggers the lazy platform derivation of magpie.scenario
    // (the NVSim/VAET hand-off) on this server's registry.
    srv::Client c(s->socket);
    srv::SubmitOptions so;
    so.seed = mix(~cfg.seed);
    so.space = magpie_space(0, 1, 1);
    const auto warm = c.fetch(c.submit(exp_id, so));
    if (warm.status.state != srv::JobState::Done) {
      throw std::runtime_error("serve-cold warm-up job failed");
    }
    if (last) {
      served = std::move(s);
    } else {
      s.reset();
      fs::remove(cache);
    }
  });

  // Reference rows: run_cached over an in-memory cache with the seed of
  // the phase's first job. magpie.scenario fixes its workload seed, so its
  // rows depend only on the point and one reference serves every job seed.
  const auto reference = [&](const std::vector<std::vector<JobSpec>>& plan) {
    const auto reg = srv::Registry::builtin();
    srv::ResultCache mem("");
    srv::ExecOptions eo;
    eo.seed = plan[0][0].seed;
    std::vector<Row> ref;
    srv::run_cached(*reg.find(exp_id), space, eo, &mem, nullptr,
                    [&](const mss::sweep::RunStats&,
                        const std::vector<std::vector<Value>>& all,
                        std::size_t done_end) {
                      if (done_end == all.size()) ref = all;
                    });
    return ref;
  };

  std::mutex m; // guards r and the probe inputs below
  std::vector<KeyedRow> keyed;
  std::vector<Row> rows;
  const auto checker = [&](const std::vector<Row>& ref, bool keep) -> JobCheck {
    return [&, ref, keep](const JobSpec& spec, const JobOutcome& o) {
      std::string why = check_rows(o, ref);
      if (why.empty() && (o.fetched.status.evaluated != o.fetched.status.total ||
                          o.fetched.status.cache_hits != 0)) {
        why = "cold job served from the cache";
      }
      const std::lock_guard lock(m);
      if (!why.empty()) {
        r.fail_check("serve-cold job " + std::to_string(spec.id) + ": " + why);
      } else if (keep) {
        const auto jr = table_rows(o.fetched.table);
        for (std::size_t i = 0; i < jr.size(); ++i) {
          keyed.push_back(
              {srv::cache_key(exp_id, 1, spec.seed, space.at(i).key()), jr[i]});
        }
        rows.insert(rows.end(), jr.begin(), jr.end());
      }
      return why;
    };
  };

  Phase plain;
  const auto plan0 = plan_phase(0);
  drive(served->socket, exp_id, space, plan0, false, nullptr,
        checker(reference(plan0), false), plain);
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  note_host(r, plain.res);
  if (!cfg.trace) {
    report_end_to_end(r, plain, setup_s);
  } else {
    const auto plan1 = plan_phase(1);
    const auto ref1 = reference(plan1);
    tracer().enable(true);
    Phase traced;
    drive(served->socket, exp_id, space, plan1, false, tags.get(),
          checker(ref1, true), traced);
    r.attempted += traced.attempted;
    r.failed += traced.failed;

    r.set("magpie.eval_ms_per_point",
          median(tracer().durations_ms("eval." + exp_id)), "ms");
    std::vector<mss::sweep::Point> points;
    for (std::size_t i = 0; i < space.size(); ++i) points.push_back(space.at(i));
    const auto serial_ms = probe_magpie(r, points, false);
    for (std::size_t i = 0; i < space.size(); ++i) {
      traced.serial_work_s +=
          1e-3 * serial_ms.at(space.at(i).key()) * double(traced.job_ms.size());
    }
    probe_cache(r, keyed, "", cfg.out_dir);
    probe_wire(r, rows);
    probe_sweep(r, {space}, srv::Registry::builtin().find(exp_id)->columns, rows);
    probe_array_layers(r);
    report_phase_layers(r, plain, traced,
                        mss::util::ThreadPool::global().size());
    tracer().enable(false);
    write_spans(r, cfg, origin);
  }
  r.note("clients", std::to_string(clients));
  const std::string cache = served->cache_file;
  served.reset();
  fs::remove(cache);
  return r;
}

// --- serve-warm ---------------------------------------------------------------

namespace {

/// demo.mc_tail over 16 sample counts x 64 thresholds = 1024 rows.
ParamSpace warm_space(bool small) {
  std::vector<std::int64_t> samples;
  for (std::int64_t s = 8; s < 24; ++s) samples.push_back(s);
  ParamSpace space;
  space.cross(Axis::list("samples", std::move(samples)))
      .cross(Axis::linear("threshold", 0.0, 3.0, small ? 4 : 64));
  return space;
}

/// Flips the lowest mantissa bit of the last cell of the record stored
/// under `key` and re-seals its CRC, so the cache replays the corrupted
/// row as valid. Returns false when the key is not in the file.
bool corrupt_record(const std::string& path, const std::string& key) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const auto u32_at = [&](std::size_t pos) {
    std::uint32_t v = 0;
    for (int b = 3; b >= 0; --b) v = (v << 8) | std::uint8_t(bytes[pos + std::size_t(b)]);
    return v;
  };
  std::size_t pos = 8; // "MSSC" | u32 format version
  while (pos + 8 <= bytes.size()) {
    const std::uint32_t len = u32_at(pos);
    const std::size_t payload = pos + 8;
    if (payload + len > bytes.size()) break;
    const std::uint32_t klen = u32_at(payload);
    if (bytes.compare(payload + 4, klen, key) == 0 && klen == key.size()) {
      bytes[payload + len - 8] = char(bytes[payload + len - 8] ^ 1);
      const std::uint32_t crc = srv::crc32(bytes.data() + payload, len);
      for (int b = 0; b < 4; ++b) {
        bytes[pos + 4 + std::size_t(b)] = char((crc >> (8 * b)) & 0xFF);
      }
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), std::streamsize(bytes.size()));
      return bool(out);
    }
    pos = payload + len;
  }
  return false;
}

} // namespace

RunResult run_serve_warm(const RunConfig& cfg) {
  RunResult r;
  const auto origin = Clock::now();
  const std::string exp_id = "demo.mc_tail";
  const ParamSpace space = warm_space(cfg.small);
  const std::size_t n_seeds = 64;
  const std::size_t clients = 3;
  // The server retains every finished job's rows, so the job count (not
  // the duration) is fixed: a faster server must not show a higher RSS.
  // A phase runs in rounds of at most kRoundJobs jobs, each on a fresh
  // server over the same cache file: the retained rows stay bounded while
  // a run times enough jobs to average out the host's drift.
  constexpr std::size_t kRoundJobs = 240;
  const std::size_t n = phase_jobs(cfg, 130.0, 120);
  const std::size_t jobs =
      n < kRoundJobs ? n : (n + kRoundJobs / 2) / kRoundJobs * kRoundJobs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t s = 0; s < n_seeds; ++s) {
    seeds.push_back(mix(cfg.seed * 0x100000001B3ull + s));
  }

  // Jobs resubmit prefilled (seed, space) pairs chosen from the seed.
  using Plan = std::vector<std::vector<JobSpec>>;
  mss::util::Rng pick(cfg.seed);
  std::uint64_t next_job = 0;
  std::vector<bool> replayed(n_seeds, false);
  const auto plan_phase = [&] {
    std::vector<Plan> rounds;
    for (std::size_t j = 0; j < jobs; ++j) {
      if (j % kRoundJobs == 0) rounds.emplace_back(clients);
      JobSpec s;
      s.id = std::int64_t(next_job++);
      s.seed_index = std::size_t(pick.uniform_u64(n_seeds));
      s.seed = seeds[s.seed_index];
      replayed[s.seed_index] = true;
      rounds.back()[j % kRoundJobs % clients].push_back(s);
    }
    return rounds;
  };
  const auto plan0 = plan_phase();

  const auto tags = std::make_shared<EvalTags>();
  std::unique_ptr<Served> served;
  std::vector<std::vector<Row>> prefill(n_seeds);
  int rep = 0;
  const double setup_s = median_setup(kSetupReps, [&](bool last) {
    const std::string tag = "warm" + std::to_string(::getpid()) + "-" +
                            std::to_string(rep++);
    std::string cache = cfg.out_dir + "/" + tag + ".mssc";
    fs::remove(cache);
    {
      // Prefill through the server's own executor path into the file.
      const auto reg = srv::Registry::builtin();
      srv::ResultCache file(cache);
      for (std::size_t s = 0; s < n_seeds; ++s) {
        srv::ExecOptions eo;
        eo.seed = seeds[s];
        srv::run_cached(*reg.find(exp_id), space, eo, &file, nullptr,
                        [&](const mss::sweep::RunStats&,
                            const std::vector<std::vector<Value>>& all,
                            std::size_t done_end) {
                          if (last && done_end == all.size()) prefill[s] = all;
                        });
      }
    }
    if (last && cfg.corrupt_row) {
      const std::string copy = cfg.out_dir + "/" + tag + "-corrupt.mssc";
      fs::copy_file(cache, copy, fs::copy_options::overwrite_existing);
      fs::remove(cache);
      cache = copy;
      const std::string key = srv::cache_key(
          exp_id, 1, plan0[0][0][0].seed, space.at(space.size() / 2).key());
      if (!corrupt_record(cache, key)) {
        throw std::runtime_error("serve-warm: record to corrupt not found");
      }
    }
    auto s = std::make_unique<Served>(cfg.out_dir, tag, cache, tags);
    srv::Client c(s->socket);
    srv::SubmitOptions so;
    so.seed = seeds[0];
    so.space = space;
    const auto warm = c.fetch(c.submit(exp_id, so));
    if (warm.status.evaluated != 0) {
      throw std::runtime_error("serve-warm: warm-up job missed the cache");
    }
    if (last) {
      served = std::move(s);
    } else {
      s.reset();
      fs::remove(cache);
    }
  });

  std::mutex m; // guards r
  const JobCheck check = [&](const JobSpec& spec, const JobOutcome& o) {
    std::string why = check_rows(o, prefill[spec.seed_index]);
    if (why.empty() && (o.fetched.status.evaluated != 0 ||
                        o.fetched.status.cache_hits != o.fetched.status.total)) {
      why = "warm job evaluated rows";
    }
    if (!why.empty()) {
      const std::lock_guard lock(m);
      r.fail_check("serve-warm job " + std::to_string(spec.id) + ": " + why);
    }
    return why;
  };

  // Every round starts on a fresh server (outside the timing), so none
  // serves with the jobs an earlier round left behind. The freed rows go
  // back to the OS first: otherwise each round's new threads fill other
  // malloc arenas and the peak RSS grows with the round count.
  std::size_t round = 0;
  const auto run_rounds = [&](const std::vector<Plan>& rounds, EvalTags* t,
                              Phase& phase) {
    for (const auto& plan : rounds) {
      const std::string cache = served->cache_file;
      served.reset();
      ::malloc_trim(0);
      served = std::make_unique<Served>(
          cfg.out_dir,
          "warm" + std::to_string(::getpid()) + "-round" +
              std::to_string(round++),
          cache, tags);
      drive(served->socket, exp_id, space, plan, true, t, check, phase);
    }
  };

  Phase plain;
  run_rounds(plan0, nullptr, plain);
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  note_host(r, plain.res);
  if (!cfg.trace) {
    report_end_to_end(r, plain, setup_s);
  } else {
    const auto plan1 = plan_phase();
    tracer().enable(true);
    Phase traced;
    run_rounds(plan1, tags.get(), traced);
    r.attempted += traced.attempted;
    r.failed += traced.failed;

    // Layer probes on this workload's own rows and keys.
    std::vector<KeyedRow> keyed;
    for (std::size_t s = 0; s < n_seeds; ++s) {
      if (!replayed[s]) continue;
      for (std::size_t i = 0; i < prefill[s].size(); ++i) {
        keyed.push_back({srv::cache_key(exp_id, 1, seeds[s], space.at(i).key()),
                         prefill[s][i]});
      }
    }
    probe_cache(r, keyed, served->cache_file, cfg.out_dir);
    probe_wire(r, prefill[0]);
    probe_sweep(r, {space}, srv::Registry::builtin().find(exp_id)->columns,
                prefill[0]);
    // Layers serve-warm never evaluates: a fixed magpie and array probe.
    (void)probe_magpie(r, fixed_magpie_points(), true);
    probe_array_layers(r);
    report_phase_layers(r, plain, traced,
                        mss::util::ThreadPool::global().size());
    tracer().enable(false);
    write_spans(r, cfg, origin);
  }
  r.note("clients", std::to_string(clients));
  r.note("prefill_rows", std::to_string(n_seeds * space.size()));
  const std::string cache = served->cache_file;
  served.reset();
  fs::remove(cache);
  return r;
}

} // namespace perfbench
