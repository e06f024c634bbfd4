// The request path: the real alf_served daemon (spawned, cold-started,
// drained), the open-loop ALFN load generator, and — in traced runs — an
// in-process replay of the same schedule through ModelServer::submit that
// separates wire time from serving time.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "e2e.hpp"
#include "net/client.hpp"
#include "serve/model_server.hpp"

namespace alf::e2e {
namespace {

using namespace std::chrono_literals;

/// Wire budget stamped on every request. Far above the SLO on purpose: a
/// late answer counts as an SLO miss, and no request of a calibrated
/// workload is shed, so `failed` stays 0 unless something breaks.
constexpr uint64_t kDeadlineUs = 1'000'000;
constexpr size_t kConns = 3;      ///< connections, one receiver thread each

/// One alf_served process: 1 shard, 2 workers, 200 us batching wait.
class Served {
 public:
  Served(const std::string& plan_dir, const std::string& log_path)
      : log_(log_path) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
      throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
    out_fd_ = out[0];
    const int logfd = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    try {
      if (logfd < 0) throw std::runtime_error("cannot open " + log_path);
      pid_ = spawn_child({ALF_SERVED_PATH, "--plan-dir", plan_dir, "--port",
                          "0", "--shards", "1", "--workers", "2",
                          "--max-wait-us", "200"},
                         out[1], logfd);
    } catch (...) {
      ::close(out[1]);
      if (logfd >= 0) ::close(logfd);
      kill_and_reap();
      throw;
    }
    ::close(out[1]);
    ::close(logfd);
    try {
      port_ = wait_ready();
    } catch (...) {
      kill_and_reap();
      throw;
    }
  }
  ~Served() { kill_and_reap(); }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  uint16_t port() const { return port_; }
  int pid() const { return pid_; }

  struct Exit {
    int code = -1;        ///< exit status; 128+signal when killed
    bool drained = false;  ///< the "drained:" line was printed
    unsigned long long submitted = 0, ok = 0, shed = 0, rejected = 0,
                       orphaned = 0;
  };

  /// SIGTERM (graceful drain), reap, and parse the drain line.
  Exit stop() {
    Exit e;
    ::kill(pid_, SIGTERM);
    e.code = reap_child(pid_, 20.0);
    pid_ = -1;
    std::ifstream log(log_);
    std::string line;
    while (std::getline(log, line)) {
      const size_t at = line.find("drained:");
      if (at == std::string::npos) continue;
      e.drained =
          std::sscanf(line.c_str() + at,
                      "drained: submitted=%llu ok=%llu shed=%llu "
                      "rejected=%llu orphaned=%llu",
                      &e.submitted, &e.ok, &e.shed, &e.rejected,
                      &e.orphaned) == 5;
    }
    return e;
  }

 private:
  uint16_t wait_ready() {
    std::string text;
    const auto give_up = Clock::now() + 30s;
    while (text.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            give_up - Clock::now())
                            .count();
      if (left <= 0)
        throw std::runtime_error("alf_served not ready after 30 s; see " +
                                 log_);
      pollfd pfd{out_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left));
      if (rc <= 0) continue;
      char buf[256];
      const ssize_t k = ::read(out_fd_, buf, sizeof(buf));
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0)
        throw std::runtime_error("alf_served exited before ready; see " +
                                 log_);
      text.append(buf, static_cast<size_t>(k));
    }
    unsigned port = 0;
    const size_t at = text.find("port=");
    if (at == std::string::npos ||
        std::sscanf(text.c_str() + at, "port=%u", &port) != 1 || port == 0 ||
        port > 65535)
      throw std::runtime_error("unexpected alf_served ready line: " + text);
    return static_cast<uint16_t>(port);
  }

  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap_child(pid_, 20.0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  std::string log_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// True when a kOk response carries exactly the reference logits of the
/// request's pool images.
bool answer_ok(const Model& md, const Req& q,
               const net::WireClient::Response& r) {
  const size_t classes = md.plan->classes();
  if (r.rows != q.rows || r.payload.size() != q.rows * classes) return false;
  for (size_t i = 0; i < q.rows; ++i)
    if (!md.row_ok(q.start + i, r.payload.data() + i * classes)) return false;
  return true;
}

/// The cold-start probe: one single-image request per hosted model,
/// pipelined on one connection.
struct Probe {
  uint64_t ok = 0;    ///< kOk frames (what the server counts)
  uint64_t good = 0;  ///< kOk frames with the reference logits
};
Probe probe_models(uint16_t port, const std::vector<Model>& models) {
  Probe p;
  net::WireClient c;
  c.connect(port);
  for (size_t m = 0; m < models.size(); ++m)
    c.send(models[m].name, m, kDeadlineUs, models[m].images(0), 1,
           kImageFloats);
  Req q;  // one image, pool image 0
  for (size_t m = 0; m < models.size(); ++m) {
    net::WireClient::Response r;
    if (c.recv(&r, 30'000) != 1) break;
    if (r.status != net::WireStatus::kOk) continue;
    ++p.ok;
    if (r.seq < models.size() && answer_ok(models[r.seq], q, r)) ++p.good;
  }
  return p;
}

/// Stops `srv` and checks the drain contract: exit 0, the drain identity
/// submitted == ok + shed + orphaned, and the server's ok count equal to
/// the kOk frames this client received.
Served::Exit drain_and_check(Served& srv, uint64_t client_ok, Result& res,
                             const std::string& what) {
  const Served::Exit e = srv.stop();
  if (e.code != 0)
    res.fail(what + ": alf_served exited with " + std::to_string(e.code));
  if (!e.drained) {
    res.fail(what + ": no drain line from alf_served");
  } else {
    if (e.submitted != e.ok + e.shed + e.orphaned)
      res.fail(what + ": drain identity broken (submitted " +
               std::to_string(e.submitted) + " != ok + shed + orphaned)");
    if (e.ok != client_ok)
      res.fail(what + ": server ok " + std::to_string(e.ok) +
               " != client ok " + std::to_string(client_ok));
  }
  return e;
}

struct WireRun {
  std::vector<double> lat_ms;   ///< +inf unless kOk with reference logits
  std::vector<double> lag_ms;   ///< send start minus intended instant
  std::vector<double> send_us;  ///< time inside WireClient::send
  std::vector<uint8_t> traced;
  uint64_t client_ok = 0, wrong = 0, unanswered = 0;
  std::array<uint64_t, net::kNumStatus> by_status{};
  bool realtime = false;  ///< generator threads ran at raised priority
};

/// Open loop: one sender thread walks the precomputed schedule round-robin
/// over kConns pipelined connections, one receiver per connection. Latency
/// runs from the INTENDED send instant, so sender lateness and server
/// backlog both show up as latency. In traced runs every other request is
/// traced, so the tracing overhead is measured under identical load.
WireRun run_open_loop(const std::vector<Req>& sched,
                      const std::vector<Model>& models, uint16_t port,
                      Tracer& tr) {
  const size_t n = sched.size();
  WireRun run;
  run.lat_ms.assign(n, kInf);
  run.lag_ms.assign(n, 0.0);
  run.send_us.assign(n, 0.0);
  run.traced.assign(n, 0);
  for (size_t i = 0; i < n; i += 2) run.traced[i] = tr.on();
  const uint64_t span_base = tr.on() ? tr.reserve_ids(n) : 0;

  std::vector<net::WireClient> clients(kConns);
  for (net::WireClient& c : clients) c.connect(port);
  std::vector<size_t> expected(kConns, 0);
  for (size_t i = 0; i < n; ++i) expected[i % kConns]++;

  const Clock::time_point origin = Clock::now() + 20ms;
  std::vector<Clock::time_point> intended(n);
  for (size_t i = 0; i < n; ++i)
    intended[i] = origin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(sched[i].t_s));
  const Clock::time_point horizon =
      (n ? intended.back() : origin) + std::chrono::microseconds(kDeadlineUs) +
      3s;

  struct Tally {
    uint64_t ok = 0, wrong = 0, unanswered = 0;
    std::array<uint64_t, net::kNumStatus> by_status{};
  };
  std::vector<Tally> tally(kConns);
  std::atomic<bool> sender_done{false};
  std::atomic<int> raised{0};
  std::vector<std::thread> receivers;
  for (size_t t = 0; t < kConns; ++t) {
    receivers.emplace_back([&, t] {
      raised += raise_priority();
      Tally& tl = tally[t];
      size_t got = 0;
      while (got < expected[t]) {
        net::WireClient::Response r;
        int rc = -1;
        try {
          rc = clients[t].recv(&r, 250);
        } catch (const net::WireError&) {
          break;  // corrupt stream: the rest count as unanswered
        }
        const Clock::time_point now = Clock::now();
        if (rc == 1) {
          ++got;
          tl.by_status[static_cast<size_t>(r.status)]++;
          if (r.seq >= n || r.seq % kConns != t) {
            ++tl.wrong;
            continue;
          }
          const Req& q = sched[r.seq];
          if (r.status == net::WireStatus::kOk) {
            ++tl.ok;
            if (answer_ok(models[q.model], q, r))
              run.lat_ms[r.seq] = ms_between(intended[r.seq], now);
            else
              ++tl.wrong;
          }
          if (run.traced[r.seq])
            tr.span("wire.request", intended[r.seq], now, r.seq, 0,
                    span_base + r.seq, /*async=*/true);
          continue;
        }
        if (rc == 0) break;  // server closed
        if (sender_done.load(std::memory_order_acquire) && now > horizon)
          break;
      }
      tl.unanswered = expected[t] - got;
    });
  }

  std::thread sender([&] {
    raised += raise_priority();
    std::array<bool, kConns> dead{};
    for (size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(intended[i]);
      const size_t c = i % kConns;
      if (dead[c]) continue;
      const Req& q = sched[i];
      const Model& md = models[q.model];
      const Clock::time_point s0 = Clock::now();
      try {
        clients[c].send(md.name, i, kDeadlineUs, md.images(q.start), q.rows,
                        kImageFloats);
      } catch (const std::exception&) {
        dead[c] = true;  // its receiver sees EOF; the rest go unanswered
        continue;
      }
      const Clock::time_point s1 = Clock::now();
      run.lag_ms[i] = ms_between(intended[i], s0);
      run.send_us[i] = ms_between(s0, s1) * 1e3;
      if (run.traced[i]) tr.span("gen.send", s0, s1, i, span_base + i);
    }
    sender_done.store(true, std::memory_order_release);
  });
  sender.join();
  for (std::thread& th : receivers) th.join();
  run.realtime = raised.load() == static_cast<int>(kConns) + 1;
  for (const Tally& tl : tally) {
    run.client_ok += tl.ok;
    run.wrong += tl.wrong;
    run.unanswered += tl.unanswered;
    for (size_t s = 0; s < tl.by_status.size(); ++s)
      run.by_status[s] += tl.by_status[s];
  }
  return run;
}

struct ReplayRun {
  std::vector<double> lat_ms;  ///< +inf unless answered with reference rows
  std::vector<double> submit_us;
  std::array<ServeStats, kNumModels> stats{};
  uint64_t wrong = 0;
};

/// Replays sched[first, last) through an in-process ModelServer configured
/// like alf_served (2 workers, 200 us wait): the same arrivals without the
/// wire, so wire p50 minus this p50 is the network front end's cost.
ReplayRun replay_in_process(const std::vector<Req>& sched, size_t first,
                            size_t last, const std::vector<Model>& models,
                            Tracer& tr) {
  const size_t n = last - first;
  ReplayRun rp;
  rp.lat_ms.assign(n, kInf);
  rp.submit_us.assign(n, 0.0);
  const uint64_t span_base = tr.reserve_ids(n);
  const Clock::time_point origin = Clock::now() + 20ms;
  std::vector<Clock::time_point> intended(n);
  for (size_t i = 0; i < n; ++i)
    intended[i] = origin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   sched[first + i].t_s - sched[first].t_s));
  std::mutex m;
  std::condition_variable cv;
  size_t finished = 0;
  std::atomic<uint64_t> wrong{0};
  const auto finish = [&] {
    std::lock_guard<std::mutex> lk(m);
    ++finished;
    cv.notify_all();
  };

  // Declared after everything its callbacks touch, so it is destroyed (and
  // drained) first on every path.
  ModelServer::Config cfg;
  cfg.workers = 2;
  ModelServer ms(cfg);
  ModelServer::ModelConfig mc;
  mc.max_wait_us = 200;
  mc.max_queue = 8192;
  for (const Model& md : models) ms.add_model(md.name, md.plan, mc);
  ms.start();
  std::thread sender([&] {
    raise_priority();
    for (size_t i = 0; i < n; ++i) {
      const Req& q = sched[first + i];
      const Model& md = models[q.model];
      Tensor x({q.rows, kInC, kHw, kHw});
      std::memcpy(x.data(), md.images(q.start),
                  q.rows * kImageFloats * sizeof(float));
      std::this_thread::sleep_until(intended[i]);
      const Clock::time_point s0 = Clock::now();
      try {
        ms.submit(
            md.name, std::move(x),
            [&, i](Tensor&& out) {
              const Clock::time_point now = Clock::now();
              const Req& rq = sched[first + i];
              const Model& rm = models[rq.model];
              const size_t classes = rm.plan->classes();
              bool good = out.numel() == rq.rows * classes;
              for (size_t r = 0; good && r < rq.rows; ++r)
                good = rm.row_ok(rq.start + r, out.data() + r * classes);
              if (good)
                rp.lat_ms[i] = ms_between(intended[i], now);
              else
                wrong.fetch_add(1);
              tr.span("serve.request", intended[i], now, first + i, 0,
                      span_base + i, /*async=*/true);
              finish();
            },
            [&](std::exception_ptr) { finish(); },
            ModelServer::SubmitOptions{kDeadlineUs});
      } catch (const std::exception&) {
        finish();  // refused at admission: stays +inf
      }
      const Clock::time_point s1 = Clock::now();
      rp.submit_us[i] = ms_between(s0, s1) * 1e3;
      tr.span("serve.submit", s0, s1, first + i, span_base + i);
    }
  });
  sender.join();
  {
    std::unique_lock<std::mutex> lk(m);
    cv.wait_for(lk, 60s, [&] { return finished == n; });
  }
  ms.stop();
  for (size_t k = 0; k < kNumModels; ++k) rp.stats[k] = ms.stats(models[k].name);
  rp.wrong = wrong.load();
  return rp;
}

/// Values of `v` at the indices where `keep` holds.
template <typename Pred>
std::vector<double> select(const std::vector<double>& v, Pred keep) {
  std::vector<double> out;
  for (size_t i = 0; i < v.size(); ++i)
    if (keep(i)) out.push_back(v[i]);
  return out;
}

}  // namespace

Result run_wire(const WireSpec& spec, const std::vector<Model>& models,
                const std::string& workdir, uint64_t seed, Tracer& tr,
                const EngineTimes& et) {
  Result res;
  const std::string plan_dir = workdir + "/plans";

  // Set-up: kColdStarts cold starts of alf_served, spawn until every hosted
  // model has answered; the last instance serves the measured run.
  std::vector<double> cold_s;
  std::unique_ptr<Served> srv;
  uint64_t probe_ok = 0;
  for (int k = 0; k < kColdStarts; ++k) {
    const Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<Served>(
        plan_dir, workdir + "/served-" + std::to_string(k) + ".log");
    const Probe p = probe_models(s->port(), models);
    cold_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    const std::string what = "cold start " + std::to_string(k + 1);
    if (p.good != kNumModels)
      res.fail(what + ": " + std::to_string(p.good) +
               " of 4 models answered with the reference logits");
    if (k + 1 < kColdStarts) {
      drain_and_check(*s, p.ok, res, what);
    } else {
      srv = std::move(s);
      probe_ok = p.ok;
    }
  }

  const std::vector<Req> sched = make_schedule(spec.phases, spec.mix, seed);
  const size_t n = sched.size();
  const WireRun run = run_open_loop(sched, models, srv->port(), tr);
  const long rss_kib = vm_hwm_kib(srv->pid());
  const Served::Exit ex =
      drain_and_check(*srv, probe_ok + run.client_ok, res, "measured run");

  res.attempted = n;
  for (const double l : run.lat_ms) res.failed += std::isinf(l) ? 1 : 0;
  if (run.wrong)
    res.fail(std::to_string(run.wrong) + " answers with wrong logits");
  if (run.unanswered)
    res.fail(std::to_string(run.unanswered) + " requests never answered");

  // Per phase: the latency sample (+inf for failures), SLO misses, and the
  // achieved rate and goodput over the measured stretch's wall time (first
  // intended send to last answer; a growing backlog stretches it).
  std::vector<double> offered, achieved, miss;
  std::vector<std::string> phase_json;
  std::vector<double> goodput_ips(spec.phases.size(), 0.0);
  for (size_t p = 0; p < spec.phases.size(); ++p) {
    const Phase& ph = spec.phases[p];
    const auto in_phase = [&](size_t i) {
      return sched[i].phase == p && sched[i].measured;
    };
    const std::vector<double> lat = select(run.lat_ms, in_phase);
    size_t ok = 0, good = 0;
    double good_images = 0.0, t0_s = kInf, t1_s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (!in_phase(i)) continue;
      t0_s = std::min(t0_s, sched[i].t_s);
      if (std::isinf(run.lat_ms[i])) continue;
      t1_s = std::max(t1_s, sched[i].t_s + run.lat_ms[i] / 1e3);
      ++ok;
      if (run.lat_ms[i] <= kSloMs) {
        ++good;
        good_images += sched[i].rows;
      }
    }
    const double wall_s = t1_s > t0_s ? t1_s - t0_s : ph.measure_s;
    const double miss_frac =
        lat.empty() ? 1.0 : 1.0 - static_cast<double>(good) / lat.size();
    offered.push_back(ph.rps);
    achieved.push_back(ok / wall_s);
    miss.push_back(miss_frac);
    goodput_ips[p] = good_images / wall_s;
    JsonObj pj;
    pj.num("offered_rps", ph.rps)
        .num("achieved_rps", ok / wall_s)
        .num("requests", static_cast<double>(lat.size()))
        .num("p50_ms", percentile(lat, 0.5))
        .num("p90_ms", percentile(lat, 0.9))
        .num("p99_ms", supported_percentile(lat, 0.99))
        .num("p999_ms", supported_percentile(lat, 0.999))
        .num("slo_miss_frac", miss_frac)
        .num("goodput_rps", good / wall_s)
        .num("goodput_images_per_s", goodput_ips[p]);
    phase_json.push_back(pj.done());
  }
  res.details.raw("phases", json_array(phase_json));
  if (spec.phases.size() > 1) {
    const Knee k = knee_rps(offered, achieved, miss);
    res.details.num("knee_rps", k.rps).num("knee_censored", k.censored);
  }

  // Latency medians are over single-image requests, per model: the pooled
  // median of a mix sits on the boundary between two clusters (1 vs 2-8
  // images, fast vs slow model) and jumps between them from run to run.
  // lat_p50_ms is the mean of the per-model medians of the models served.
  const auto single = [&](size_t i) {
    return sched[i].measured && sched[i].rows == 1 &&
           sched[i].phase >= spec.gated_lo && sched[i].phase <= spec.gated_hi;
  };
  double model_p50[kNumModels] = {}, p50_sum = 0.0;
  size_t served = 0;
  for (size_t m = 0; m < kNumModels; ++m) {
    model_p50[m] = percentile(select(run.lat_ms,
                                     [&](size_t i) {
                                       return single(i) && sched[i].model == m;
                                     }),
                              0.5);
    if (std::isnan(model_p50[m])) continue;  // no traffic for this model
    p50_sum += model_p50[m];
    ++served;
  }
  // Latency runs from the intended send instant, so a late send already
  // shows as latency and the run stays valid. Lag that large means the host
  // stalled the generator (a shared VM does, now and then), not that an
  // answer was wrong; it is recorded and flagged, not failed.
  const double lag_p99 = percentile(run.lag_ms, 0.99);
  if (lag_p99 > 1.0)
    std::fprintf(stderr,
                 "warning: generator ran late (lag p99 %.3f ms > 1 ms); "
                 "the host is oversubscribed\n",
                 lag_p99);
  std::vector<std::string> statuses;
  for (size_t s = 0; s < net::kNumStatus; ++s)
    if (run.by_status[s])
      statuses.push_back(
          JsonObj()
              .num(net::status_name(static_cast<net::WireStatus>(s)),
                   static_cast<double>(run.by_status[s]))
              .done());
  res.details.raw("setup_cold_starts_s", json_numbers(cold_s))
      .raw("statuses", json_array(statuses))
      .num("generator_realtime", run.realtime)
      .num("gen_lag_ms_p99", lag_p99)
      .num("gen_lag_ms_max", percentile(run.lag_ms, 1.0))
      .num("client_ok", static_cast<double>(run.client_ok))
      .num("server_submitted", static_cast<double>(ex.submitted))
      .num("server_ok", static_cast<double>(ex.ok))
      .num("server_shed", static_cast<double>(ex.shed))
      .num("server_rejected", static_cast<double>(ex.rejected))
      .num("server_orphaned", static_cast<double>(ex.orphaned));

  res.metrics = {
      {"setup_s", percentile(cold_s, 0.5), "s"},
      {"lat_p50_ms", p50_sum / served, "ms"},
      {"lat_p50_ms.resnet20_f32", model_p50[0], "ms"},
      {"lat_p50_ms.alf_resnet20_f32", model_p50[2], "ms"},
      {"images_per_s", goodput_ips[spec.goodput], "1/s"},
      {"peak_rss_mib", rss_kib / 1024.0, "MiB"},
  };

  if (!tr.on()) return res;

  // Traced run: the request path layer by layer.
  const size_t rph = spec.gated_hi;
  const auto window_of = [&](size_t i) {
    double phase_t0 = 0.0;
    for (size_t p = 0; p < rph; ++p)
      phase_t0 += spec.phases[p].warm_s + spec.phases[p].measure_s;
    return sched[i].phase == rph &&
           sched[i].t_s < phase_t0 + spec.phases[rph].warm_s + spec.replay_s;
  };
  size_t first = n, last = 0;
  for (size_t i = 0; i < n; ++i)
    if (window_of(i)) {
      first = std::min(first, i);
      last = i + 1;
    }
  const ReplayRun rp = replay_in_process(sched, first, last, models, tr);
  if (rp.wrong)
    res.fail(std::to_string(rp.wrong) +
             " in-process answers with wrong logits");
  const auto replayed = [&](size_t j) { return sched[first + j].measured; };
  const std::vector<double> serve_lat = select(rp.lat_ms, replayed);
  const std::vector<double> wire_lat =
      select(run.lat_ms, [&](size_t i) {
        return i >= first && i < last && sched[i].measured;
      });

  // Queueing/batching wait estimate: serve latency minus the engine time
  // at the batch size nearest the model's mean fill.
  std::vector<double> wait;
  for (size_t j = 0; j < rp.lat_ms.size(); ++j) {
    if (!replayed(j)) continue;
    const size_t m = sched[first + j].model;
    const double fill = rp.stats[m].avg_fill();
    size_t b = 0;
    for (size_t k = 1; k < 3; ++k)
      if (std::abs(kSweepRows[k] - fill) < std::abs(kSweepRows[b] - fill))
        b = k;
    wait.push_back(rp.lat_ms[j] - et.run_ms[m][b]);
  }

  const auto measured_traced = [&](bool want) {
    return select(run.lat_ms, [&](size_t i) {
      return single(i) && (run.traced[i] != 0) == want;
    });
  };
  ServeStats shed;  // summed over the models
  for (const ServeStats& s : rp.stats) {
    shed.expired += s.expired;
    shed.rejected += s.rejected;
    shed.dropped_oldest += s.dropped_oldest;
  }
  res.layers = {
      {"gen.lag_ms.p99", lag_p99, "ms"},
      {"net.send_us.p50", percentile(run.send_us, 0.5), "us"},
      {"net.send_us.p99", percentile(run.send_us, 0.99), "us"},
      {"net.overhead_ms.p50",
       percentile(wire_lat, 0.5) - percentile(serve_lat, 0.5), "ms"},
      {"net.frames", static_cast<double>(ex.submitted), "count"},
      {"net.shed", static_cast<double>(ex.shed), "count"},
      {"net.rejected", static_cast<double>(ex.rejected), "count"},
      {"net.orphaned", static_cast<double>(ex.orphaned), "count"},
      {"serve.latency_ms.p50", percentile(serve_lat, 0.5), "ms"},
      {"serve.latency_ms.p99", percentile(serve_lat, 0.99), "ms"},
      {"serve.submit_us.p99", percentile(rp.submit_us, 0.99), "us"},
      {"serve.wait_est_ms.p50", percentile(wait, 0.5), "ms"},
      {"serve.expired", static_cast<double>(shed.expired), "count"},
      {"serve.rejected", static_cast<double>(shed.rejected), "count"},
      {"serve.dropped_oldest", static_cast<double>(shed.dropped_oldest),
       "count"},
  };
  for (size_t m = 0; m < kNumModels; ++m)
    res.layers.push_back({std::string("serve.avg_fill.") + kModelNames[m],
                          rp.stats[m].avg_fill(), "images"});
  for (size_t m = 0; m < kNumModels; ++m)
    res.layers.push_back({std::string("serve.batches.") + kModelNames[m],
                          static_cast<double>(rp.stats[m].batches), "count"});
  res.layers.push_back({"trace.overhead.lat_p50_ms",
                        percentile(measured_traced(true), 0.5) -
                            percentile(measured_traced(false), 0.5),
                        "ms"});
  return res;
}

}  // namespace alf::e2e
