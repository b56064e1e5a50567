// Serving workload: a shard::Router fronting two in-process shard::Workers
// on loopback, driven by an open-loop arrival schedule (independent users)
// and a closed-loop capacity phase.  Every response is gated: status Ok,
// its own correlation id, and bitwise equal to a direct session run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "fft/plan_cache.hpp"

namespace fnobench {

namespace {

namespace net = turbofno::net;
namespace serve = turbofno::serve;
namespace shard = turbofno::shard;

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kPool = 32;          // distinct inputs per model
constexpr std::size_t kClosedInflight = 16;
constexpr double kIoTimeoutS = 5.0;

/// One scheduled request: due time (s from phase start), model, QoS.
struct Arrival {
  double t = 0.0;
  std::uint32_t model = 0;
  bool high = false;
};

std::vector<Arrival> load_schedule(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("missing schedule " + path);
  std::vector<Arrival> s;
  Arrival a;
  int high = 0;
  while (f >> a.t >> a.model >> high) {
    a.high = high != 0;
    s.push_back(a);
  }
  return s;
}

core::Fno1dConfig serve_model_1d() {
  core::Fno1dConfig c;  // {1, 8, 1, 64, 16, 1}
  c.in_channels = 1;
  c.hidden = 8;
  c.out_channels = 1;
  c.n = 64;
  c.modes = 16;
  c.layers = 1;
  return c;
}

core::Fno2dConfig serve_model_2d() {
  core::Fno2dConfig c;  // {1, 8, 1, 16, 16, 4, 4, 1}
  c.in_channels = 1;
  c.hidden = 8;
  c.out_channels = 1;
  c.nx = 16;
  c.ny = 16;
  c.modes_x = 4;
  c.modes_y = 4;
  c.layers = 1;
  return c;
}

/// The topology (1D c32 model on worker 0, 2D f32 model on worker 1), its
/// seeded request pools and the direct-session output of every pool entry.
struct Models {
  shard::Topology topo;
  core::Fno1dConfig c1 = serve_model_1d();
  core::Fno2dConfig c2 = serve_model_2d();
  std::vector<std::vector<c32>> in1, out1;
  std::vector<std::vector<float>> in2, out2;

  explicit Models(unsigned seed) {
    topo.add(c1, 0);
    topo.add(c2, 1);

    core::Engine e;
    auto s1 = e.create_session(e.register_model(c1), 1);
    auto s2 = e.create_session(e.register_model(c2), 1);
    std::vector<c32> tmp(c2.nx * c2.ny);
    for (std::size_t p = 0; p < kPool; ++p) {
      const unsigned ps = seed * 2654435761u + static_cast<unsigned>(p) * 7919u + 3u;
      in1.emplace_back(c1.n);
      core::burgers_initial_condition(in1.back(), c1.n, ps);
      out1.emplace_back(c1.n);
      s1.run(in1.back(), out1.back(), 1);
      core::darcy_coefficient_field(tmp, c2.nx, c2.ny, ps);
      in2.emplace_back(tmp.size());
      std::transform(tmp.begin(), tmp.end(), in2.back().begin(), [](c32 z) { return z.re; });
      out2.emplace_back(tmp.size());
      s2.run_real(in2.back(), out2.back(), 1);
    }
  }

  [[nodiscard]] std::size_t pool_index(std::size_t i) const { return (i / 2) % kPool; }

  /// Sends request `i` (schedule entry `a`) for global/worker-local model id
  /// `wire_model`.
  std::uint64_t send(net::Client& c, std::uint32_t wire_model, const Arrival& a,
                     std::size_t i) const {
    const auto qos = a.high ? net::Qos::High : net::Qos::Normal;
    const std::size_t p = pool_index(i);
    if (a.model == 0) {
      const std::uint32_t dims[] = {1, static_cast<std::uint32_t>(c1.n)};
      return c.send_request(wire_model, net::Dtype::C32, dims,
                            std::as_bytes(std::span<const c32>(in1[p])), qos);
    }
    const std::uint32_t dims[] = {1, static_cast<std::uint32_t>(c2.nx),
                                  static_cast<std::uint32_t>(c2.ny)};
    return c.send_request(wire_model, net::Dtype::F32, dims,
                          std::as_bytes(std::span<const float>(in2[p])), qos);
  }

  /// Bitwise gate of a response payload for request `i` of `model`.
  [[nodiscard]] bool matches(std::uint32_t model, std::size_t i,
                             std::span<const std::byte> payload) const {
    const std::size_t p = pool_index(i);
    const auto want = model == 0 ? std::as_bytes(std::span<const c32>(out1[p]))
                                 : std::as_bytes(std::span<const float>(out2[p]));
    return payload.size() == want.size() &&
           std::memcmp(payload.data(), want.data(), want.size()) == 0;
  }
};

/// Router + two workers, default options, ephemeral loopback ports.
struct Fleet {
  std::unique_ptr<shard::Worker> w[2];
  std::unique_ptr<shard::Router> router;

  explicit Fleet(const shard::Topology& topo) {
    for (std::size_t i = 0; i < 2; ++i) {
      w[i] = std::make_unique<shard::Worker>(topo, i);
      w[i]->start();
    }
    router = std::make_unique<shard::Router>(topo);
    for (std::size_t i = 0; i < 2; ++i) router->set_worker_endpoint(i, w[i]->port());
    router->start();
  }
  ~Fleet() {
    router->stop();
    for (auto& wk : w) wk->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

// Per-request outcome codes: a WireStatus value (serve::Status values map
// onto the first five), or one of these.
constexpr std::uint8_t kOk = 0;
constexpr std::uint8_t kMismatch = 254;  // Ok, but not the direct-session bytes
constexpr std::uint8_t kMissing = 255;   // never answered

/// Typed refusals: the request failed, but no output is wrong.
bool refused(std::uint8_t code) {
  return code == static_cast<std::uint8_t>(net::WireStatus::Shed) ||
         code == static_cast<std::uint8_t>(net::WireStatus::Rejected);
}

/// Per-request record of one phase (all times in s on the now_s() clock).
struct PhaseLog {
  std::vector<Arrival> sched;
  double t0 = 0.0;
  std::vector<double> sent, done;
  std::vector<std::uint8_t> code;
  std::vector<double> queue_s, exec_s;

  explicit PhaseLog(std::vector<Arrival> s) : sched(std::move(s)) {
    const std::size_t n = sched.size();
    sent.assign(n, -1.0);
    done.assign(n, -1.0);
    code.assign(n, kMissing);
    queue_s.assign(n, -1.0);
    exec_s.assign(n, -1.0);
  }
  [[nodiscard]] bool ok(std::size_t i) const { return code[i] == kOk; }
  [[nodiscard]] std::size_t failed() const {
    return static_cast<std::size_t>(sched.size() - std::count(code.begin(), code.end(), kOk));
  }
  [[nodiscard]] std::size_t refusals() const {
    return static_cast<std::size_t>(std::count_if(code.begin(), code.end(), refused));
  }
  void tally(Tally& t) const {
    t.attempted += sched.size();
    t.failed += failed();
    t.refused += refusals();
  }
  /// Latency from the scheduled send time; failed requests read +inf.
  [[nodiscard]] std::vector<double> latency() const {
    std::vector<double> v(code.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = ok(i) ? done[i] - (t0 + sched[i].t) : INFINITY;
    }
    return v;
  }
  [[nodiscard]] std::vector<double> late() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (sent[i] >= 0.0) v.push_back(sent[i] - (t0 + sched[i].t));
    }
    return v;
  }
};

void wait_until(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

/// Synchronous first request per model on `c`; returns the next correlation
/// id the client will use.
std::uint64_t prime(net::Client& c, const Models& m, std::span<const std::uint32_t> wire_model,
                    std::span<const std::uint32_t> models, bool& ok) {
  std::uint64_t last = 0;
  for (std::size_t k = 0; k < models.size(); ++k) {
    const Arrival a{0.0, models[k], false};
    const std::uint64_t corr = m.send(c, wire_model[k], a, 0);
    net::Client::Result r;
    if (!c.recv_response(r)) throw std::runtime_error("server closed during warm-up");
    ok = ok && r.head.correlation == corr && r.head.status == net::WireStatus::Ok &&
         m.matches(models[k], 0, r.payload());
    last = corr;
  }
  return last + 1;
}

/// Open loop over sockets: one sender thread paces the schedule; one
/// receiver thread per connection.  `conn[m]` / `wire[m]` give the client
/// and model id requests of model m go to.
void open_loop_socket(const Models& m, PhaseLog& log, net::Client* const conn[2],
                      const std::uint32_t wire[2]) {
  // Connections in use, and per connection the requests in send order (a
  // client numbers its requests sequentially from its base correlation).
  std::vector<net::Client*> clients;
  for (int k = 0; k < 2; ++k) {
    if (std::find(clients.begin(), clients.end(), conn[k]) == clients.end()) {
      clients.push_back(conn[k]);
    }
  }
  std::vector<std::vector<std::size_t>> order(clients.size());
  for (std::size_t i = 0; i < log.sched.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        std::find(clients.begin(), clients.end(), conn[log.sched[i].model]) - clients.begin());
    order[c].push_back(i);
  }
  std::vector<std::uint64_t> base(clients.size());
  bool primed = true;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    std::vector<std::uint32_t> models, wires;
    for (std::uint32_t k = 0; k < 2; ++k) {
      if (conn[k] == clients[c]) {
        models.push_back(k);
        wires.push_back(wire[k]);
      }
    }
    base[c] = prime(*clients[c], m, wires, models, primed);
  }
  if (!primed) throw std::runtime_error("warm-up request failed");

  std::vector<std::thread> rx;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    rx.emplace_back([&, c] {
      net::Client::Result r;
      std::vector<std::uint8_t> seen(order[c].size(), 0);
      try {
        for (std::size_t got = 0; got < order[c].size(); ++got) {
          if (!clients[c]->recv_response(r)) return;
          const double t = now_s();
          const std::uint64_t seq = r.head.correlation - base[c];
          if (seq >= order[c].size() || seen[seq]) continue;
          seen[seq] = 1;
          const std::size_t i = order[c][seq];
          log.done[i] = t;
          log.queue_s[i] = r.head.queue_us * 1e-6;
          log.exec_s[i] = r.head.exec_us * 1e-6;
          log.code[i] = static_cast<std::uint8_t>(r.head.status);
          if (log.ok(i) && !m.matches(log.sched[i].model, i, r.payload())) {
            log.code[i] = kMismatch;
          }
        }
      } catch (const std::exception&) {
        // A timed-out or broken stream leaves the rest marked failed.
      }
    });
  }
  log.t0 = now_s() + 0.005;
  try {
    for (std::size_t i = 0; i < log.sched.size(); ++i) {
      const Arrival& a = log.sched[i];
      wait_until(log.t0 + a.t);
      log.sent[i] = now_s();
      m.send(*conn[a.model], wire[a.model], a, i);
    }
  } catch (const std::exception&) {
    // Unsent requests stay failed; receivers end on their io timeout.
  }
  for (auto& t : rx) t.join();
}

/// Completion slot of one in-process request; the callback captures only
/// a pointer to it (no std::function allocation).
struct InprocSlot {
  PhaseLog* log = nullptr;
  std::size_t i = 0;
  serve::Status status = serve::Status::ShutDown;
};

/// Open loop straight into each worker's InferenceServer (no socket).
void open_loop_inproc(const Models& m, PhaseLog& log, serve::InferenceServer* const srv[2]) {
  const std::size_t n = log.sched.size();
  std::vector<std::vector<std::byte>> out(n);
  std::vector<InprocSlot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = InprocSlot{&log, i, serve::Status::ShutDown};
    out[i].resize(log.sched[i].model == 0 ? m.c1.n * sizeof(c32)
                                          : m.c2.nx * m.c2.ny * sizeof(float));
  }
  log.t0 = now_s() + 0.005;
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = log.sched[i];
    wait_until(log.t0 + a.t);
    log.sent[i] = now_s();
    serve::SubmitOptions so;
    so.priority = a.high ? serve::Priority::High : serve::Priority::Normal;
    InprocSlot* slot = &slots[i];
    auto cb = [slot](serve::InferResponse&& r) {
      slot->log->done[slot->i] = now_s();
      slot->log->queue_s[slot->i] = r.timing.queue_s;
      slot->log->exec_s[slot->i] = r.timing.exec_s;
      slot->status = r.status;
    };
    const std::size_t p = m.pool_index(i);
    if (a.model == 0) {
      srv[0]->submit(0, std::span<const c32>(m.in1[p]),
                     std::span<c32>(reinterpret_cast<c32*>(out[i].data()), m.c1.n), cb, so);
    } else {
      srv[1]->submit_real(0, std::span<const float>(m.in2[p]),
                          std::span<float>(reinterpret_cast<float*>(out[i].data()),
                                           m.c2.nx * m.c2.ny),
                          cb, so);
    }
  }
  // drain() returns once every accepted request has been delivered.
  srv[0]->drain();
  srv[1]->drain();
  for (std::size_t i = 0; i < n; ++i) {
    log.code[i] = slots[i].status == serve::Status::Ok && !m.matches(log.sched[i].model, i, out[i])
                      ? kMismatch
                      : static_cast<std::uint8_t>(slots[i].status);
  }
}

/// Closed loop through `c` with kClosedInflight requests outstanding for
/// `seconds`: completion times (s from the phase start) of the Ok
/// responses inside the window, and the gated request tally.
struct ClosedResult {
  std::vector<double> done_s;
  Tally tally;
};

ClosedResult closed_loop(const Models& m, net::Client& c, double seconds) {
  const std::uint32_t wire[2] = {0, 1};
  const std::uint32_t models[2] = {0, 1};
  bool primed = true;
  const std::uint64_t base = prime(c, m, wire, models, primed);
  if (!primed) throw std::runtime_error("warm-up request failed");
  std::counting_semaphore<kClosedInflight> window(kClosedInflight);
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sending{true};
  std::size_t got = 0;
  ClosedResult res;
  res.done_s.reserve(1 << 20);
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  std::thread rx([&] {
    net::Client::Result r;
    try {
      for (;;) {
        if (got == sent.load(std::memory_order_acquire)) {
          if (!sending.load(std::memory_order_acquire) &&
              got == sent.load(std::memory_order_acquire)) {
            return;
          }
          std::this_thread::yield();
          continue;
        }
        if (!c.recv_response(r)) return;
        const double t = now_s();
        ++got;
        const std::uint64_t seq = r.head.correlation - base;
        auto code = static_cast<std::uint8_t>(r.head.status);
        if (seq >= sent.load(std::memory_order_acquire)) {
          code = kMismatch;
        } else if (code == kOk &&
                   !m.matches(static_cast<std::uint32_t>(seq % 2), seq, r.payload())) {
          code = kMismatch;
        }
        if (code != kOk) {
          ++res.tally.failed;
          if (refused(code)) ++res.tally.refused;
        } else if (t <= t_end) {
          res.done_s.push_back(t - t0);
        }
        window.release();
      }
    } catch (const std::exception&) {
      // A timed-out or broken stream: the unanswered count as failed below.
    }
  });
  std::size_t k = 0;
  try {
    while (now_s() < t_end) {
      if (!window.try_acquire_for(std::chrono::milliseconds(100))) continue;
      const Arrival a{0.0, static_cast<std::uint32_t>(k % 2), k % 4 == 0};
      // Published before the send: the response may arrive first.
      sent.store(++k, std::memory_order_release);
      m.send(c, wire[a.model], a, k - 1);
    }
  } catch (const std::exception&) {
  }
  sending.store(false, std::memory_order_release);
  rx.join();
  res.tally.attempted = k;
  res.tally.failed += k - got;
  return res;
}

std::vector<double> to_ms(std::vector<double> v) {
  for (auto& x : v) x *= 1e3;
  return v;
}

/// Request spans of a finished phase: the request (scheduled send ->
/// response) with the generator's lateness (scheduled -> actual send) as
/// its child, so the request's self time excludes the generator's delay.
void phase_spans(const PhaseLog& log, const char* name, Tracer& tr, std::uint32_t parent) {
  for (std::size_t i = 0; i < log.sched.size(); ++i) {
    if (!log.ok(i)) continue;
    const double due = log.t0 + log.sched[i].t;
    const auto id = tr.add(name, due, log.done[i], parent, i + 1);
    tr.add("loadgen.late", due, log.sent[i], id, i + 1);
  }
}

struct Snapshot {
  serve::ServerStats s[2];
  turbofno::trace::PipelineCounters lat[2];
  net::SocketServer::Stats sock[2];
  shard::Router::Stats router;

  explicit Snapshot(const Fleet& f) {
    for (int i = 0; i < 2; ++i) {
      s[i] = f.w[i]->server()->stats();
      lat[i] = f.w[i]->server()->latency_counters();
      sock[i] = f.w[i]->stats();
    }
    router = f.router->stats();
  }
};

std::uint64_t stage_bytes(const turbofno::trace::PipelineCounters& c, const char* stage,
                          bool written) {
  for (const auto& st : c.stages()) {
    if (st.name == stage) return written ? st.bytes_written : st.bytes_read;
  }
  return 0;
}

}  // namespace

void serving_probes(const Args& args, Tracer& tr, Json& j, Tally& tally) {
  const Models m(args.seed);
  Fleet f(m.topo);
  const auto sched = load_schedule(args.sched_dir + "/probe_r5000.txt");
  serve::InferenceServer* srv[2] = {f.w[0]->server().get(), f.w[1]->server().get()};

  // Allocations per request: in-process, one request in flight, models
  // alternating; warmed first so every session and staging buffer exists.
  {
    constexpr std::size_t kWarm = 20, kCount = 200;
    std::binary_semaphore done(0);
    std::vector<c32> o1(m.c1.n);
    std::vector<float> o2(m.c2.nx * m.c2.ny);
    serve::Status last = serve::Status::Ok;
    auto one = [&](std::size_t i) {
      std::binary_semaphore* d = &done;
      serve::Status* st = &last;
      auto cb = [d, st](serve::InferResponse&& r) {
        *st = r.status;
        d->release();
      };
      const std::size_t p = m.pool_index(i);
      if (i % 2 == 0) {
        srv[0]->submit(0, std::span<const c32>(m.in1[p]), std::span<c32>(o1), cb);
      } else {
        srv[1]->submit_real(0, std::span<const float>(m.in2[p]), std::span<float>(o2), cb);
      }
      done.acquire();
      tally.add(last == serve::Status::Ok &&
                (i % 2 == 0 ? m.matches(0, i, std::as_bytes(std::span<const c32>(o1)))
                            : m.matches(1, i, std::as_bytes(std::span<const float>(o2)))));
    };
    for (std::size_t i = 0; i < kWarm; ++i) one(i);
    const std::uint64_t a0 = alloc_count();
    set_alloc_counting(true);
    for (std::size_t i = 0; i < kCount; ++i) one(i);
    set_alloc_counting(false);
    j.num("serve.allocs_per_request",
          static_cast<double>(alloc_count() - a0) / static_cast<double>(kCount));
  }

  net::Client to_worker[2];
  net::Client to_router;
  for (int i = 0; i < 2; ++i) {
    to_worker[i].connect(f.w[i]->port());
    to_worker[i].set_io_timeout(kIoTimeoutS);
  }
  to_router.connect(f.router->port());
  to_router.set_io_timeout(kIoTimeoutS);

  const Snapshot before(f);
  PhaseLog inproc(sched), socket(sched), routed(sched);
  const std::uint32_t root = tr.open("probe.serving");
  open_loop_inproc(m, inproc, srv);
  {
    net::Client* conn[2] = {&to_worker[0], &to_worker[1]};
    const std::uint32_t wire[2] = {0, 0};
    open_loop_socket(m, socket, conn, wire);
  }
  {
    net::Client* conn[2] = {&to_router, &to_router};
    const std::uint32_t wire[2] = {0, 1};
    open_loop_socket(m, routed, conn, wire);
  }
  tr.close(root);
  const Snapshot after(f);

  phase_spans(inproc, "serve.request", tr, root);
  phase_spans(socket, "net.request", tr, root);
  phase_spans(routed, "shard.request", tr, root);
  for (const PhaseLog* p : {&inproc, &socket, &routed}) p->tally(tally);

  std::vector<double> q, e;
  for (std::size_t i = 0; i < routed.sched.size(); ++i) {
    if (!routed.ok(i)) continue;
    q.push_back(routed.queue_s[i]);
    e.push_back(routed.exec_s[i]);
  }
  j.array("serve.queue_ms", to_ms(q));
  j.array("serve.exec_ms", to_ms(e));

  std::uint64_t batches = 0, batched = 0, rejected = 0, shed = 0, gather = 0, scatter = 0;
  std::uint64_t pauses = 0, dropped = 0;
  for (int i = 0; i < 2; ++i) {
    batches += after.s[i].batches - before.s[i].batches;
    batched += after.s[i].batched_requests - before.s[i].batched_requests;
    rejected += after.s[i].rejected - before.s[i].rejected;
    shed += (after.s[i].shed_normal + after.s[i].shed_high) -
            (before.s[i].shed_normal + before.s[i].shed_high);
    gather += stage_bytes(after.lat[i], "gather", false) -
              stage_bytes(before.lat[i], "gather", false);
    scatter += stage_bytes(after.lat[i], "scatter", true) -
               stage_bytes(before.lat[i], "scatter", true);
    pauses += after.sock[i].backpressure_pauses - before.sock[i].backpressure_pauses;
    dropped += after.sock[i].dropped_responses - before.sock[i].dropped_responses;
  }
  j.num("serve.avg_micro_batch",
        batches == 0 ? 0.0 : static_cast<double>(batched) / static_cast<double>(batches));
  j.integer("serve.rejected", rejected);
  j.integer("serve.shed", shed);
  j.integer("serve.gather_bytes", gather);
  j.integer("serve.scatter_bytes", scatter);
  j.integer("net.backpressure_pauses", pauses);
  j.integer("net.dropped_responses", dropped);
  const auto& ra = after.router;
  const auto& rb = before.router;
  j.integer("shard.gap_queued", ra.gap_queued - rb.gap_queued);
  j.integer("shard.shed_by_router", ra.shed_by_router - rb.shed_by_router);
  const auto routed_frames = ra.frames_routed - rb.frames_routed;
  j.num("shard.relay_ratio",
        routed_frames == 0 ? 0.0
                           : static_cast<double>(ra.responses_relayed - rb.responses_relayed) /
                                 static_cast<double>(routed_frames));
}

int run_serve(const Args& args) {
  Json j;
  fingerprint(j);
  Tally tally;

  if (args.traced) {
    // Layer probes at the 1D model's shape, one default micro-batch wide.
    Tracer tr;
    BatchCase bc(serve_model_1d(), serve::BatchingPolicy{}.max_batch, args.seed);
    core::Engine e;
    auto s = bc.open(e);
    session_section(bc, s, args.seconds, tr, j, tally);
    layer_probes(s, bc.layer_shape(), args.seed, tr, j);
    serving_probes(args, tr, j, tally);
    tr.write(args.spans);
  } else {
    const Models m(args.seed);
    // Set-up: worker and router start-up to the first Ok of each model,
    // from a cold plan cache each time.
    std::vector<double> setup;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
      turbofno::fft::plan_cache_clear();
      const double t0 = now_s();
      Fleet f(m.topo);
      net::Client c;
      c.connect(f.router->port());
      c.set_io_timeout(kIoTimeoutS);
      const std::uint32_t ids[2] = {0, 1};
      bool ok = true;
      prime(c, m, ids, ids, ok);
      setup.push_back(now_s() - t0);
      tally.add(ok);
      tally.add(ok);
    }

    Fleet f(m.topo);
    net::Client c;
    c.connect(f.router->port());
    c.set_io_timeout(kIoTimeoutS);
    net::Client* conn[2] = {&c, &c};
    const std::uint32_t wire[2] = {0, 1};
    j.begin("phases");
    for (const int rate : {2000, 5000, 10000}) {
      PhaseLog log(load_schedule(args.sched_dir + "/r" + std::to_string(rate) + ".txt"));
      open_loop_socket(m, log, conn, wire);
      log.tally(tally);
      j.begin("r" + std::to_string(rate));
      j.array("lat_ms", to_ms(log.latency()));
      j.array("late_ms", to_ms(log.late()));
      j.integer("failed", log.failed());
      j.integer("refused", log.refusals());
      j.end();
    }
    j.end();
    const ClosedResult cl = closed_loop(m, c, args.closed_seconds);
    tally.attempted += cl.tally.attempted;
    tally.failed += cl.tally.failed;
    tally.refused += cl.tally.refused;
    j.array("closed_done_s", cl.done_s);
    j.integer("closed_failed", cl.tally.failed);
    j.integer("closed_refused", cl.tally.refused);
    j.num("closed_seconds", args.closed_seconds);
    j.array("setup_s", setup);
    j.num("peak_rss_mb", peak_rss_mb());
  }
  tally.write(j);
  write_file(args.out, j.finish());
  return 0;
}

}  // namespace fnobench
