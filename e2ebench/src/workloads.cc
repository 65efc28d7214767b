#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "checks.h"
#include "client/clerk_pool.h"
#include "client/reliable_client.h"
#include "common.h"
#include "env/env.h"
#include "net/io_backend.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_repository.h"
#include "tracing.h"
#include "util/thread_annotations.h"

namespace e2e {
namespace {

using rrq::Slice;
namespace client = rrq::client;
namespace net = rrq::net;
namespace queue = rrq::queue;

// The make-up of the inputs (README.md, "Inputs").
constexpr size_t kClerks = 4;
constexpr uint32_t kChains = 16;      // volatile_pipeline
constexpr uint32_t kReplChains = 4;   // replicated_ack
constexpr uint64_t kWarmupPerClerk = 1000;
// request_reply's restarts over the warm-up history, one set-up each.
constexpr int kSetupRestarts = 5;
constexpr size_t kMinBody = 16;
constexpr size_t kMaxBody = 128;
const char* const kAuditQueue = "audit";

// Independent, reproducible input streams per (seed, phase, actor).
rrq::util::Rng StreamRng(uint64_t seed, uint64_t phase, uint64_t actor) {
  return rrq::util::Rng(seed * 0x9e3779b97f4a7c15ull ^ (phase << 40) ^ actor);
}

std::vector<std::string> ServingArgs(const std::string& dir) {
  return {"--dir", dir, "--port", "0", "--threads",
          std::to_string(ServerThreads()), "--audit-queue", kAuditQueue};
}

// ---------------------------------------------------------------------------
// Clients

client::ClerkPoolOptions PoolOptions(uint16_t port) {
  client::ClerkPoolOptions o;
  o.channel.port = port;
  o.channel.call_timeout_micros = 10'000'000;
  o.clerks = static_cast<int>(kClerks);
  o.request_queue = kRequestQueue;
  o.receive_timeout_micros = 1'000'000;
  // Bounded, so a dead daemon fails the run instead of stalling it.
  o.max_recovery_attempts = 8;
  o.max_poll_attempts = 20;
  return o;
}

// Four clerks on one connection, each driven by its own thread.
class Clerks {
 public:
  virtual ~Clerks() = default;
  virtual Status Start() = 0;
  virtual Result<std::string> Execute(size_t i, const Slice& body) = 0;
  virtual Result<client::ConnectResult> Resynchronize(size_t i) = 0;
  virtual std::string client_id(size_t i) = 0;
  virtual std::string reply_queue(size_t i) = 0;
  virtual net::TcpChannel* channel() = 0;
  virtual net::ChannelQueueApi* api() = 0;
  virtual uint64_t redeliveries() = 0;
  virtual Status Stop() = 0;
};

// What users run: a ClerkPool.
class PoolClerks final : public Clerks {
 public:
  explicit PoolClerks(uint16_t port) : pool_(PoolOptions(port)) {}
  Status Start() override { return pool_.Start(); }
  Result<std::string> Execute(size_t i, const Slice& body) override {
    return pool_.Execute(i, body);
  }
  Result<client::ConnectResult> Resynchronize(size_t i) override {
    return pool_.Resynchronize(i);
  }
  std::string client_id(size_t i) override { return pool_.client_id(i); }
  std::string reply_queue(size_t i) override { return pool_.reply_queue(i); }
  net::TcpChannel* channel() override { return pool_.channel(); }
  net::ChannelQueueApi* api() override { return pool_.api(); }
  uint64_t redeliveries() override {
    uint64_t n = 0;
    for (size_t i = 0; i < pool_.size(); ++i) n += pool_.reliable(i)->redeliveries();
    return n;
  }
  Status Stop() override { return pool_.Stop(); }

 private:
  client::ClerkPool pool_;
};

// The traced run's clients: ClerkPool's composition (one channel, one
// ChannelQueueApi, a ReliableClient per slot) with a TracingQueueApi
// between the clerks and the channel, which ClerkPool cannot take.
class TracedClerks final : public Clerks {
 public:
  explicit TracedClerks(uint16_t port)
      : options_(PoolOptions(port)),
        channel_(options_.channel),
        api_(&channel_),
        traced_(&api_) {
    for (size_t i = 0; i < kClerks; ++i) {
      client::ReliableClientOptions rc;
      rc.clerk.client_id = options_.client_prefix + "-" + std::to_string(i);
      rc.clerk.request_queue = options_.request_queue;
      rc.clerk.reply_queue = options_.reply_queue_prefix + rc.clerk.client_id;
      rc.clerk.api = &traced_;
      rc.clerk.receive_timeout_micros = options_.receive_timeout_micros;
      rc.max_recovery_attempts = options_.max_recovery_attempts;
      rc.max_poll_attempts = options_.max_poll_attempts;
      clients_.push_back(
          std::make_unique<client::ReliableClient>(rc, client::ReplyProcessor()));
    }
  }
  Status Start() override {
    std::vector<std::string> queues = {kRequestQueue};
    for (size_t i = 0; i < kClerks; ++i) queues.push_back(reply_queue(i));
    for (const std::string& q : queues) {
      Status s = api_.CreateQueue(q);
      if (!s.ok() && !s.IsAlreadyExists()) return s;
    }
    for (auto& c : clients_) RRQ_RETURN_IF_ERROR(c->Start());
    return Status::OK();
  }
  Result<std::string> Execute(size_t i, const Slice& body) override {
    Span span;
    span.kind = SpanKind::kExecute;
    span.start_ns = NowNanos();
    auto r = clients_[i]->Execute(body);
    span.end_ns = NowNanos();
    if (r.ok()) {  // "done:<rid>:<count>"
      span.rid = HashRid(r->substr(5, r->rfind(':') - 5));
    }
    Tracer::Get().Record(span);
    return r;
  }
  Result<client::ConnectResult> Resynchronize(size_t i) override {
    return clients_[i]->Resynchronize();
  }
  std::string client_id(size_t i) override {
    return options_.client_prefix + "-" + std::to_string(i);
  }
  std::string reply_queue(size_t i) override {
    return options_.reply_queue_prefix + client_id(i);
  }
  net::TcpChannel* channel() override { return &channel_; }
  net::ChannelQueueApi* api() override { return &api_; }
  uint64_t redeliveries() override {
    uint64_t n = 0;
    for (auto& c : clients_) n += c->redeliveries();
    return n;
  }
  Status Stop() override {
    Status first;
    for (auto& c : clients_) {
      Status s = c->Stop();
      if (!s.ok() && first.ok()) first = s;
    }
    return first;
  }

 private:
  client::ClerkPoolOptions options_;
  net::TcpChannel channel_;
  net::ChannelQueueApi api_;
  TracingQueueApi traced_;
  std::vector<std::unique_ptr<client::ReliableClient>> clients_;
};

std::unique_ptr<Clerks> MakeClerks(bool traced, uint16_t port) {
  if (traced) return std::make_unique<TracedClerks>(port);
  return std::make_unique<PoolClerks>(port);
}

// ---------------------------------------------------------------------------
// Closed loops

struct LoopResult {
  std::vector<uint64_t> latencies_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t body_bytes = 0;  // request bodies plus reply bodies
  std::vector<std::string> completed_rids;
  std::vector<uint64_t> per_clerk_completed;
  Violations violations;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<uint64_t> per_second;  // completions in each second
};

void CountPerSecond(uint64_t start_ns, const std::vector<uint64_t>& done_at,
                    std::vector<uint64_t>* per_second) {
  for (uint64_t t : done_at) {
    const size_t s = static_cast<size_t>((t - start_ns) / 1'000'000'000);
    if (per_second->size() <= s) per_second->resize(s + 1, 0);
    ++(*per_second)[s];
  }
}

// Each clerk's sequential program on its own thread: `count` requests
// per clerk when count > 0, else requests until `duration_ns` elapse. The
// clerk's requests carry seqs first_seq[i], first_seq[i]+1, ...
LoopResult ClosedLoop(Clerks* clerks, const std::vector<uint64_t>& first_seq,
                      uint64_t count, uint64_t duration_ns, uint64_t seed,
                      uint64_t phase) {
  struct PerClerk {
    std::vector<uint64_t> latencies;
    std::vector<uint64_t> done_at;
    std::vector<std::string> replies;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t body_bytes = 0;
    std::string error;
  };
  std::vector<PerClerk> per(kClerks);
  LoopResult out;
  out.start_ns = NowNanos();
  const uint64_t deadline = out.start_ns + duration_ns;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClerks; ++i) {
    threads.emplace_back([&, i] {
      PerClerk& p = per[i];
      rrq::util::Rng rng = StreamRng(seed, phase, i);
      while (count > 0 ? p.attempted < count : NowNanos() < deadline) {
        const std::string body = SeededBody(&rng, kMinBody, kMaxBody);
        const uint64_t t0 = NowNanos();
        auto reply = clerks->Execute(i, body);
        const uint64_t t1 = NowNanos();
        ++p.attempted;
        if (!reply.ok()) {
          ++p.failed;
          p.error = clerks->client_id(i) + ": " + reply.status().ToString();
          break;
        }
        p.latencies.push_back(t1 - t0);
        p.done_at.push_back(t1);
        p.body_bytes += body.size() + reply->size();
        p.replies.push_back(std::move(*reply));
      }
    });
  }
  for (auto& t : threads) t.join();
  out.end_ns = NowNanos();
  for (size_t i = 0; i < kClerks; ++i) {
    PerClerk& p = per[i];
    const std::string id = clerks->client_id(i);
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.body_bytes += p.body_bytes;
    if (!p.error.empty()) out.violations.push_back(p.error);
    for (std::string& v : CheckClerkReplies(id, first_seq[i], p.replies)) {
      out.violations.push_back(std::move(v));
    }
    for (size_t k = 0; k < p.replies.size(); ++k) {
      out.completed_rids.push_back(RidOf(id, first_seq[i] + k));
    }
    out.per_clerk_completed.push_back(p.replies.size());
    out.latencies_ns.insert(out.latencies_ns.end(), p.latencies.begin(),
                            p.latencies.end());
    CountPerSecond(out.start_ns, p.done_at, &out.per_second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer counters (traced run)

struct Counters {
  uint64_t server_syscalls = 0, server_waits = 0, client_syscalls = 0;
  uint64_t sync_requests = 0, syncs = 0, commits = 0, processed = 0, aborted = 0;
  uint64_t env_syncs[kFamilies] = {}, env_bytes[kFamilies] = {};
};

Counters Snapshot(Host* host, net::TcpChannel* channel) {
  Counters c;
  const net::IoLoopStats server = host->tcp()->io_stats();
  c.server_syscalls = server.io_syscalls();
  c.server_waits = server.waits;
  c.client_syscalls = channel->io_stats().io_syscalls();
  c.sync_requests = host->repo()->wal_sync_request_count();
  c.syncs = host->repo()->wal_sync_count();
  c.commits = host->txn()->commit_count();
  if (host->server() != nullptr) {
    c.processed = host->server()->processed_count();
    c.aborted = host->server()->aborted_count();
  }
  for (int f = 0; f < kFamilies; ++f) {
    c.env_syncs[f] = host->env()->counters(static_cast<Family>(f)).syncs.load();
    c.env_bytes[f] = host->env()->counters(static_cast<Family>(f)).append_bytes.load();
  }
  return c;
}

// ---------------------------------------------------------------------------
// One workload run

struct Outcome {
  Status fatal;  // the run could not be carried out
  Violations violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  double elapsed_s = 0;
  double setup_s = 0;
  std::vector<double> setup_samples;  // the set-ups this trial adds to setup_s
  std::vector<uint64_t> latencies_ns;
  uint64_t daemon_cpu_us = 0;
  uint64_t client_cpu_us = 0;
  std::vector<uint64_t> per_second;
  std::string backend;
  Metrics layers;  // traced runs only
};

// What one call of a workload function runs: its inputs' seed and
// stream, how long each timed phase lasts, and the directory its
// daemons keep their state in.
struct Trial {
  uint64_t seed = 1;
  uint64_t phase = 0;  // separates the input streams of trials
  uint64_t duration_ns = 0;
  std::string dir;
  bool traced = false;
};

void Absorb(Outcome* o, LoopResult&& loop) {
  o->attempted += loop.attempted;
  o->failed += loop.failed;
  o->completed += loop.latencies_ns.size();
  o->elapsed_s = static_cast<double>(loop.end_ns - loop.start_ns) / 1e9;
  o->latencies_ns = std::move(loop.latencies_ns);
  o->per_second = std::move(loop.per_second);
  for (auto& v : loop.violations) o->violations.push_back(std::move(v));
}

void Add(Outcome* o, Violations v) {
  for (auto& x : v) o->violations.push_back(std::move(x));
}

// CPU used so far by every daemon in `daemons`. A daemon whose CPU
// cannot be read has vanished, which fails the run.
Result<uint64_t> DaemonCpu(const std::vector<Daemon*>& daemons) {
  uint64_t total = 0;
  for (Daemon* d : daemons) {
    auto cpu = d->CpuMicros();
    if (!cpu.ok()) return cpu.status();
    total += *cpu;
  }
  return total;
}

// Reads the queues `names` of a stopped daemon's repository directory.
using QueueContents = std::map<std::string, std::vector<std::string>>;
Result<QueueContents> DrainQueues(const std::string& qm_dir,
                                  const std::vector<std::string>& names) {
  queue::RepositoryOptions o;
  o.env = rrq::env::Env::Default();
  o.dir = qm_dir;
  o.sync_commits = false;  // A read-out: nothing here needs to be durable.
  queue::QueueRepository repo("qm", o);
  RRQ_RETURN_IF_ERROR(repo.Open());
  QueueContents contents;
  for (const std::string& q : names) {
    std::vector<std::string>& entries = contents[q];
    for (;;) {
      auto e = repo.Dequeue(nullptr, q);
      if (!e.ok()) {
        if (e.status().IsNotFound()) break;
        return e.status();
      }
      entries.push_back(std::move(e->contents));
    }
  }
  return contents;
}

Violations QueuesEmpty(Clerks* clerks) {
  std::map<std::string, uint64_t> depths;
  std::vector<std::string> names = {kRequestQueue};
  for (size_t i = 0; i < kClerks; ++i) names.push_back(clerks->reply_queue(i));
  for (const std::string& q : names) {
    auto d = clerks->api()->Depth(q);
    if (!d.ok()) return {"Depth(" + q + "): " + d.status().ToString()};
    depths[q] = *d;
  }
  return CheckQueuesEmpty(depths);
}

// The q-quantile of `v`, interpolated at position (n + 1) q as Python's
// statistics.quantiles does; q = 0.5 is the median.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = (static_cast<double>(v.size()) + 1) * q;  // 1-based
  if (pos <= 1) return v.front();
  if (pos >= static_cast<double>(v.size())) return v.back();
  const size_t lo = static_cast<size_t>(pos);
  return v[lo - 1] + (pos - static_cast<double>(lo)) * (v[lo] - v[lo - 1]);
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

// Median of nanosecond durations, in µs.
double P50(std::vector<uint64_t> v) { return Percentile(&v, 0.5) / 1e3; }

// Spans of `kind` (and `op`, when nonzero) that started in the window.
std::vector<uint64_t> Durations(const std::vector<Span>& spans, SpanKind kind,
                                uint8_t op, uint64_t from, uint64_t to) {
  std::vector<uint64_t> d;
  for (const Span& s : spans) {
    if (s.kind == kind && (op == 0 || s.op == op) && s.start_ns >= from &&
        s.start_ns < to) {
      d.push_back(s.end_ns - s.start_ns);
    }
  }
  return d;
}

// Wire time of `op`: the clerk's view of each call minus the server's
// Handle time for the same call. Calls of one (queue, registrant) are
// sequential on both sides, so the k-th client span pairs with the k-th
// server span of the same key.
double WireP50(const std::vector<Span>& spans, uint8_t op, uint64_t from,
               uint64_t to) {
  std::map<uint64_t, std::vector<const Span*>> client, server;
  for (const Span& s : spans) {
    if (s.op != op) continue;
    if (s.kind == SpanKind::kClientOp) client[s.key].push_back(&s);
    if (s.kind == SpanKind::kHandle) server[s.key].push_back(&s);
  }
  auto by_start = [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; };
  std::vector<uint64_t> wire;
  for (auto& [key, c] : client) {
    auto it = server.find(key);
    if (it == server.end()) continue;
    std::vector<const Span*>& s = it->second;
    std::sort(c.begin(), c.end(), by_start);
    std::sort(s.begin(), s.end(), by_start);
    for (size_t k = 0; k < std::min(c.size(), s.size()); ++k) {
      if (c[k]->start_ns < from || c[k]->start_ns >= to) continue;
      const uint64_t total = c[k]->end_ns - c[k]->start_ns;
      const uint64_t handle = s[k]->end_ns - s[k]->start_ns;
      wire.push_back(total > handle ? total - handle : 0);
    }
  }
  return P50(std::move(wire));
}

struct LayerInputs {
  Host* host = nullptr;
  Clerks* clerks = nullptr;  // null on volatile_pipeline
  uint64_t from_ns = 0, to_ns = 0;
  uint64_t ops = 0;               // requests, or enqueue→dequeue pairs
  uint64_t requests_in_dir = 0;   // every request the directory ever served
  Counters before, after;
  double connect_s = 0, recovery_s = 0;
  std::string dir;
};

Metrics LayerMetrics(const LayerInputs& in) {
  const std::vector<Span> spans = Tracer::Get().Collect();
  const Counters& a = in.before;
  const Counters& b = in.after;
  const uint64_t ops = in.ops == 0 ? 1 : in.ops;
  auto per_op = [&](uint64_t x, uint64_t y) { return Share(y - x, ops); };
  const auto executes = Durations(spans, SpanKind::kExecute, 0, in.from_ns, in.to_ns);
  const auto client_ops = Durations(spans, SpanKind::kClientOp, 0, in.from_ns, in.to_ns);
  const auto sinks = Durations(spans, SpanKind::kSink, 0, in.from_ns, in.to_ns);
  const uint64_t all = ~0ull;
  Metrics m;
  auto put = [&m](const std::string& name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  put("client.execute_us_p50", P50(executes), "us");
  put("client.ops_per_request", Share(client_ops.size(), executes.empty() ? ops : executes.size()), "count");
  put("client.connect_s", in.connect_s, "s");
  put("client.redeliveries", in.clerks ? in.clerks->redeliveries() : 0, "count");
  put("net.wire_us_p50.enqueue", WireP50(spans, net::kOpEnqueue, in.from_ns, in.to_ns), "us");
  put("net.wire_us_p50.dequeue", WireP50(spans, net::kOpDequeue, in.from_ns, in.to_ns), "us");
  put("net.server_syscalls_per_op", per_op(a.server_syscalls, b.server_syscalls), "count");
  put("net.client_syscalls_per_op", per_op(a.client_syscalls, b.client_syscalls), "count");
  put("net.loop_waits_per_op", per_op(a.server_waits, b.server_waits), "count");
  put("queue.handle_us_p50.enqueue", P50(Durations(spans, SpanKind::kHandle, net::kOpEnqueue, 0, all)), "us");
  put("queue.handle_us_p50.dequeue", P50(Durations(spans, SpanKind::kHandle, net::kOpDequeue, 0, all)), "us");
  put("queue.handle_us_p50.register", P50(Durations(spans, SpanKind::kHandle, net::kOpRegister, 0, all)), "us");
  put("queue.records_per_sync", Share(b.sync_requests - a.sync_requests, b.syncs - a.syncs), "count");
  put("queue.recovery_s", in.recovery_s, "s");
  put("server.handler_us_p50", P50(Durations(spans, SpanKind::kHandler, 0, in.from_ns, in.to_ns)), "us");
  put("server.aborts_per_request", per_op(a.aborted, b.aborted), "count");
  put("txn.commits_per_request", per_op(a.commits, b.commits), "count");
  const char* families[] = {"queue", "txn", "kv"};
  for (int f = 0; f < 3; ++f) {
    put(std::string("env.syncs_per_op.") + families[f], per_op(a.env_syncs[f], b.env_syncs[f]), "count");
  }
  put("env.sync_us_p50", P50(Durations(spans, SpanKind::kSync, 0, in.from_ns, in.to_ns)), "us");
  for (int f = 0; f < 3; ++f) {
    put(std::string("env.append_bytes_per_op.") + families[f], per_op(a.env_bytes[f], b.env_bytes[f]), "bytes");
  }
  put("env.dir_bytes_per_request", Share(DirBytes(in.dir), in.requests_in_dir), "bytes");
  put("repl.sink_us_p50", P50(sinks), "us");
  put("repl.records_per_request", Share(sinks.size(), ops), "count");
  return m;
}

uint64_t AppendedBytes(const Counters& a, const Counters& b) {
  uint64_t total = 0;
  for (int f = 0; f < kFamilies; ++f) total += b.env_bytes[f] - a.env_bytes[f];
  return total;
}

// ---- request_reply -------------------------------------------------------

// One warm-up, then `trials` rounds of {SIGKILL with every clerk idle,
// restart on the same directory, Connect resync, timed phase}. The
// first round's restarts recover exactly the warm-up history, so their
// set-up is the same work in every run; later rounds recover a history
// that grows with throughput, so their set-ups are reported but not
// counted. Each round's timed phase runs against a daemon instance of
// its own. One Outcome per round; the end-of-run checks land on the last.
std::vector<Outcome> RequestReply(const Trial& trial, int trials) {
  const std::string& dir = trial.dir;
  const bool traced = trial.traced;
  std::vector<Outcome> rounds(1);
  auto fatal = [&rounds](Status s) {
    rounds.back().fatal = std::move(s);
    return rounds;
  };
  Daemon daemon;
  if (Status s = daemon.Start(ServingArgs(dir)); !s.ok()) return fatal(s);
  auto clerks = MakeClerks(traced, daemon.port());
  if (Status s = clerks->Start(); !s.ok()) return fatal(s);

  // Warm-up: the same WAL history in every run.
  LoopResult warm = ClosedLoop(clerks.get(), std::vector<uint64_t>(kClerks, 1),
                               kWarmupPerClerk, 0, trial.seed, trial.phase + 1);
  if (warm.failed != 0) {
    return fatal(Status::Internal("warm-up failed: " + warm.violations.front()));
  }
  std::vector<std::string> completed = std::move(warm.completed_rids);
  Violations violations = std::move(warm.violations);
  std::vector<uint64_t> next_seq(kClerks, kWarmupPerClerk + 1);

  std::unique_ptr<Host> host;
  LayerInputs layers;
  for (int t = 0; t < trials; ++t) {
    if (t > 0) rounds.emplace_back();
    Outcome& o = rounds.back();
    // The first round restarts kSetupRestarts times back to back, each
    // over the warm-up history alone: those are the run's set-ups.
    const int restarts = t == 0 && !traced ? kSetupRestarts : 1;
    for (int r = 0; r < restarts; ++r) {
      if (Status s = daemon.Kill(); !s.ok()) return fatal(s);
      Tracer::Get().set_enabled(traced);
      const uint64_t setup_start = NowNanos();
      uint16_t port = 0;
      if (traced) {
        HostOptions ho;
        ho.dir = dir;
        ho.audit_queue = kAuditQueue;
        host = std::make_unique<Host>(ho);
        if (Status s = host->Open(); !s.ok()) return fatal(s);
        port = host->port();
        layers.recovery_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
      } else {
        if (Status s = daemon.Start(ServingArgs(dir)); !s.ok()) return fatal(s);
        port = daemon.port();
      }
      clerks->channel()->SetTarget("127.0.0.1", port);
      const uint64_t connect_start = NowNanos();
      for (size_t i = 0; i < kClerks; ++i) {
        auto cr = clerks->Resynchronize(i);
        if (!cr.ok()) return fatal(cr.status());
        Add(&o, CheckResync(clerks->client_id(i), RidOf(clerks->client_id(i), next_seq[i] - 1),
                            cr->s_rid, cr->r_rid));
      }
      const uint64_t setup_end = NowNanos();
      o.setup_s = static_cast<double>(setup_end - setup_start) / 1e9;
      layers.connect_s = static_cast<double>(setup_end - connect_start) / 1e9;
      if (t == 0) o.setup_samples.push_back(o.setup_s);
    }
    if (t == 0) o.setup_s = Quantile(o.setup_samples, 0.5);

    // The traced run's daemon is the benchmark's own process.
    const std::vector<Daemon*> measured =
        traced ? std::vector<Daemon*>{} : std::vector<Daemon*>{&daemon};
    auto daemon_cpu0 = DaemonCpu(measured);
    if (!daemon_cpu0.ok()) return fatal(daemon_cpu0.status());
    const uint64_t client_cpu0 = SelfCpuMicros();
    if (traced) layers.before = Snapshot(host.get(), clerks->channel());
    LoopResult loop = ClosedLoop(clerks.get(), next_seq, 0, trial.duration_ns, trial.seed,
                                 trial.phase + 2 + 8 * static_cast<uint64_t>(t));
    o.client_cpu_us = SelfCpuMicros() - client_cpu0;
    auto daemon_cpu1 = DaemonCpu(measured);
    if (!daemon_cpu1.ok()) return fatal(daemon_cpu1.status());
    o.daemon_cpu_us = *daemon_cpu1 - *daemon_cpu0;
    if (traced) {
      layers.after = Snapshot(host.get(), clerks->channel());
      Add(&o, CheckDurableBytes(AppendedBytes(layers.before, layers.after), loop.body_bytes));
      o.backend = host->tcp()->io_backend_name();
    }
    for (size_t i = 0; i < kClerks; ++i) next_seq[i] += loop.per_clerk_completed[i];
    completed.insert(completed.end(), loop.completed_rids.begin(), loop.completed_rids.end());
    layers.from_ns = loop.start_ns;
    layers.to_ns = loop.end_ns;
    layers.ops = loop.latencies_ns.size();
    Absorb(&o, std::move(loop));
  }

  Outcome& last = rounds.back();
  Add(&last, std::move(violations));
  Add(&last, QueuesEmpty(clerks.get()));
  if (Status s = clerks->Stop(); !s.ok()) last.violations.push_back("clerk stop: " + s.ToString());
  if (traced) {
    layers.host = host.get();
    layers.clerks = clerks.get();
    layers.dir = dir;
    layers.requests_in_dir = completed.size();
    Tracer::Get().set_enabled(false);
    last.layers = LayerMetrics(layers);
    host.reset();
  } else if (Status s = daemon.Shutdown(); !s.ok()) {
    last.violations.push_back(s.ToString());
  }
  clerks.reset();

  auto audit = DrainQueues(dir + "/qm", {kAuditQueue});
  if (!audit.ok()) {
    last.violations.push_back("audit read: " + audit.status().ToString());
  } else {
    Add(&last, CheckAudit(completed, (*audit)[kAuditQueue]));
  }
  return rounds;
}

// ---- volatile_pipeline -----------------------------------------------------

// Closed-loop chains of enqueue→dequeue pairs on one connection, each
// on its own queue "<prefix><chain>", driven from completion callbacks.
// With `leave_tail`, a chain that reaches the deadline enqueues one last
// element and leaves it in its queue, for a replica to be checked for.
class Pipeline {
 public:
  Pipeline(queue::QueueApi* api, const Trial& trial, uint64_t deadline_ns,
           uint32_t chains, const std::string& prefix, bool leave_tail)
      : api_(api), deadline_ns_(deadline_ns), leave_tail_(leave_tail) {
    for (uint32_t c = 0; c < chains; ++c) {
      chains_.push_back(std::make_unique<Chain>(
          c, QueueOf(prefix, c), StreamRng(trial.seed, trial.phase + 3, c)));
    }
  }

  static std::string QueueOf(const std::string& prefix, uint32_t chain) {
    return prefix + std::to_string(chain);
  }

  void Run() {
    {
      rrq::MutexLock lock(mu_);
      active_ = static_cast<uint32_t>(chains_.size());
    }
    for (auto& c : chains_) Next(c.get());
    rrq::MutexLock lock(mu_);
    while (active_ > 0) cv_.Wait(mu_);
  }

  void Collect(LoopResult* out) {
    for (auto& c : chains_) {
      out->attempted += c->attempted;
      out->failed += c->failed;
      out->body_bytes += c->body_bytes;
      out->latencies_ns.insert(out->latencies_ns.end(), c->latencies.begin(),
                               c->latencies.end());
      for (auto& v : c->violations) out->violations.push_back(v);
      CountPerSecond(out->start_ns, c->done_at, &out->per_second);
    }
  }

  // What the chains left in their queues: each chain's tail, if any.
  QueueContents Left() const {
    QueueContents left;
    for (const auto& c : chains_) {
      left[c->queue] = c->tail.empty() ? std::vector<std::string>{}
                                       : std::vector<std::string>{c->tail};
    }
    return left;
  }

 private:
  struct Chain {
    Chain(uint32_t id_in, std::string queue_in, rrq::util::Rng rng_in)
        : id(id_in), queue(std::move(queue_in)), rng(rng_in) {}
    const uint32_t id;
    const std::string queue;
    rrq::util::Rng rng;
    uint64_t seq = 0;
    std::string element;
    std::string tail;
    uint64_t body_bytes = 0;  // bytes of every element enqueued
    uint64_t issued_ns = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<uint64_t> latencies;
    std::vector<uint64_t> done_at;
    Violations violations;
  };

  // One pair at a time per chain; each step runs on the completion of
  // the one before, so a chain's fields are never touched concurrently.
  void Next(Chain* c) {
    if (NowNanos() >= deadline_ns_) {
      if (leave_tail_) return LeaveTail(c);
      Done();
      return;
    }
    ++c->seq;
    ++c->attempted;
    c->element = PipelineElement(c->id, c->seq, SeededBody(&c->rng, kMinBody, kMaxBody));
    c->body_bytes += c->element.size();
    c->issued_ns = NowNanos();
    api_->EnqueueAsync(c->queue, c->element, 0, "", Slice(), false,
                       [this, c](Result<queue::ElementId> r) {
                         if (!r.ok()) return Fail(c, "enqueue", r.status());
                         api_->DequeueAsync(c->queue, "", Slice(), 0,
                                            [this, c](Result<queue::Element> e) {
                                              Dequeued(c, std::move(e));
                                            });
                       });
  }

  void Dequeued(Chain* c, Result<queue::Element> e) {
    if (!e.ok()) return Fail(c, "dequeue", e.status());
    const uint64_t now = NowNanos();
    c->latencies.push_back(now - c->issued_ns);
    c->done_at.push_back(now);
    Violations v = CheckPipelineDequeue(c->id, c->seq, c->element, e->contents);
    if (!v.empty()) {
      ++c->failed;
      c->violations.insert(c->violations.end(), v.begin(), v.end());
      Done();
      return;
    }
    Next(c);
  }

  // Untimed, and not an op: it only marks the queue's final state.
  void LeaveTail(Chain* c) {
    c->tail = PipelineElement(c->id, c->seq + 1, SeededBody(&c->rng, kMinBody, kMaxBody));
    c->body_bytes += c->tail.size();
    api_->EnqueueAsync(c->queue, c->tail, 0, "", Slice(), false,
                       [this, c](Result<queue::ElementId> r) {
                         if (!r.ok()) {
                           c->violations.push_back("chain " + std::to_string(c->id) +
                                                   " tail enqueue: " + r.status().ToString());
                         }
                         Done();
                       });
  }

  void Fail(Chain* c, const char* what, const Status& s) {
    ++c->failed;
    c->violations.push_back("chain " + std::to_string(c->id) + " " + what + ": " +
                            s.ToString());
    Done();
  }

  void Done() {
    rrq::MutexLock lock(mu_);
    if (--active_ == 0) cv_.SignalAll();
  }

  queue::QueueApi* api_;
  const uint64_t deadline_ns_;
  const bool leave_tail_;
  std::vector<std::unique_ptr<Chain>> chains_;
  rrq::Mutex mu_;
  rrq::CondVar cv_;
  uint32_t active_ GUARDED_BY(mu_) = 0;
};

Outcome VolatilePipeline(const Trial& trial) {
  const std::string& dir = trial.dir;
  const bool traced = trial.traced;
  Outcome o;
  Tracer::Get().set_enabled(traced);
  const uint64_t setup_start = NowNanos();
  Daemon daemon;
  std::unique_ptr<Host> host;
  LayerInputs layers;
  uint16_t port = 0;
  if (traced) {
    HostOptions ho;
    ho.dir = dir;
    ho.run_server = false;
    host = std::make_unique<Host>(ho);
    if ((o.fatal = host->Open()); !o.fatal.ok()) return o;
    port = host->port();
    layers.recovery_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  } else {
    if ((o.fatal = daemon.Start({"--dir", dir, "--port", "0", "--no-server"})); !o.fatal.ok()) {
      return o;
    }
    port = daemon.port();
  }
  auto channel_options = PoolOptions(port).channel;
  auto channel = std::make_unique<net::TcpChannel>(channel_options);
  net::ChannelQueueApi api(channel.get());
  TracingQueueApi traced_api(&api);
  queue::QueueApi* chain_api = traced ? static_cast<queue::QueueApi*>(&traced_api) : &api;
  queue::QueueOptions volatile_queue;
  volatile_queue.durable = false;
  for (uint32_t c = 0; c < kChains; ++c) {
    if ((o.fatal = api.CreateQueue(Pipeline::QueueOf("vq-", c), volatile_queue)); !o.fatal.ok()) {
      return o;
    }
  }
  o.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  o.setup_samples.push_back(o.setup_s);

  // The traced run's daemon is the benchmark's own process.
  const std::vector<Daemon*> measured =
      traced ? std::vector<Daemon*>{} : std::vector<Daemon*>{&daemon};
  auto daemon_cpu0 = DaemonCpu(measured);
  if ((o.fatal = daemon_cpu0.status()); !o.fatal.ok()) return o;
  const uint64_t client_cpu0 = SelfCpuMicros();
  if (traced) layers.before = Snapshot(host.get(), channel.get());
  LoopResult loop;
  loop.start_ns = NowNanos();
  Pipeline pipeline(chain_api, trial, loop.start_ns + trial.duration_ns, kChains, "vq-",
                    /*leave_tail=*/false);
  pipeline.Run();
  loop.end_ns = NowNanos();
  pipeline.Collect(&loop);
  o.client_cpu_us = SelfCpuMicros() - client_cpu0;
  auto daemon_cpu1 = DaemonCpu(measured);
  if ((o.fatal = daemon_cpu1.status()); !o.fatal.ok()) return o;
  o.daemon_cpu_us = *daemon_cpu1 - *daemon_cpu0;
  if (traced) {
    layers.after = Snapshot(host.get(), channel.get());
    o.backend = host->tcp()->io_backend_name();
  }
  layers.from_ns = loop.start_ns;
  layers.to_ns = loop.end_ns;
  layers.ops = loop.latencies_ns.size();
  Absorb(&o, std::move(loop));

  std::map<std::string, uint64_t> depths;
  for (uint32_t c = 0; c < kChains; ++c) {
    const std::string q = Pipeline::QueueOf("vq-", c);
    auto d = api.Depth(q);
    if (!d.ok()) {
      o.violations.push_back("Depth: " + d.status().ToString());
      break;
    }
    depths[q] = *d;
  }
  Add(&o, CheckQueuesEmpty(depths));
  if (traced) {
    layers.host = host.get();
    layers.dir = dir;
    layers.requests_in_dir = layers.ops;
    Tracer::Get().set_enabled(false);
    o.layers = LayerMetrics(layers);
  }
  channel.reset();  // Every call has completed: the chains are idle.
  if (!traced) {
    if (Status s = daemon.Shutdown(); !s.ok()) o.violations.push_back(s.ToString());
  }
  return o;
}

// ---- replicated_ack --------------------------------------------------------

Result<net::ReplStatusInfo> ReplStatus(uint16_t port) {
  net::TcpChannelOptions options;
  options.port = port;
  net::TcpChannel channel(options);
  net::ChannelQueueApi api(&channel);
  return api.ReplicationStatus();
}

// kReplChains closed-loop chains of enqueue→dequeue pairs on durable
// queues, over one connection, against a primary that waits for the
// backup's acknowledgement of every commit. At the deadline each chain
// leaves one last element in its queue; after failover the promoted
// backup must hold exactly those elements.
Outcome ReplicatedAck(const Trial& trial) {
  const std::string& dir = trial.dir;
  const bool traced = trial.traced;
  Outcome o;
  const std::string primary_dir = dir + "/primary";
  const std::string backup_dir = dir + "/backup";
  Tracer::Get().set_enabled(traced);
  const uint64_t setup_start = NowNanos();
  Daemon backup;
  if ((o.fatal = backup.Start({"--dir", backup_dir, "--port", "0", "--no-server", "--role",
                               "backup", "--repl-port", "0"}));
      !o.fatal.ok()) {
    return o;
  }

  Daemon primary;
  std::unique_ptr<Host> host;
  LayerInputs layers;
  uint16_t port = 0;
  if (traced) {
    HostOptions ho;
    ho.dir = primary_dir;
    ho.run_server = false;
    ho.backup_repl_port = backup.repl_port();
    host = std::make_unique<Host>(ho);
    if ((o.fatal = host->Open()); !o.fatal.ok()) return o;
    port = host->port();
    layers.recovery_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  } else {
    if ((o.fatal = primary.Start({"--dir", primary_dir, "--port", "0", "--no-server", "--role",
                                  "primary", "--replicate-to",
                                  "127.0.0.1:" + std::to_string(backup.repl_port()),
                                  "--repl-mode", "ack"}));
        !o.fatal.ok()) {
      return o;
    }
    port = primary.port();
  }
  // Commits wait for the backup only once it is seeded and shipping.
  for (const uint64_t deadline = NowNanos() + 30'000'000'000;;) {
    auto st = ReplStatus(port);
    if (st.ok() && st->state == "shipping") break;
    if (NowNanos() > deadline) {
      o.fatal = Status::TimedOut("replication never reached shipping");
      return o;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto channel = std::make_unique<net::TcpChannel>(PoolOptions(port).channel);
  net::ChannelQueueApi api(channel.get());
  TracingQueueApi traced_api(&api);
  queue::QueueApi* chain_api = traced ? static_cast<queue::QueueApi*>(&traced_api) : &api;
  for (uint32_t c = 0; c < kReplChains; ++c) {
    if ((o.fatal = api.CreateQueue(Pipeline::QueueOf("rq-", c))); !o.fatal.ok()) return o;
  }
  o.setup_s = static_cast<double>(NowNanos() - setup_start) / 1e9;
  o.setup_samples.push_back(o.setup_s);

  std::vector<Daemon*> daemons = {&backup};
  if (!traced) daemons.push_back(&primary);
  auto daemon_cpu0 = DaemonCpu(daemons);
  if ((o.fatal = daemon_cpu0.status()); !o.fatal.ok()) return o;
  const uint64_t client_cpu0 = SelfCpuMicros();
  if (traced) layers.before = Snapshot(host.get(), channel.get());
  LoopResult loop;
  loop.start_ns = NowNanos();
  Pipeline pipeline(chain_api, trial, loop.start_ns + trial.duration_ns, kReplChains, "rq-",
                    /*leave_tail=*/true);
  pipeline.Run();
  loop.end_ns = NowNanos();
  pipeline.Collect(&loop);
  o.client_cpu_us = SelfCpuMicros() - client_cpu0;
  auto daemon_cpu1 = DaemonCpu(daemons);
  if ((o.fatal = daemon_cpu1.status()); !o.fatal.ok()) return o;
  o.daemon_cpu_us = *daemon_cpu1 - *daemon_cpu0;
  if (traced) {
    layers.after = Snapshot(host.get(), channel.get());
    Add(&o, CheckDurableBytes(AppendedBytes(layers.before, layers.after), loop.body_bytes));
    o.backend = host->tcp()->io_backend_name();
  }
  layers.from_ns = loop.start_ns;
  layers.to_ns = loop.end_ns;
  layers.ops = loop.latencies_ns.size();
  Absorb(&o, std::move(loop));

  // Quiescent: everything the primary produced must be acknowledged.
  uint64_t head = 0, acked = 0;
  for (const uint64_t deadline = NowNanos() + 5'000'000'000;;) {
    auto p = ReplStatus(port);
    auto b = ReplStatus(backup.port());
    if (!p.ok() || !b.ok()) {
      o.violations.push_back("ReplicationStatus: " +
                             (p.ok() ? b.status() : p.status()).ToString());
      break;
    }
    head = p->head_seq;
    acked = b->acked_seq;
    if (head == acked || NowNanos() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Add(&o, CheckReplicationCaughtUp(head, acked));
  if (traced) {
    layers.host = host.get();
    layers.dir = primary_dir;
    layers.requests_in_dir = layers.ops;
    Tracer::Get().set_enabled(false);
    o.layers = LayerMetrics(layers);
  }
  channel.reset();  // Every call has completed: the chains are idle.
  if (traced) {
    host.reset();
  } else if (Status s = primary.Shutdown(); !s.ok()) {
    o.violations.push_back(s.ToString());
  }

  // Fail over: the promoted backup's replicated queues must hold
  // exactly what the chains left on the primary.
  {
    net::TcpChannelOptions options;
    options.port = backup.port();
    net::TcpChannel promote_channel(options);
    net::ChannelQueueApi promote_api(&promote_channel);
    if (Status s = promote_api.Promote(); !s.ok()) {
      o.violations.push_back("Promote: " + s.ToString());
    }
  }
  if (Status s = backup.Shutdown(); !s.ok()) o.violations.push_back(s.ToString());
  const QueueContents left = pipeline.Left();
  std::vector<std::string> names;
  for (const auto& entry : left) names.push_back(entry.first);
  auto held = DrainQueues(backup_dir + "/qm", names);
  if (!held.ok()) {
    o.violations.push_back("backup read: " + held.status().ToString());
  } else {
    Add(&o, CheckReplicatedQueues(left, *held));
  }
  return o;
}

// An untraced run is kTrials trials of seconds/kTrials each, every one
// against a daemon instance of its own (request_reply restarts its
// daemon between trials; the others start theirs afresh). Each figure
// is its better quartile over the trials: the upper quartile of
// throughput, the lower quartile of latency and CPU per op. Run-to-run
// spread comes from how one daemon instance's threads happen to
// schedule and from other tenants' CPU steal and disk load, which only
// ever slow a trial; the better trials hold the program's own level
// through an episode that spans most of a run, while a change to the
// program moves every trial. Every trial's figures stay in the report.
// Set-up is the median of the run's set-up samples (request_reply: its
// first round's restarts). The traced run is one trial.
constexpr int kTrials = 10;

Metrics EndToEnd(Outcome& o) {
  const double ops = o.completed == 0 ? 1.0 : static_cast<double>(o.completed);
  Metrics m;
  m.push_back({"throughput_ops_per_s", {static_cast<double>(o.completed) / o.elapsed_s, "ops/s"}});
  m.push_back({"latency_p50_us", {Percentile(&o.latencies_ns, 0.50) / 1e3, "us"}});
  m.push_back({"latency_p90_us", {Percentile(&o.latencies_ns, 0.90) / 1e3, "us"}});
  m.push_back({"setup_s", {o.setup_s, "s"}});
  m.push_back({"daemon_cpu_us_per_op", {static_cast<double>(o.daemon_cpu_us) / ops, "us"}});
  m.push_back({"client_cpu_us_per_op", {static_cast<double>(o.client_cpu_us) / ops, "us"}});
  return m;
}

struct RunResult {
  Status fatal;
  std::vector<Outcome> trials;
  std::vector<Metrics> trial_metrics;
  Metrics metrics;  // the median over trials
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Violations violations;
  HostCpu host_before, host_after;
};

RunResult RunTrials(const RunOptions& opt, bool traced) {
  const int trials = traced ? 1 : kTrials;
  Trial trial;
  trial.seed = opt.seed;
  trial.duration_ns = static_cast<uint64_t>(opt.seconds) * 1'000'000'000 / trials;
  trial.traced = traced;
  std::vector<Outcome> outcomes;
  std::error_code ec;
  const HostCpu host_before = ReadHostCpu();
  if (opt.workload == "request_reply") {
    trial.dir = opt.work_dir + (traced ? "/traced" : "/untraced");
    std::filesystem::create_directories(trial.dir, ec);
    outcomes = RequestReply(trial, trials);
    std::filesystem::remove_all(trial.dir, ec);
  } else {
    for (int t = 0; t < trials && (outcomes.empty() || outcomes.back().fatal.ok()); ++t) {
      trial.phase = 8 * static_cast<uint64_t>(t);
      trial.dir = opt.work_dir + (traced ? "/traced" : "/trial-" + std::to_string(t));
      std::filesystem::create_directories(trial.dir, ec);
      outcomes.push_back(opt.workload == "volatile_pipeline" ? VolatilePipeline(trial)
                                                              : ReplicatedAck(trial));
      std::filesystem::remove_all(trial.dir, ec);
    }
  }
  Tracer::Get().set_enabled(false);
  RunResult run;
  run.host_before = host_before;
  run.host_after = ReadHostCpu();
  for (Outcome& o : outcomes) {
    if (!o.fatal.ok()) {
      run.fatal = o.fatal;
      return run;
    }
    if (o.backend.empty()) {
      // The daemons resolve --net-backend auto with the same probe.
      std::string note;
      o.backend = net::IoBackendName(net::ResolveIoBackend(net::IoBackendKind::kAuto, &note));
    }
    run.attempted += o.attempted;
    run.failed += o.failed;
    run.violations.insert(run.violations.end(), o.violations.begin(), o.violations.end());
    run.trial_metrics.push_back(EndToEnd(o));
    run.trials.push_back(std::move(o));
  }
  run.metrics = run.trial_metrics.front();
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const std::string& name = run.metrics[i].first;
    std::vector<double> values;
    double q = name == "throughput_ops_per_s" ? 0.75 : 0.25;
    if (name == "setup_s") {
      q = 0.5;
      for (const Outcome& o : run.trials) {
        values.insert(values.end(), o.setup_samples.begin(), o.setup_samples.end());
      }
    } else {
      for (const Metrics& m : run.trial_metrics) values.push_back(m[i].second.first);
    }
    run.metrics[i].second.first = Quantile(std::move(values), q);
  }
  return run;
}

void PrintRun(const char* label, const RunResult& run) {
  std::printf("# %s run, %zu trial(s), backend=%s\n", label, run.trials.size(),
              run.trials.front().backend.c_str());
  // p99 is shown, not reported: on a shared host it follows other
  // tenants' disk and CPU load more than the program's (README.md).
  std::printf("#   %-5s %10s %9s %9s %10s %10s %9s %9s %9s %8s  %s\n", "trial", "ops/s",
              "p50_us", "p90_us", "p99_us", "samples", "setup_s", "dcpu_us", "ccpu_us",
              "failed", "ops in each second");
  for (size_t t = 0; t < run.trials.size(); ++t) {
    const Outcome& o = run.trials[t];
    const Metrics& m = run.trial_metrics[t];
    std::vector<uint64_t> latencies = o.latencies_ns;
    std::printf("#   %-5zu %10.1f %9.1f %9.1f %10.1f %10zu %9.4f %9.1f %9.2f %8llu ", t,
                m[0].second.first, m[1].second.first, m[2].second.first,
                Percentile(&latencies, 0.99) / 1e3, o.latencies_ns.size(),
                m[3].second.first, m[4].second.first,
                m[5].second.first, static_cast<unsigned long long>(o.failed));
    for (uint64_t n : o.per_second) std::printf(" %llu", static_cast<unsigned long long>(n));
    std::printf("\n");
  }
  const double ticks =
      static_cast<double>(std::max<uint64_t>(1, run.host_after.total - run.host_before.total));
  std::printf("#   host CPU over the run: steal %.1f%%, iowait %.1f%%\n",
              100.0 * static_cast<double>(run.host_after.steal - run.host_before.steal) / ticks,
              100.0 * static_cast<double>(run.host_after.iowait - run.host_before.iowait) / ticks);
  std::printf("#   set-up samples (s):");
  for (const Outcome& o : run.trials) {
    for (double v : o.setup_samples) std::printf(" %.4f", v);
  }
  std::printf("\n");
  for (const auto& [name, vu] : run.metrics) {
    std::printf("#   %-34s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  for (const std::string& v : run.violations) std::printf("# VIOLATION: %s\n", v.c_str());
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "request_reply" || name == "volatile_pipeline" ||
         name == "replicated_ack";
}

int Run(const RunOptions& opt) {
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d nproc=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency());
  RunResult plain = RunTrials(opt, false);
  if (!plain.fatal.ok()) {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", opt.workload.c_str(),
                 plain.fatal.ToString().c_str());
    return 1;
  }
  PrintRun("untraced", plain);
  bool correct = plain.violations.empty();
  if (!opt.trace) {
    std::printf("%s\n", ResultJson(correct, plain.attempted, plain.failed, plain.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

  RunResult traced = RunTrials(opt, true);
  if (!traced.fatal.ok()) {
    std::fprintf(stderr, "e2e_bench: traced %s: %s\n", opt.workload.c_str(),
                 traced.fatal.ToString().c_str());
    return 1;
  }
  PrintRun("traced (daemon in-process)", traced);
  std::printf("# end-to-end, untraced vs traced (CPU columns differ in kind: the "
              "traced daemon shares the benchmark's process)\n");
  for (size_t i = 0; i < plain.metrics.size(); ++i) {
    const double a = plain.metrics[i].second.first;
    const double b = traced.metrics[i].second.first;
    std::printf("#   %-24s %14.4f %14.4f  %+7.1f%%\n", plain.metrics[i].first.c_str(),
                a, b, a == 0 ? 0.0 : 100.0 * (b - a) / a);
  }
  std::printf("# per-layer (traced run)\n");
  const Metrics& layers = traced.trials.front().layers;
  for (const auto& [name, vu] : layers) {
    std::printf("#   %-34s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  correct = correct && traced.violations.empty();
  std::printf("%s\n", ResultJson(correct, plain.attempted + traced.attempted,
                                 plain.failed + traced.failed, layers)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace e2e
