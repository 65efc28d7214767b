#include "tracing.h"

#include <unistd.h>

#include <chrono>
#include <functional>

#include "net/queue_wire.h"
#include "queue/envelope.h"
#include "util/coding.h"

namespace e2e {

using rrq::Slice;
namespace queue = rrq::queue;

uint64_t HashKey(const std::string& queue, const std::string& registrant) {
  return std::hash<std::string>()(queue + '\0' + registrant);
}

uint64_t HashRid(const std::string& rid) {
  return rid.empty() ? 0 : std::hash<std::string>()(rid) | 1;
}

namespace {

// The rid carried by a request envelope, when `contents` is one.
uint64_t RidOfContents(const Slice& contents) {
  queue::RequestEnvelope envelope;
  if (!queue::DecodeRequestEnvelope(contents, &envelope).ok()) return 0;
  return HashRid(envelope.rid);
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Outlives every recording thread.
  return *tracer;
}

void Tracer::Record(const Span& span) {
  if (!enabled()) return;
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    rrq::MutexLock lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  rrq::MutexLock lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  rrq::MutexLock lock(mu_);
  for (const auto& buffer : buffers_) {
    rrq::MutexLock buffer_lock(buffer->mu);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

// ---------------------------------------------------------------------------
// TracingEnv

namespace {

class TracingFile final : public rrq::env::WritableFile {
 public:
  TracingFile(std::unique_ptr<rrq::env::WritableFile> base, Family family,
              TracingEnv::Counters* counters)
      : base_(std::move(base)), family_(family), counters_(counters) {}

  Status Append(const Slice& data) override {
    counters_->appends.fetch_add(1, std::memory_order_relaxed);
    counters_->append_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    Span span;
    span.kind = SpanKind::kSync;
    span.op = family_;
    span.start_ns = NowNanos();
    Status s = base_->Sync();
    span.end_ns = NowNanos();
    counters_->syncs.fetch_add(1, std::memory_order_relaxed);
    Tracer::Get().Record(span);
    return s;
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<rrq::env::WritableFile> base_;
  Family family_;
  TracingEnv::Counters* counters_;
};

Family FamilyOf(const std::string& fname) {
  if (fname.find("/qm/") != std::string::npos) return kQueueFiles;
  if (fname.find("/txn/") != std::string::npos) return kTxnFiles;
  if (fname.find("/db/") != std::string::npos) return kKvFiles;
  return kOtherFiles;
}

}  // namespace

Status TracingEnv::Wrap(const std::string& fname,
                        std::unique_ptr<rrq::env::WritableFile>* file) {
  const Family family = FamilyOf(fname);
  *file = std::make_unique<TracingFile>(std::move(*file), family,
                                        &counters_[family]);
  return Status::OK();
}

Status TracingEnv::NewWritableFile(
    const std::string& f, std::unique_ptr<rrq::env::WritableFile>* r) {
  RRQ_RETURN_IF_ERROR(base_->NewWritableFile(f, r));
  return Wrap(f, r);
}

Status TracingEnv::NewAppendableFile(
    const std::string& f, std::unique_ptr<rrq::env::WritableFile>* r) {
  RRQ_RETURN_IF_ERROR(base_->NewAppendableFile(f, r));
  return Wrap(f, r);
}

// ---------------------------------------------------------------------------
// TracingQueueApi

void TracingQueueApi::Finish(uint8_t op, uint64_t key, uint64_t rid,
                             uint64_t start) {
  Span span;
  span.kind = SpanKind::kClientOp;
  span.op = op;
  span.key = key;
  span.rid = rid;
  span.start_ns = start;
  span.end_ns = NowNanos();
  Tracer::Get().Record(span);
}

Result<queue::RegistrationInfo> TracingQueueApi::Register(
    const std::string& q, const std::string& registrant, bool stable) {
  const uint64_t start = NowNanos();
  auto r = base_->Register(q, registrant, stable);
  Finish(rrq::net::kOpRegister, HashKey(q, registrant), 0, start);
  return r;
}

Status TracingQueueApi::Deregister(const std::string& q,
                                   const std::string& registrant) {
  const uint64_t start = NowNanos();
  Status s = base_->Deregister(q, registrant);
  Finish(rrq::net::kOpDeregister, HashKey(q, registrant), 0, start);
  return s;
}

Result<queue::ElementId> TracingQueueApi::Enqueue(
    const std::string& q, const Slice& contents, uint32_t priority,
    const std::string& registrant, const Slice& tag, bool one_way) {
  const uint64_t start = NowNanos();
  auto r = base_->Enqueue(q, contents, priority, registrant, tag, one_way);
  Finish(rrq::net::kOpEnqueue, HashKey(q, registrant), RidOfContents(contents),
         start);
  return r;
}

Result<queue::Element> TracingQueueApi::Dequeue(const std::string& q,
                                                const std::string& registrant,
                                                const Slice& tag,
                                                uint64_t timeout_micros) {
  const uint64_t start = NowNanos();
  auto r = base_->Dequeue(q, registrant, tag, timeout_micros);
  Finish(rrq::net::kOpDequeue, HashKey(q, registrant), 0, start);
  return r;
}

Result<queue::Element> TracingQueueApi::Read(const std::string& q,
                                             queue::ElementId eid) {
  const uint64_t start = NowNanos();
  auto r = base_->Read(q, eid);
  Finish(rrq::net::kOpRead, HashKey(q, ""), 0, start);
  return r;
}

Result<bool> TracingQueueApi::KillElement(const std::string& q,
                                          queue::ElementId eid) {
  const uint64_t start = NowNanos();
  auto r = base_->KillElement(q, eid);
  Finish(rrq::net::kOpKill, HashKey(q, ""), 0, start);
  return r;
}

void TracingQueueApi::EnqueueAsync(
    const std::string& q, const Slice& contents, uint32_t priority,
    const std::string& registrant, const Slice& tag, bool one_way,
    std::function<void(Result<queue::ElementId>)> done) {
  const uint64_t start = NowNanos();
  const uint64_t key = HashKey(q, registrant);
  const uint64_t rid = RidOfContents(contents);
  base_->EnqueueAsync(q, contents, priority, registrant, tag, one_way,
                      [this, key, rid, start, done = std::move(done)](
                          Result<queue::ElementId> r) {
                        Finish(rrq::net::kOpEnqueue, key, rid, start);
                        done(std::move(r));
                      });
}

void TracingQueueApi::DequeueAsync(
    const std::string& q, const std::string& registrant, const Slice& tag,
    uint64_t timeout_micros, std::function<void(Result<queue::Element>)> done) {
  const uint64_t start = NowNanos();
  const uint64_t key = HashKey(q, registrant);
  base_->DequeueAsync(
      q, registrant, tag, timeout_micros,
      [this, key, start, done = std::move(done)](Result<queue::Element> r) {
        Finish(rrq::net::kOpDequeue, key, 0, start);
        done(std::move(r));
      });
}

// ---------------------------------------------------------------------------
// Host

Host::Host(HostOptions options)
    : options_(std::move(options)), env_(rrq::env::Env::Default()) {}

Host::~Host() { Stop(); }

Status Host::Open() {
  const std::string& dir = options_.dir;
  for (const char* sub : {"", "/txn", "/qm", "/db"}) {
    RRQ_RETURN_IF_ERROR(env_.CreateDirIfMissing(dir + sub));
  }
  rrq::txn::TxnManagerOptions txn_options;
  txn_options.env = &env_;
  txn_options.dir = dir + "/txn";
  txn_ = std::make_unique<rrq::txn::TransactionManager>(txn_options);
  RRQ_RETURN_IF_ERROR(txn_->Open());

  queue::RepositoryOptions repo_options;
  repo_options.env = &env_;
  repo_options.dir = dir + "/qm";
  repo_options.in_doubt_resolver = [this](rrq::txn::TxnId id) {
    return txn_->WasCommitted(id);
  };
  if (options_.backup_repl_port != 0) {
    repo_options.replication_sink = [this](const Slice& record) {
      return Sink(record);
    };
  }
  repo_ = std::make_unique<queue::QueueRepository>("qm", repo_options);
  RRQ_RETURN_IF_ERROR(repo_->Open());
  for (const std::string& q : {std::string(kRequestQueue), options_.audit_queue}) {
    if (q.empty()) continue;
    Status s = repo_->CreateQueue(q);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }

  rrq::storage::KvStoreOptions db_options;
  db_options.env = &env_;
  db_options.dir = dir + "/db";
  db_options.in_doubt_resolver = [this](rrq::txn::TxnId id) {
    return txn_->WasCommitted(id);
  };
  db_ = std::make_unique<rrq::storage::KvStore>("db", db_options);
  RRQ_RETURN_IF_ERROR(db_->Open());

  if (options_.run_server) {
    rrq::server::ServerOptions server_options;
    server_options.name = "rrqd-server";
    server_options.request_queue = kRequestQueue;
    server_options.threads = ServerThreads();
    server_ = std::make_unique<rrq::server::Server>(
        server_options, repo_.get(), txn_.get(),
        [this](rrq::txn::Transaction* t, const queue::RequestEnvelope& request) {
          return Execute(t, request);
        });
    RRQ_RETURN_IF_ERROR(server_->Start());
  }

  if (options_.backup_repl_port != 0) {
    rrq::repl::ReplicationSenderOptions sender_options;
    sender_options.port = options_.backup_repl_port;
    sender_options.stream_id =
        (static_cast<uint64_t>(NowNanos()) << 16) ^
        static_cast<uint64_t>(::getpid()) ^ 1;
    sender_ = std::make_unique<rrq::repl::ReplicationSender>(
        sender_options, &repl_log_, repo_.get());
    RRQ_RETURN_IF_ERROR(sender_->Start());
    ack_gate_.store(true, std::memory_order_release);
  }

  dispatcher_ = std::make_unique<rrq::net::QueueServiceDispatcher>(repo_.get());
  if (sender_ != nullptr) {
    dispatcher_->set_replication_status_fn([this]() {
      const rrq::repl::ReplicationState st = sender_->state();
      rrq::net::ReplStatusInfo info;
      info.role = "primary";
      info.state = st.state;
      info.stream_id = st.stream_id;
      info.acked_seq = st.acked_seq;
      info.head_seq = st.head_seq;
      return info;
    });
  }
  tcp_ = std::make_unique<rrq::net::TcpServer>(
      rrq::net::TcpServerOptions(),
      [this](const Slice& request, std::string* reply) {
        return Handle(request, reply);
      });
  tcp_->set_blocking_hint(
      [](const Slice& request) { return rrq::net::QueueRequestMayBlock(request); });
  return tcp_->Start();
}

void Host::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (sender_ != nullptr) sender_->Stop();
  repl_log_.Shutdown();
  if (tcp_ != nullptr) tcp_->Stop();
  if (server_ != nullptr) server_->Stop();
}

// rrqd's demo back end: count executions per rid in the KvStore and
// audit each one, in the request's transaction.
Result<std::string> Host::Execute(rrq::txn::Transaction* t,
                                  const queue::RequestEnvelope& request) {
  Span span;
  span.kind = SpanKind::kHandler;
  span.rid = HashRid(request.rid);
  span.start_ns = NowNanos();
  auto result = [&]() -> Result<std::string> {
    const std::string key = "exec/" + request.rid;
    uint64_t count = 0;
    auto prior = db_->GetForUpdate(t, key);
    if (prior.ok()) {
      count = std::strtoull(prior->c_str(), nullptr, 10);
    } else if (!prior.status().IsNotFound()) {
      return prior.status();
    }
    ++count;
    RRQ_RETURN_IF_ERROR(db_->Put(t, key, std::to_string(count)));
    if (!options_.audit_queue.empty()) {
      auto eid = repo_->Enqueue(
          t, options_.audit_queue,
          Slice("exec:" + request.rid + ":" + std::to_string(count)));
      if (!eid.ok()) return eid.status();
    }
    return "done:" + request.rid + ":" + std::to_string(count);
  }();
  span.end_ns = NowNanos();
  Tracer::Get().Record(span);
  return result;
}

Status Host::Handle(const Slice& request, std::string* reply) {
  Span span;
  span.kind = SpanKind::kHandle;
  span.start_ns = NowNanos();
  Status s = dispatcher_->Handle(request, reply);
  span.end_ns = NowNanos();
  // [op][queue] then per-op fields; the registrant follows the
  // contents and priority of an enqueue, and leads a register or
  // dequeue.
  Slice in = request;
  if (!in.empty()) {
    span.op = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    std::string q, registrant, contents;
    uint32_t priority = 0;
    if (rrq::util::GetLengthPrefixedString(&in, &q).ok()) {
      if (span.op == rrq::net::kOpEnqueue &&
          rrq::util::GetLengthPrefixedString(&in, &contents).ok() &&
          rrq::util::GetVarint32(&in, &priority).ok()) {
        span.rid = RidOfContents(contents);
      }
      if (span.op == rrq::net::kOpEnqueue || span.op == rrq::net::kOpDequeue ||
          span.op == rrq::net::kOpRegister || span.op == rrq::net::kOpDeregister) {
        (void)rrq::util::GetLengthPrefixedString(&in, &registrant);
      }
      span.key = HashKey(q, registrant);
    }
  }
  Tracer::Get().Record(span);
  return s;
}

Status Host::Sink(const Slice& record) {
  Span span;
  span.kind = SpanKind::kSink;
  span.start_ns = NowNanos();
  const uint64_t seq = repl_log_.Append(record.ToString());
  Status s;
  if (ack_gate_.load(std::memory_order_acquire)) {
    s = repl_log_.WaitAcked(seq, 5'000'000);
  }
  span.end_ns = NowNanos();
  Tracer::Get().Record(span);
  return s;
}

}  // namespace e2e
