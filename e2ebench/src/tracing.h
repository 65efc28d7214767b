#ifndef E2EBENCH_TRACING_H_
#define E2EBENCH_TRACING_H_

// The traced run's instruments. Spans are recorded from the
// benchmark's own code around the public seams of each layer — a
// QueueApi decorator under the clerks, the TcpServer handler around
// QueueServiceDispatcher::Handle, the server's RequestHandler, an Env
// decorator, and RepositoryOptions::replication_sink — and kept in
// memory until the run ends. Spans of one request share a rid hash
// wherever the seam can see the rid.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "env/env.h"
#include "net/queue_wire.h"
#include "net/tcp_transport.h"
#include "queue/queue_api.h"
#include "queue/queue_repository.h"
#include "repl/replication_log.h"
#include "repl/replication_sender.h"
#include "server/server.h"
#include "storage/kv_store.h"
#include "txn/txn_manager.h"
#include "util/thread_annotations.h"

namespace e2e {

enum class SpanKind : uint8_t {
  kExecute,   // ReliableClient::Execute (client)
  kClientOp,  // one QueueApi call, as the clerk sees it (client → wire)
  kHandle,    // QueueServiceDispatcher::Handle (queue)
  kHandler,   // the server's RequestHandler (server)
  kSync,      // WritableFile::Sync (env)
  kSink,      // replication_sink, including the ack wait (repl)
};

/// File families the Env decorator tells apart by directory.
enum Family : uint8_t { kQueueFiles = 0, kTxnFiles, kKvFiles, kOtherFiles, kFamilies };

struct Span {
  SpanKind kind = SpanKind::kExecute;
  uint8_t op = 0;      // queue-wire opcode for kClientOp/kHandle; Family for kSync
  uint64_t key = 0;    // hash of (queue, registrant): pairs client and server views
  uint64_t rid = 0;    // hash of the request's rid when the seam sees it
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

uint64_t HashKey(const std::string& queue, const std::string& registrant);
uint64_t HashRid(const std::string& rid);

/// Per-thread span buffers, merged when the run ends.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void Record(const Span& span);
  /// All spans recorded so far, from every thread.
  std::vector<Span> Collect();

 private:
  struct Buffer {
    rrq::Mutex mu;
    std::vector<Span> spans GUARDED_BY(mu);
  };
  std::atomic<bool> enabled_{false};
  rrq::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
};

/// Env decorator: counts appends, appended bytes and syncs per file
/// family and records each Sync as a span.
class TracingEnv final : public rrq::env::Env {
 public:
  struct Counters {
    std::atomic<uint64_t> appends{0};
    std::atomic<uint64_t> append_bytes{0};
    std::atomic<uint64_t> syncs{0};
  };

  explicit TracingEnv(rrq::env::Env* base) : base_(base) {}

  const Counters& counters(Family f) const { return counters_[f]; }

  Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<rrq::env::SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<rrq::env::RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<rrq::env::WritableFile>* r) override;
  Status NewAppendableFile(const std::string& f,
                           std::unique_ptr<rrq::env::WritableFile>* r) override;
  bool FileExists(const std::string& f) override { return base_->FileExists(f); }
  Status GetChildren(const std::string& d, std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override { return base_->RemoveFile(f); }
  Status CreateDirIfMissing(const std::string& d) override {
    return base_->CreateDirIfMissing(d);
  }
  Status RemoveDir(const std::string& d) override { return base_->RemoveDir(d); }
  Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  Status RenameFile(const std::string& s, const std::string& t) override {
    return base_->RenameFile(s, t);
  }

 private:
  Status Wrap(const std::string& fname,
              std::unique_ptr<rrq::env::WritableFile>* file);

  rrq::env::Env* base_;
  std::array<Counters, kFamilies> counters_;
};

/// QueueApi decorator under the clerks: one kClientOp span per call,
/// from issue to completion (for the async variants, to the callback).
class TracingQueueApi final : public rrq::queue::QueueApi {
 public:
  explicit TracingQueueApi(rrq::queue::QueueApi* base) : base_(base) {}

  Result<rrq::queue::RegistrationInfo> Register(const std::string& queue,
                                                const std::string& registrant,
                                                bool stable) override;
  Status Deregister(const std::string& queue,
                    const std::string& registrant) override;
  Result<rrq::queue::ElementId> Enqueue(const std::string& queue,
                                        const rrq::Slice& contents,
                                        uint32_t priority,
                                        const std::string& registrant,
                                        const rrq::Slice& tag,
                                        bool one_way) override;
  Result<rrq::queue::Element> Dequeue(const std::string& queue,
                                      const std::string& registrant,
                                      const rrq::Slice& tag,
                                      uint64_t timeout_micros) override;
  Result<rrq::queue::Element> Read(const std::string& queue,
                                   rrq::queue::ElementId eid) override;
  Result<bool> KillElement(const std::string& queue,
                           rrq::queue::ElementId eid) override;
  void EnqueueAsync(
      const std::string& queue, const rrq::Slice& contents, uint32_t priority,
      const std::string& registrant, const rrq::Slice& tag, bool one_way,
      std::function<void(Result<rrq::queue::ElementId>)> done) override;
  void DequeueAsync(
      const std::string& queue, const std::string& registrant,
      const rrq::Slice& tag, uint64_t timeout_micros,
      std::function<void(Result<rrq::queue::Element>)> done) override;

 private:
  void Finish(uint8_t op, uint64_t key, uint64_t rid, uint64_t start);

  rrq::queue::QueueApi* base_;
};

/// The daemon's components hosted in the benchmark's process, composed
/// from the same public classes and options rrqd_main uses, with the
/// seams above instrumented.
struct HostOptions {
  std::string dir;
  bool run_server = true;
  std::string audit_queue;
  /// Primary role: ship to a backup's replication listener, each
  /// commit waiting for the backup's acknowledgement.
  uint16_t backup_repl_port = 0;
};

class Host {
 public:
  explicit Host(HostOptions options);
  ~Host();

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Recovers the directory and starts listening.
  Status Open();
  /// Stops serving; the components stay readable.
  void Stop();

  uint16_t port() const { return tcp_->port(); }
  TracingEnv* env() { return &env_; }
  rrq::queue::QueueRepository* repo() { return repo_.get(); }
  rrq::txn::TransactionManager* txn() { return txn_.get(); }
  rrq::server::Server* server() { return server_.get(); }
  rrq::net::TcpServer* tcp() { return tcp_.get(); }
  rrq::repl::ReplicationSender* sender() { return sender_.get(); }

 private:
  Result<std::string> Execute(rrq::txn::Transaction* t,
                              const rrq::queue::RequestEnvelope& request);
  Status Handle(const rrq::Slice& request, std::string* reply);
  Status Sink(const rrq::Slice& record);

  HostOptions options_;
  TracingEnv env_;
  rrq::repl::ReplicationLog repl_log_;
  std::atomic<bool> ack_gate_{false};
  std::unique_ptr<rrq::txn::TransactionManager> txn_;
  std::unique_ptr<rrq::queue::QueueRepository> repo_;
  std::unique_ptr<rrq::storage::KvStore> db_;
  std::unique_ptr<rrq::server::Server> server_;
  std::unique_ptr<rrq::repl::ReplicationSender> sender_;
  std::unique_ptr<rrq::net::QueueServiceDispatcher> dispatcher_;
  std::unique_ptr<rrq::net::TcpServer> tcp_;
  bool stopped_ = false;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACING_H_
