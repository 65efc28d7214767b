#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Correctness checks over the program's outputs, computed apart from
// the program: each takes what the clients saw and what the daemon
// holds as plain values and returns a list of violations (empty when
// the check passes). The benchmark's tests feed each one a wrong
// output.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Violations = std::vector<std::string>;

/// The rid a ReliableClient mints for its seq-th request.
std::string RidOf(const std::string& client_id, uint64_t seq);

/// request_reply: clerk `client_id` received `replies`
/// in order for the requests it sent with seqs first_seq, first_seq+1,
/// ...; each must be "done:<rid>:1" for exactly that rid (one
/// execution, no gap, no repeat).
Violations CheckClerkReplies(const std::string& client_id, uint64_t first_seq,
                             const std::vector<std::string>& replies);

/// request_reply: after the restart, Connect must report the clerk's
/// last pre-kill rid as both s_rid and r_rid (§4.3 persistent
/// registration remembered the Send and the Receive).
Violations CheckResync(const std::string& client_id,
                       const std::string& last_rid, const std::string& s_rid,
                       const std::string& r_rid);

/// Every named queue must be empty at the end.
Violations CheckQueuesEmpty(const std::map<std::string, uint64_t>& depths);

/// The daemon's audit queue ("exec:<rid>:<count>" per execution) must
/// hold every completed rid exactly once, with count 1, and nothing
/// else.
Violations CheckAudit(const std::vector<std::string>& completed_rids,
                      const std::vector<std::string>& audit_entries);

/// volatile_pipeline: the element chain `chain` dequeued as its
/// `seq`-th must be, byte for byte, the one it enqueued as its seq-th.
/// Elements are "<chain>:<seq>:<payload>", so a reordered (non-FIFO)
/// or foreign element names the wrong chain or seq.
std::string PipelineElement(uint32_t chain, uint64_t seq,
                            const std::string& payload);
Violations CheckPipelineDequeue(uint32_t chain, uint64_t seq,
                                const std::string& enqueued,
                                const std::string& dequeued);

/// replicated_ack: the backup's acknowledged sequence equals the
/// primary's head sequence (nothing committed is unreplicated).
Violations CheckReplicationCaughtUp(uint64_t primary_head,
                                    uint64_t backup_acked);

/// replicated_ack: after failover the promoted backup's queues must
/// hold exactly what the clients left in them on the primary, in order
/// and byte for byte. `left[q]` is what the clients enqueued into q and
/// never dequeued; `backup[q]` is what the backup holds in q.
Violations CheckReplicatedQueues(
    const std::map<std::string, std::vector<std::string>>& left,
    const std::map<std::string, std::vector<std::string>>& backup);

/// Traced run: a recoverable request leaves a durable trace at least
/// as large as its request body plus its reply body.
Violations CheckDurableBytes(uint64_t appended_bytes, uint64_t body_bytes);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
