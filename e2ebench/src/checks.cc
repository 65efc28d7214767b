#include "checks.h"

#include <set>

namespace e2e {

std::string RidOf(const std::string& client_id, uint64_t seq) {
  return client_id + "#" + std::to_string(seq);
}

Violations CheckClerkReplies(const std::string& client_id, uint64_t first_seq,
                             const std::vector<std::string>& replies) {
  Violations v;
  for (size_t i = 0; i < replies.size(); ++i) {
    const std::string want = "done:" + RidOf(client_id, first_seq + i) + ":1";
    if (replies[i] != want) {
      v.push_back(client_id + " reply " + std::to_string(i) + " is \"" +
                  replies[i] + "\", want \"" + want + "\"");
      if (v.size() >= 5) break;
    }
  }
  return v;
}

Violations CheckResync(const std::string& client_id,
                       const std::string& last_rid, const std::string& s_rid,
                       const std::string& r_rid) {
  Violations v;
  if (s_rid != last_rid) {
    v.push_back(client_id + " Connect s_rid \"" + s_rid + "\", want \"" +
                last_rid + "\"");
  }
  if (r_rid != last_rid) {
    v.push_back(client_id + " Connect r_rid \"" + r_rid + "\", want \"" +
                last_rid + "\"");
  }
  return v;
}

Violations CheckQueuesEmpty(const std::map<std::string, uint64_t>& depths) {
  Violations v;
  for (const auto& [queue, depth] : depths) {
    if (depth != 0) {
      v.push_back("queue " + queue + " holds " + std::to_string(depth) +
                  " elements at the end");
    }
  }
  return v;
}

Violations CheckAudit(const std::vector<std::string>& completed_rids,
                      const std::vector<std::string>& audit_entries) {
  Violations v;
  std::set<std::string> completed;
  for (const std::string& rid : completed_rids) {
    if (!completed.insert(rid).second) v.push_back("rid " + rid + " completed twice");
  }
  std::set<std::string> audited;
  for (const std::string& entry : audit_entries) {
    const size_t first = entry.find(':');
    const size_t last = entry.rfind(':');
    if (entry.compare(0, 5, "exec:") != 0 || last <= first) {
      v.push_back("malformed audit entry \"" + entry + "\"");
      continue;
    }
    const std::string rid = entry.substr(first + 1, last - first - 1);
    if (entry.substr(last + 1) != "1") {
      v.push_back("rid " + rid + " executed " + entry.substr(last + 1) + " times");
    }
    if (!audited.insert(rid).second) v.push_back("rid " + rid + " audited twice");
    if (completed.count(rid) == 0) {
      v.push_back("rid " + rid + " executed but never completed");
    }
  }
  for (const std::string& rid : completed) {
    if (audited.count(rid) == 0) v.push_back("rid " + rid + " completed but not audited");
  }
  if (v.size() > 5) v.resize(5);
  return v;
}

std::string PipelineElement(uint32_t chain, uint64_t seq,
                            const std::string& payload) {
  return std::to_string(chain) + ":" + std::to_string(seq) + ":" + payload;
}

Violations CheckPipelineDequeue(uint32_t chain, uint64_t seq,
                                const std::string& enqueued,
                                const std::string& dequeued) {
  const std::string prefix = std::to_string(chain) + ":" + std::to_string(seq) + ":";
  if (dequeued.compare(0, prefix.size(), prefix) != 0) {
    return {"chain " + std::to_string(chain) + " dequeue " +
            std::to_string(seq) + " returned another element: \"" +
            dequeued.substr(0, 32) + "\""};
  }
  if (dequeued != enqueued) {
    return {"chain " + std::to_string(chain) + " dequeue " +
            std::to_string(seq) + " differs from what was enqueued"};
  }
  return {};
}

Violations CheckReplicationCaughtUp(uint64_t primary_head,
                                    uint64_t backup_acked) {
  if (primary_head == 0) return {"primary produced no replication records"};
  if (backup_acked != primary_head) {
    return {"backup acked seq " + std::to_string(backup_acked) +
            " != primary head seq " + std::to_string(primary_head)};
  }
  return {};
}

Violations CheckReplicatedQueues(
    const std::map<std::string, std::vector<std::string>>& left,
    const std::map<std::string, std::vector<std::string>>& backup) {
  Violations v;
  for (const auto& [q, want] : left) {
    auto it = backup.find(q);
    if (it == backup.end()) {
      v.push_back("backup has no queue " + q);
      continue;
    }
    const std::vector<std::string>& got = it->second;
    if (got.size() != want.size()) {
      v.push_back("backup queue " + q + " holds " + std::to_string(got.size()) +
                  " elements, the clients left " + std::to_string(want.size()));
      continue;
    }
    for (size_t k = 0; k < want.size(); ++k) {
      if (got[k] != want[k]) {
        v.push_back("backup queue " + q + " element " + std::to_string(k) +
                    " differs from what the clients enqueued");
      }
    }
  }
  for (const auto& [q, got] : backup) {
    if (left.count(q) == 0) v.push_back("backup holds unexpected queue " + q);
  }
  if (v.size() > 5) v.resize(5);
  return v;
}

Violations CheckDurableBytes(uint64_t appended_bytes, uint64_t body_bytes) {
  if (appended_bytes < body_bytes) {
    return {"appended " + std::to_string(appended_bytes) +
            " bytes for requests whose bodies total " +
            std::to_string(body_bytes)};
  }
  return {};
}

}  // namespace e2e
