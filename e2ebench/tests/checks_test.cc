// Each correctness check of the benchmark, fed a right output (it
// passes) and wrong outputs (it must fail).

#include "checks.h"

#include <gtest/gtest.h>

namespace e2e {
namespace {

TEST(ChecksTest, ClerkRepliesMatchTheirRidsInSequence) {
  EXPECT_TRUE(CheckClerkReplies("pool-0", 7, {"done:pool-0#7:1", "done:pool-0#8:1"}).empty());
  // Another clerk's rid, a gap, a repeat, a second execution.
  EXPECT_FALSE(CheckClerkReplies("pool-0", 7, {"done:pool-1#7:1"}).empty());
  EXPECT_FALSE(CheckClerkReplies("pool-0", 7, {"done:pool-0#7:1", "done:pool-0#9:1"}).empty());
  EXPECT_FALSE(CheckClerkReplies("pool-0", 7, {"done:pool-0#7:1", "done:pool-0#7:1"}).empty());
  EXPECT_FALSE(CheckClerkReplies("pool-0", 7, {"done:pool-0#7:2"}).empty());
  EXPECT_FALSE(CheckClerkReplies("pool-0", 7, {""}).empty());
}

TEST(ChecksTest, ResyncReportsTheLastPreKillRid) {
  EXPECT_TRUE(CheckResync("pool-2", "pool-2#1000", "pool-2#1000", "pool-2#1000").empty());
  EXPECT_FALSE(CheckResync("pool-2", "pool-2#1000", "pool-2#999", "pool-2#1000").empty());
  EXPECT_FALSE(CheckResync("pool-2", "pool-2#1000", "pool-2#1000", "").empty());
}

TEST(ChecksTest, QueuesMustEndEmpty) {
  EXPECT_TRUE(CheckQueuesEmpty({{"requests", 0}, {"reply.pool-0", 0}}).empty());
  EXPECT_FALSE(CheckQueuesEmpty({{"requests", 0}, {"reply.pool-0", 1}}).empty());
}

TEST(ChecksTest, AuditHoldsEveryCompletedRidExactlyOnce) {
  const std::vector<std::string> completed = {"pool-0#1", "pool-1#1"};
  EXPECT_TRUE(CheckAudit(completed, {"exec:pool-1#1:1", "exec:pool-0#1:1"}).empty());
  // Lost, duplicated, executed twice, phantom, malformed.
  EXPECT_FALSE(CheckAudit(completed, {"exec:pool-0#1:1"}).empty());
  EXPECT_FALSE(CheckAudit(completed, {"exec:pool-0#1:1", "exec:pool-1#1:1", "exec:pool-1#1:1"}).empty());
  EXPECT_FALSE(CheckAudit(completed, {"exec:pool-0#1:1", "exec:pool-1#1:2"}).empty());
  EXPECT_FALSE(CheckAudit(completed, {"exec:pool-0#1:1", "exec:pool-1#1:1", "exec:pool-3#1:1"}).empty());
  EXPECT_FALSE(CheckAudit(completed, {"exec:pool-0#1:1", "pool-1#1"}).empty());
  // The clients' side counts too: a rid completed twice is wrong.
  EXPECT_FALSE(CheckAudit({"pool-0#1", "pool-0#1"}, {"exec:pool-0#1:1"}).empty());
}

TEST(ChecksTest, PipelineDequeueIsTheChainsOwnElementInFifoOrder) {
  const std::string sent = PipelineElement(3, 41, "payload");
  EXPECT_TRUE(CheckPipelineDequeue(3, 41, sent, sent).empty());
  // Another chain's element, an older or newer one, altered bytes.
  EXPECT_FALSE(CheckPipelineDequeue(3, 41, sent, PipelineElement(4, 41, "payload")).empty());
  EXPECT_FALSE(CheckPipelineDequeue(3, 41, sent, PipelineElement(3, 40, "payload")).empty());
  EXPECT_FALSE(CheckPipelineDequeue(3, 41, sent, PipelineElement(3, 42, "payload")).empty());
  EXPECT_FALSE(CheckPipelineDequeue(3, 41, sent, PipelineElement(3, 41, "paylaod")).empty());
  EXPECT_FALSE(CheckPipelineDequeue(3, 41, sent, sent.substr(0, sent.size() - 1)).empty());
}

TEST(ChecksTest, BackupAckedEverythingThePrimaryProduced) {
  EXPECT_TRUE(CheckReplicationCaughtUp(120, 120).empty());
  EXPECT_FALSE(CheckReplicationCaughtUp(120, 119).empty());
  EXPECT_FALSE(CheckReplicationCaughtUp(0, 0).empty());
}

TEST(ChecksTest, PromotedBackupHoldsExactlyWhatTheClientsLeft) {
  const std::map<std::string, std::vector<std::string>> left = {
      {"rq-0", {PipelineElement(0, 9, "tail")}}, {"rq-1", {PipelineElement(1, 4, "end")}}};
  EXPECT_TRUE(CheckReplicatedQueues(left, left).empty());
  auto lost_dequeue = left;
  lost_dequeue["rq-0"].insert(lost_dequeue["rq-0"].begin(), PipelineElement(0, 8, "old"));
  EXPECT_FALSE(CheckReplicatedQueues(left, lost_dequeue).empty());
  auto lost_enqueue = left;
  lost_enqueue["rq-1"].clear();
  EXPECT_FALSE(CheckReplicatedQueues(left, lost_enqueue).empty());
  auto altered = left;
  altered["rq-1"][0] = PipelineElement(1, 4, "emd");
  EXPECT_FALSE(CheckReplicatedQueues(left, altered).empty());
  auto missing = left;
  missing.erase("rq-1");
  EXPECT_FALSE(CheckReplicatedQueues(left, missing).empty());
  auto extra = left;
  extra["rq-2"] = {};
  EXPECT_FALSE(CheckReplicatedQueues(left, extra).empty());
}

TEST(ChecksTest, RequestsLeaveADurableTraceAtLeastTheirBodies) {
  EXPECT_TRUE(CheckDurableBytes(1000, 1000).empty());
  EXPECT_FALSE(CheckDurableBytes(999, 1000).empty());
}

}  // namespace
}  // namespace e2e
