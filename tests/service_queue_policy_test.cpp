// service::QueuePolicy disciplines — deterministic, single-threaded
// scheduling-order tests: exact pop sequences for FIFO and deficit round
// robin, hand-traced from the DRR definition (quantum banking, cost-gated
// service, deficit reset on drain), and what remove() leaves behind.
#include "service/queue_policy.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nowsched::service {
namespace {

QueuedJob job(JobId id, const std::string& tenant, std::size_t cost) {
  QueuedJob j;
  j.id = id;
  j.tenant = tenant;
  j.cost = cost;
  return j;
}

std::vector<JobId> pop_all(QueuePolicy& queue) {
  std::vector<JobId> order;
  while (!queue.empty()) order.push_back(queue.pop().id);
  return order;
}

TEST(FifoQueue, PopsInAdmissionOrderTenantBlind) {
  auto q = make_queue_policy(QueueKind::kFifo);
  EXPECT_STREQ(q->name(), "fifo");
  q->push(job(1, "a", 3));
  q->push(job(2, "b", 1));
  q->push(job(3, "a", 1));
  q->push(job(4, "c", 7));
  EXPECT_EQ(q->size(), 4u);
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{1, 2, 3, 4}));
  EXPECT_TRUE(q->empty());
}

TEST(FifoQueue, PopOnEmptyThrows) {
  auto q = make_queue_policy(QueueKind::kFifo);
  EXPECT_THROW((void)q->pop(), std::logic_error);
  q->push(job(1, "a", 1));
  (void)q->pop();
  EXPECT_THROW((void)q->pop(), std::logic_error);
}

TEST(FifoQueue, RemoveKeepsTheOthersInOrder) {
  auto q = make_queue_policy(QueueKind::kFifo);
  for (JobId i = 1; i <= 4; ++i) q->push(job(i, i % 2 ? "a" : "b", i));
  const std::optional<QueuedJob> removed = q->remove(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2u);
  EXPECT_EQ(removed->tenant, "b");
  EXPECT_EQ(removed->cost, 2u);
  EXPECT_EQ(q->size(), 3u);
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{1, 3, 4}));
}

TEST(DrrQueue, EqualCostQuantumOneInterleavesRoundRobin) {
  // A1 A2 A3 then B1 B2 B3 pushed, all cost 1, quantum 1. Hand trace: each
  // rotation visit banks exactly one job's cost, so service alternates
  // A1 B1 A2 B2 A3 B3 — perfect round robin regardless of burst order.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 1);
  EXPECT_STREQ(q->name(), "drr");
  for (JobId i = 1; i <= 3; ++i) q->push(job(i, "a", 1));
  for (JobId i = 4; i <= 6; ++i) q->push(job(i, "b", 1));
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{1, 4, 2, 5, 3, 6}));
}

TEST(DrrQueue, CostWeightedFairShareTrace) {
  // A submits two cost-3 jobs, B six cost-1 jobs, quantum 1. A must bank
  // three visits per job while B serves one job per visit — hand trace
  // yields B1 B2 A1 B3 B4 B5 A2 B6: A gets ~1/4 of the pops because its
  // jobs are 3x the cost, i.e. equal SCENARIO throughput, the DRR currency.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 1);
  q->push(job(1, "a", 3));
  q->push(job(2, "a", 3));
  for (JobId i = 3; i <= 8; ++i) q->push(job(i, "b", 1));
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{3, 4, 1, 5, 6, 7, 2, 8}));
}

TEST(DrrQueue, WithinTenantOrderStaysFifo) {
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 100);
  for (JobId i = 1; i <= 4; ++i) q->push(job(i, "a", 2));
  const std::vector<JobId> order = pop_all(*q);
  EXPECT_EQ(order, (std::vector<JobId>{1, 2, 3, 4}));
}

TEST(DrrQueue, OversizedJobEventuallyAccumulatesEnoughDeficit) {
  // cost 10 against quantum 3: the tenant needs four visits. With a cost-1
  // competitor, the big job still lands (no starvation), after the
  // competitor drains.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 3);
  q->push(job(1, "big", 10));
  q->push(job(2, "small", 1));
  const std::vector<JobId> order = pop_all(*q);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);  // small clears while big banks deficit
  EXPECT_EQ(order[1], 1u);
}

TEST(DrrQueue, DeficitResetsWhenTenantDrains) {
  // Phase 1: B banks quantum 3 to serve a cost-1 job; its queue drains, so
  // the leftover 2 credit MUST be forfeited. Phase 2: A and B each queue a
  // cost-2 job, A activating first. With the reset both need a banking
  // visit and rotation order serves A first; a tenant that hoarded credit
  // across idle would serve B first.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 3);
  q->push(job(1, "b", 1));
  EXPECT_EQ(q->pop().id, 1u);
  q->push(job(2, "a", 2));
  q->push(job(3, "b", 2));
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{2, 3}));
}

TEST(DrrQueue, RemovingATenantsLastJobDropsItAndResetsItsDeficit) {
  // Quantum 3. B queues 1 (cost 1) and 2 (cost 5); one pop banks 3 and
  // serves 1, leaving B at the front with deficit 2. Removing 2 empties B,
  // so B leaves the rotation and forfeits the 2. Then A queues 3 (cost 2)
  // and B queues 4 (cost 2), A activating first: both must bank a visit,
  // and rotation order serves 3 then 4. A B that kept its 2 would serve 4
  // first.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 3);
  q->push(job(1, "b", 1));
  q->push(job(2, "b", 5));
  EXPECT_EQ(q->pop().id, 1u);
  const std::optional<QueuedJob> removed = q->remove(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->id, 2u);
  EXPECT_TRUE(q->empty());
  q->push(job(3, "a", 2));
  q->push(job(4, "b", 2));
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{3, 4}));
}

TEST(DrrQueue, RemovingANonHeadJobLeavesTheDeficitAlone) {
  // Quantum 3. A queues 1 (cost 1), 2 (cost 2), 3 (cost 2); B queues 4
  // (cost 2). Pop: A banks 3, B banks 3, A serves 1 and keeps deficit 2.
  // Removing 3 leaves A with 2 queued, so its deficit of 2 still covers 2
  // at once: 2 then 4. A reset deficit would serve 4 first.
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 3);
  q->push(job(1, "a", 1));
  q->push(job(2, "a", 2));
  q->push(job(3, "a", 2));
  q->push(job(4, "b", 2));
  EXPECT_EQ(q->pop().id, 1u);
  ASSERT_TRUE(q->remove(3).has_value());
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(pop_all(*q), (std::vector<JobId>{2, 4}));
}

TEST(QueuePolicy, RemoveOfAnUnknownIdReturnsNulloptAndChangesNothing) {
  for (const QueueKind kind : {QueueKind::kFifo, QueueKind::kDeficitRoundRobin}) {
    SCOPED_TRACE(to_string(kind));
    auto q = make_queue_policy(kind, 1);
    EXPECT_FALSE(q->remove(1).has_value());
    q->push(job(1, "a", 1));
    q->push(job(2, "b", 1));
    q->push(job(3, "a", 1));
    EXPECT_FALSE(q->remove(4).has_value());
    EXPECT_EQ(q->size(), 3u);
    ASSERT_TRUE(q->remove(3).has_value());
    EXPECT_FALSE(q->remove(3).has_value());  // already gone
    EXPECT_EQ(pop_all(*q), (std::vector<JobId>{1, 2}));
  }
}

TEST(DrrQueue, PopOnEmptyThrowsAndQuantumClampsToOne) {
  auto q = make_queue_policy(QueueKind::kDeficitRoundRobin, 0);  // clamped to 1
  EXPECT_THROW((void)q->pop(), std::logic_error);
  q->push(job(1, "a", 5));  // cost 5 against quantum 1 still terminates
  EXPECT_EQ(q->pop().id, 1u);
}

TEST(QueueKindNames, RoundTripAndParse) {
  EXPECT_STREQ(to_string(QueueKind::kFifo), "fifo");
  EXPECT_STREQ(to_string(QueueKind::kDeficitRoundRobin), "drr");
  EXPECT_EQ(queue_kind_from_string("fifo"), QueueKind::kFifo);
  EXPECT_EQ(queue_kind_from_string("drr"), QueueKind::kDeficitRoundRobin);
  EXPECT_EQ(queue_kind_from_string("fair-share"), QueueKind::kDeficitRoundRobin);
  EXPECT_THROW(queue_kind_from_string("lifo"), std::invalid_argument);
  EXPECT_THROW(queue_kind_from_string(""), std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::service
