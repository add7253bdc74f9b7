#include "ckpt/snapshot_store.h"

#include <gtest/gtest.h>

namespace swapserve::ckpt {
namespace {

Snapshot Make(const std::string& owner, double clean_gb, double dirty_gb) {
  Snapshot s;
  s.owner = owner;
  s.clean_bytes = GB(clean_gb);
  s.dirty_bytes = GB(dirty_gb);
  return s;
}

TEST(SnapshotStoreTest, PutFindDrop) {
  SnapshotStore store(GiB(64));
  auto id = store.Put(Make("a", 60, 4));
  ASSERT_TRUE(id.ok());
  const Snapshot* snap = store.Find(*id);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->owner, "a");
  EXPECT_EQ(snap->clean_bytes, GB(60));
  EXPECT_EQ(store.used(), GB(4));  // only dirty bytes occupy host RAM
  EXPECT_TRUE(store.Drop(*id).ok());
  EXPECT_EQ(store.used(), Bytes(0));
  EXPECT_EQ(store.count(), 0u);
}

TEST(SnapshotStoreTest, BudgetEnforcedOnDirtyBytesOnly) {
  SnapshotStore store(GB(10));
  EXPECT_TRUE(store.Put(Make("a", 100, 6)).ok());  // clean is free
  EXPECT_TRUE(store.Put(Make("b", 0, 4)).ok());
  auto r = store.Put(Make("c", 0, 1));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.free(), Bytes(0));
}

TEST(SnapshotStoreTest, DropFreesBudget) {
  SnapshotStore store(GB(10));
  auto a = store.Put(Make("a", 0, 10));
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(store.Put(Make("b", 0, 1)).ok());
  EXPECT_TRUE(store.Drop(*a).ok());
  EXPECT_TRUE(store.Put(Make("b", 0, 1)).ok());
}

TEST(SnapshotStoreTest, FindUnknownIsNullAndDropFails) {
  SnapshotStore store(GB(10));
  EXPECT_EQ(store.Find(7), nullptr);
  EXPECT_EQ(store.Drop(7).code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, NegativeSizesRejected) {
  SnapshotStore store(GB(10));
  Snapshot bad;
  bad.owner = "x";
  bad.dirty_bytes = Bytes(-5);
  EXPECT_EQ(store.Put(bad).status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotStoreTest, FindByOwnerReturnsLatest) {
  SnapshotStore store(GB(100));
  ASSERT_TRUE(store.Put(Make("a", 0, 1)).ok());
  auto second = store.Put(Make("a", 0, 2));
  ASSERT_TRUE(second.ok());
  const Snapshot* found = store.FindByOwner("a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->id, *second);
  EXPECT_EQ(store.FindByOwner("ghost"), nullptr);
}

TEST(SnapshotStoreTest, IdsAreUniqueAndMonotonic) {
  SnapshotStore store(GB(100));
  auto a = store.Put(Make("a", 0, 1));
  auto b = store.Put(Make("b", 0, 1));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, *b);
}

TEST(SnapshotStoreTest, AllListsEverySnapshot) {
  SnapshotStore store(GB(100));
  ASSERT_TRUE(store.Put(Make("a", 0, 1)).ok());
  ASSERT_TRUE(store.Put(Make("b", 0, 2)).ok());
  EXPECT_EQ(store.All().size(), 2u);
}

TEST(SnapshotStoreTest, PutStampsAVerifiableChecksum) {
  SnapshotStore store(GB(100));
  auto id = store.Put(Make("a", 10, 2));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(store.Verify(*id).ok());
  const Snapshot* snap = store.Find(*id);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->checksum, SnapshotChecksum(*snap));
  EXPECT_EQ(store.Verify(999).code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, CorruptionIsDetectedByVerify) {
  SnapshotStore store(GB(100));
  auto id = store.Put(Make("a", 10, 2));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.Corrupt(*id).ok());
  EXPECT_EQ(store.Verify(*id).code(), StatusCode::kDataLoss);
  EXPECT_EQ(store.Corrupt(999).code(), StatusCode::kNotFound);
}

TEST(SnapshotStoreTest, ChecksumDiffersAcrossOwnersAndSizes) {
  Snapshot a = Make("a", 10, 2);
  Snapshot b = Make("b", 10, 2);
  Snapshot a2 = Make("a", 10, 3);
  EXPECT_NE(SnapshotChecksum(a), SnapshotChecksum(b));
  EXPECT_NE(SnapshotChecksum(a), SnapshotChecksum(a2));
}

}  // namespace
}  // namespace swapserve::ckpt
