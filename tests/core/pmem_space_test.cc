#include "core/pmem_space.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pmemolap {
namespace {

class PmemSpaceTest : public ::testing::Test {
 protected:
  SystemTopology topo_ = SystemTopology::PaperServer();
  PmemSpace space_{topo_};
};

TEST_F(PmemSpaceTest, AllocateReturnsUsableMemory) {
  auto alloc = space_.Allocate(4096, {Media::kPmem, 0});
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->size(), 4096u);
  EXPECT_EQ(alloc->placement().media, Media::kPmem);
  EXPECT_EQ(alloc->placement().socket, 0);
  // Writable memory.
  alloc->data()[0] = std::byte{0xAB};
  alloc->data()[4095] = std::byte{0xCD};
  EXPECT_EQ(alloc->data()[0], std::byte{0xAB});
}

TEST_F(PmemSpaceTest, AllocationsReadAsZero) {
  // Fresh storage reads as zero, also when the host recycles a block an
  // earlier allocation wrote.
  auto all_zero = [](const Allocation& alloc) {
    for (uint64_t i = 0; i < alloc.size(); ++i) {
      if (alloc.data()[i] != std::byte{0}) return false;
    }
    return true;
  };
  for (int round = 0; round < 2; ++round) {
    auto plain = space_.Allocate(4096, {Media::kPmem, 0});
    auto aligned = space_.AllocateAligned(1000, 256, {Media::kDram, 1});
    auto striped = space_.AllocateStriped(3000, Media::kPmem);
    ASSERT_TRUE(plain.ok() && aligned.ok() && striped.ok());
    EXPECT_TRUE(all_zero(*plain)) << round;
    EXPECT_TRUE(all_zero(*aligned)) << round;
    for (int s = 0; s < striped->num_stripes(); ++s) {
      EXPECT_TRUE(all_zero(striped->stripe(s))) << round;
    }
    std::fill_n(plain->data(), plain->size(), std::byte{0xFF});
    std::fill_n(aligned->data(), aligned->size(), std::byte{0xFF});
    for (int s = 0; s < striped->num_stripes(); ++s) {
      Allocation& stripe = striped->stripe(s);
      std::fill_n(stripe.data(), stripe.size(), std::byte{0xFF});
    }
  }
}

TEST_F(PmemSpaceTest, RejectsInvalidArguments) {
  EXPECT_FALSE(space_.Allocate(0, {Media::kPmem, 0}).ok());
  EXPECT_FALSE(space_.Allocate(64, {Media::kPmem, 2}).ok());
  EXPECT_FALSE(space_.Allocate(64, {Media::kPmem, -1}).ok());
  EXPECT_FALSE(space_.Allocate(64, {Media::kSsd, 0}).ok());
}

TEST_F(PmemSpaceTest, CapacityAccountingPerSocketAndMedia) {
  uint64_t pmem_before = space_.AvailableBytes({Media::kPmem, 0});
  uint64_t dram_before = space_.AvailableBytes({Media::kDram, 0});
  EXPECT_EQ(pmem_before, 768 * kGiB);
  EXPECT_EQ(dram_before, 96 * kGiB);

  auto alloc = space_.Allocate(kMiB, {Media::kPmem, 0});
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(space_.AvailableBytes({Media::kPmem, 0}), pmem_before - kMiB);
  // Other pools untouched.
  EXPECT_EQ(space_.AvailableBytes({Media::kPmem, 1}), 768 * kGiB);
  EXPECT_EQ(space_.AvailableBytes({Media::kDram, 0}), dram_before);
}

TEST_F(PmemSpaceTest, ReleaseReturnsCapacity) {
  uint64_t before = space_.AvailableBytes({Media::kPmem, 1});
  auto alloc = space_.Allocate(kMiB, {Media::kPmem, 1});
  ASSERT_TRUE(alloc.ok());
  space_.Release(alloc.value());
  EXPECT_EQ(space_.AvailableBytes({Media::kPmem, 1}), before);
}

TEST_F(PmemSpaceTest, ModeledCapacityEnforced) {
  // DRAM per socket is 96 GiB (modeled); a request beyond that fails with
  // ResourceExhausted without attempting a host allocation.
  auto alloc = space_.Allocate(97 * kGiB, {Media::kDram, 0});
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(PmemSpaceTest, StripedAllocationSplitsEvenly) {
  auto striped = space_.AllocateStriped(10 * kMiB, Media::kPmem);
  ASSERT_TRUE(striped.ok());
  EXPECT_EQ(striped->num_stripes(), 2);
  EXPECT_EQ(striped->total_size(), 10 * kMiB);
  EXPECT_EQ(striped->stripe(0).size(), 5 * kMiB);
  EXPECT_EQ(striped->stripe(0).placement().socket, 0);
  EXPECT_EQ(striped->stripe(1).placement().socket, 1);
}

TEST_F(PmemSpaceTest, StripedAllocationOddSize) {
  auto striped = space_.AllocateStriped(3, Media::kDram);
  ASSERT_TRUE(striped.ok());
  EXPECT_EQ(striped->total_size(), 3u);
}

TEST_F(PmemSpaceTest, StripedRejectsZero) {
  EXPECT_FALSE(space_.AllocateStriped(0, Media::kPmem).ok());
}

TEST_F(PmemSpaceTest, AlignedAllocationRespectsAlignment) {
  for (uint64_t alignment : {uint64_t{256}, uint64_t{4096}, uint64_t{65536}}) {
    auto alloc = space_.AllocateAligned(1000, alignment, {Media::kPmem, 0});
    ASSERT_TRUE(alloc.ok()) << alignment;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(alloc->data()) % alignment, 0u)
        << alignment;
    EXPECT_EQ(alloc->size(), 1000u);
    // Usable memory.
    alloc->data()[0] = std::byte{1};
    alloc->data()[999] = std::byte{2};
  }
}

TEST_F(PmemSpaceTest, AlignedAllocationValidates) {
  EXPECT_FALSE(space_.AllocateAligned(64, 0, {Media::kPmem, 0}).ok());
  EXPECT_FALSE(space_.AllocateAligned(64, 3000, {Media::kPmem, 0}).ok());
  EXPECT_FALSE(space_.AllocateAligned(0, 256, {Media::kPmem, 0}).ok());
  EXPECT_FALSE(space_.AllocateAligned(64, 256, {Media::kSsd, 0}).ok());
}

TEST_F(PmemSpaceTest, AlignedAllocationAccountsPadding) {
  uint64_t before = space_.AvailableBytes({Media::kDram, 1});
  auto alloc = space_.AllocateAligned(kMiB, 4096, {Media::kDram, 1});
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->charged_bytes(), kMiB + 4095);
  EXPECT_EQ(space_.AvailableBytes({Media::kDram, 1}),
            before - alloc->charged_bytes());
  space_.Release(alloc.value());
  EXPECT_EQ(space_.AvailableBytes({Media::kDram, 1}), before);
}

}  // namespace
}  // namespace pmemolap
