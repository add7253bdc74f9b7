#include "container/runtime.h"

#include <gtest/gtest.h>

#include "sim/task.h"

namespace swapserve::container {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  ContainerRuntime runtime{sim, ImageRegistry::WithDefaultImages()};
};

TEST_F(RuntimeTest, DefaultImagesRegistered) {
  const ImageRegistry& reg = runtime.registry();
  EXPECT_TRUE(reg.Find("vllm/vllm-openai:v0.9.2").ok());
  EXPECT_TRUE(reg.Find("ollama/ollama:v0.9.6").ok());
  EXPECT_TRUE(reg.Find("ollama/ollama:v0.5.7").ok());
  EXPECT_TRUE(reg.Find("lmsysorg/sglang:v0.4.9").ok());
  EXPECT_TRUE(reg.Find("nvcr.io/nvidia/tensorrt-llm:v1.0rc0").ok());
  EXPECT_FALSE(reg.Find("no-such-image").ok());
}

TEST_F(RuntimeTest, ImageRegistryRejectsDuplicatesAndEmptyNames) {
  ImageRegistry reg;
  EXPECT_TRUE(reg.Register({.name = "a", .size = GiB(1), .create_start = {}, .entrypoint_boot = {}}).ok());
  EXPECT_EQ(reg.Register({.name = "a", .size = GiB(1), .create_start = {}, .entrypoint_boot = {}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(reg.Register({.name = "", .size = GiB(1), .create_start = {}, .entrypoint_boot = {}}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RuntimeTest, CreateAssignsUniqueIdentity) {
  auto a = runtime.Create("backend-a", "ollama/ollama:v0.9.6");
  auto b = runtime.Create("backend-b", "ollama/ollama:v0.9.6");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->id(), (*b)->id());
  EXPECT_NE((*a)->port(), (*b)->port());
  EXPECT_NE((*a)->ip(), (*b)->ip());
  EXPECT_EQ(runtime.count(), 2u);
}

TEST_F(RuntimeTest, DuplicateNameRejected) {
  ASSERT_TRUE(runtime.Create("x", "ollama/ollama:v0.9.6").ok());
  EXPECT_EQ(runtime.Create("x", "ollama/ollama:v0.9.6").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RuntimeTest, UnknownImageRejected) {
  EXPECT_EQ(runtime.Create("x", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(RuntimeTest, FindByName) {
  ASSERT_TRUE(runtime.Create("x", "ollama/ollama:v0.9.6").ok());
  EXPECT_TRUE(runtime.Find("x").ok());
  EXPECT_EQ(runtime.Find("y").status().code(), StatusCode::kNotFound);
}

TEST_F(RuntimeTest, ListReturnsAll) {
  ASSERT_TRUE(runtime.Create("a", "ollama/ollama:v0.9.6").ok());
  ASSERT_TRUE(runtime.Create("b", "vllm/vllm-openai:v0.9.2").ok());
  EXPECT_EQ(runtime.List().size(), 2u);
}

}  // namespace
}  // namespace swapserve::container
