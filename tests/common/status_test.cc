#include "common/status.h"

#include <gtest/gtest.h>

namespace pmemolap {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad size");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad size");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad size");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

Result<int> Doubled(Result<int> input) {
  PMEMOLAP_ASSIGN_OR_RETURN(int value, std::move(input));
  return 2 * value;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> doubled = Doubled(21);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled.value(), 42);
  Result<int> failed = Doubled(Status::DataLoss("poisoned"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("hello"));
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> result(std::string("abc"));
  EXPECT_EQ(result->size(), 3u);
}

Status FailThrough() {
  PMEMOLAP_RETURN_NOT_OK(Status::Internal("boom"));
  return Status::OK();
}

Status PassThrough() {
  PMEMOLAP_RETURN_NOT_OK(Status::OK());
  return Status::AlreadyExists("reached end");
}

TEST(ResultTest, ReturnNotOkMacro) {
  EXPECT_EQ(FailThrough().code(), StatusCode::kInternal);
  EXPECT_EQ(PassThrough().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace pmemolap
