#include "data/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "data/synthetic.h"

namespace dptd::data {
namespace {

TEST(DataIo, ObservationsRoundTripThroughStreams) {
  SyntheticConfig config;
  config.num_users = 12;
  config.num_objects = 5;
  config.missing_rate = 0.3;
  const Dataset dataset = generate_synthetic(config);

  std::ostringstream os;
  write_observations_csv(os, dataset.observations);
  std::istringstream is(os.str());
  const ObservationMatrix loaded = read_observations_csv(is);
  EXPECT_EQ(loaded, dataset.observations);
}

TEST(DataIo, GroundTruthRoundTrip) {
  const std::vector<double> truth = {1.5, -2.25, 1e-8, 42.0};
  std::ostringstream os;
  write_ground_truth_csv(os, truth);
  std::istringstream is(os.str());
  EXPECT_EQ(read_ground_truth_csv(is), truth);
}

TEST(DataIo, HeaderIsWritten) {
  ObservationMatrix obs(1, 1);
  obs.set(0, 0, 1.0);
  std::ostringstream os;
  write_observations_csv(os, obs);
  EXPECT_EQ(os.str().substr(0, 18), "user,object,value\n");
}

TEST(DataIo, ReaderInfersDimensionsFromMaxIds) {
  std::istringstream is("user,object,value\n3,7,1.5\n");
  const ObservationMatrix obs = read_observations_csv(is);
  EXPECT_EQ(obs.num_users(), 4u);
  EXPECT_EQ(obs.num_objects(), 8u);
  EXPECT_DOUBLE_EQ(obs.value(3, 7), 1.5);
  EXPECT_EQ(obs.observation_count(), 1u);
}

TEST(DataIo, RejectsMissingHeader) {
  std::istringstream is("0,0,1.0\n");
  EXPECT_THROW(read_observations_csv(is), std::invalid_argument);
}

TEST(DataIo, RejectsWrongFieldCount) {
  std::istringstream is("user,object,value\n0,0\n");
  EXPECT_THROW(read_observations_csv(is), std::invalid_argument);
}

TEST(DataIo, RejectsNonNumericFields) {
  std::istringstream bad_user("user,object,value\nx,0,1.0\n");
  EXPECT_THROW(read_observations_csv(bad_user), std::invalid_argument);
  std::istringstream bad_value("user,object,value\n0,0,oops\n");
  EXPECT_THROW(read_observations_csv(bad_value), std::invalid_argument);
}

TEST(DataIo, RejectsNegativeIds) {
  std::istringstream is("user,object,value\n-1,0,1.0\n");
  EXPECT_THROW(read_observations_csv(is), std::invalid_argument);
}

TEST(DataIo, RejectsEmptyFile) {
  std::istringstream empty("");
  EXPECT_THROW(read_observations_csv(empty), std::invalid_argument);
  std::istringstream header_only("user,object,value\n");
  EXPECT_THROW(read_observations_csv(header_only), std::invalid_argument);
}

TEST(DataIo, FileRoundTrip) {
  // Per process, so concurrent test runs on one host never share it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dptd_io_test_FileRoundTrip_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string obs_path = (dir / "obs.csv").string();
  const std::string truth_path = (dir / "truth.csv").string();

  SyntheticConfig config;
  config.num_users = 8;
  config.num_objects = 4;
  const Dataset dataset = generate_synthetic(config);
  save_dataset(dataset, obs_path, truth_path);

  const Dataset loaded = load_dataset(obs_path, truth_path);
  EXPECT_EQ(loaded.observations, dataset.observations);
  ASSERT_EQ(loaded.ground_truth.size(), dataset.ground_truth.size());
  for (std::size_t n = 0; n < loaded.ground_truth.size(); ++n) {
    EXPECT_DOUBLE_EQ(loaded.ground_truth[n], dataset.ground_truth[n]);
  }
  std::filesystem::remove_all(dir);
}

TEST(DataIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/path/obs.csv"), std::runtime_error);
}

}  // namespace
}  // namespace dptd::data
