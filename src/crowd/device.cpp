#include "crowd/device.h"

#include <cmath>

#include "common/check.h"
#include "common/distributions.h"

namespace dptd::crowd {

UserDevice::UserDevice(DeviceConfig config, std::vector<std::uint64_t> objects,
                       std::vector<double> readings, net::Network& network)
    : config_(config),
      objects_(std::move(objects)),
      readings_(std::move(readings)),
      network_(&network),
      rng_(derive_seed(config.seed, config.id)) {
  DPTD_REQUIRE(objects_.size() == readings_.size(),
               "UserDevice: objects/readings size mismatch");
  DPTD_REQUIRE(config_.think_time_seconds >= 0.0,
               "UserDevice: negative think time");
  network_->attach(config_.id, *this);
}

void UserDevice::retask(std::vector<std::uint64_t> objects,
                        std::vector<double> readings, std::uint64_t seed) {
  DPTD_REQUIRE(objects.size() == readings.size(),
               "UserDevice: objects/readings size mismatch");
  objects_ = std::move(objects);
  readings_ = std::move(readings);
  config_.seed = seed;
  rng_ = Rng(derive_seed(seed, config_.id));
  sampled_variance_.reset();
  published_truths_.clear();
}

void UserDevice::set_think_time(double seconds) {
  DPTD_REQUIRE(seconds >= 0.0, "UserDevice: negative think time");
  config_.think_time_seconds = seconds;
}

void UserDevice::on_message(const net::Message& message) {
  switch (static_cast<MessageType>(message.type)) {
    case MessageType::kTaskAnnounce:
      handle_task(TaskAnnounce::decode(message.payload));
      break;
    case MessageType::kResultPublish: {
      const ResultPublish publish = ResultPublish::decode(message.payload);
      published_truths_ = publish.truths;
      break;
    }
    case MessageType::kReport:
    case MessageType::kLabelReport:
    case MessageType::kReportBatch:
    case MessageType::kShardRequest:
    case MessageType::kShardResponse:
    case MessageType::kShutdown:
      // Devices never receive reports or coordinator RPC traffic; ignore
      // (robustness against misrouted traffic rather than an invariant
      // violation).
      break;
  }
}

void UserDevice::handle_task(const TaskAnnounce& task) {
  if (config_.behavior == DeviceBehavior::kDropout) return;

  Report report;
  report.round = task.round;
  report.user_id = config_.id;
  report.objects = objects_;
  report.values.reserve(readings_.size());

  switch (config_.behavior) {
    case DeviceBehavior::kHonest:
    case DeviceBehavior::kDuplicator: {
      // Algorithm 2 lines 3-4: private variance then Gaussian perturbation.
      const double variance = exponential(rng_, task.lambda2);
      sampled_variance_ = variance;
      const double sigma = std::sqrt(variance);
      for (double x : readings_) {
        report.values.push_back(x + normal(rng_, 0.0, sigma));
      }
      break;
    }
    case DeviceBehavior::kConstantLiar:
      for (std::size_t i = 0; i < readings_.size(); ++i) {
        report.values.push_back(config_.constant_value);
      }
      break;
    case DeviceBehavior::kSpammer:
      for (std::size_t i = 0; i < readings_.size(); ++i) {
        report.values.push_back(
            uniform(rng_, config_.spam_lo, config_.spam_hi));
      }
      break;
    case DeviceBehavior::kDropout:
      return;  // unreachable
  }

  // Upload after think time (models sensing/compute on the device). A
  // duplicator re-sends the identical report; the server must deduplicate.
  const std::size_t copies =
      config_.behavior == DeviceBehavior::kDuplicator ? 2 : 1;
  for (std::size_t c = 0; c < copies; ++c) {
    net::Message msg = make_message(config_.id, config_.server_id,
                                    MessageType::kReport, report.encode());
    network_->simulator().schedule(
        config_.think_time_seconds,
        [network = network_, m = std::move(msg)]() mutable {
          network->send(std::move(m));
        });
  }
}

}  // namespace dptd::crowd
