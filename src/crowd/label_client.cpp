#include "crowd/label_client.h"

#include "categorical/randomized_response.h"
#include "common/check.h"
#include "common/distributions.h"
#include "common/rng.h"

namespace dptd::crowd {

LabelReport make_label_report(std::uint64_t round, net::NodeId user_id,
                              std::span<const std::uint64_t> objects,
                              std::span<const categorical::Label> truths,
                              std::size_t num_labels, double keep_probability,
                              std::uint64_t seed) {
  DPTD_REQUIRE(objects.size() == truths.size(),
               "make_label_report: objects/truths size mismatch");
  LabelReport report;
  report.round = round;
  report.user_id = user_id;
  report.objects.assign(objects.begin(), objects.end());
  report.labels.reserve(truths.size());
  if (keep_probability >= 1.0) {
    report.labels.assign(truths.begin(), truths.end());
    return report;
  }
  Rng rng(derive_seed(seed, round, user_id));
  for (categorical::Label truth : truths) {
    report.labels.push_back(
        categorical::krr_perturb(truth, keep_probability, num_labels, rng));
  }
  return report;
}

LabelDevice::LabelDevice(LabelDeviceConfig config,
                         std::vector<std::uint64_t> objects,
                         std::vector<categorical::Label> labels,
                         net::Network& network)
    : config_(config),
      objects_(std::move(objects)),
      labels_(std::move(labels)),
      network_(&network) {
  DPTD_REQUIRE(objects_.size() == labels_.size(),
               "LabelDevice: objects/labels size mismatch");
  DPTD_REQUIRE(config_.num_labels >= 2, "LabelDevice: num_labels must be >= 2");
  DPTD_REQUIRE(config_.think_time_seconds >= 0.0,
               "LabelDevice: negative think time");
  network_->attach(config_.id, *this);
}

void LabelDevice::retask(std::vector<std::uint64_t> objects,
                         std::vector<categorical::Label> labels,
                         std::uint64_t seed) {
  DPTD_REQUIRE(objects.size() == labels.size(),
               "LabelDevice: objects/labels size mismatch");
  objects_ = std::move(objects);
  labels_ = std::move(labels);
  config_.seed = seed;
  published_truths_.clear();
}

void LabelDevice::on_message(const net::Message& message) {
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
      break;  // never addressed to a device; ignore misrouted traffic
  }
}

void LabelDevice::handle_task(const TaskAnnounce& task) {
  if (config_.behavior == DeviceBehavior::kDropout) return;

  LabelReport report;
  switch (config_.behavior) {
    case DeviceBehavior::kHonest:
    case DeviceBehavior::kDuplicator: {
      const double keep =
          config_.epsilon > 0.0
              ? categorical::krr_keep_probability(config_.epsilon,
                                                  config_.num_labels)
              : 1.0;
      report = make_label_report(task.round, config_.id, objects_, labels_,
                                 config_.num_labels, keep, config_.seed);
      break;
    }
    case DeviceBehavior::kConstantLiar:
      report.round = task.round;
      report.user_id = config_.id;
      report.objects = objects_;
      report.labels.assign(objects_.size(), config_.constant_label);
      break;
    case DeviceBehavior::kSpammer: {
      report.round = task.round;
      report.user_id = config_.id;
      report.objects = objects_;
      report.labels.reserve(objects_.size());
      // The spam stream shares the honest keying so adversarial rounds are
      // just as replayable as honest ones.
      Rng rng(derive_seed(config_.seed, task.round, config_.id));
      for (std::size_t i = 0; i < objects_.size(); ++i) {
        report.labels.push_back(static_cast<categorical::Label>(
            uniform_index(rng, config_.num_labels)));
      }
      break;
    }
    case DeviceBehavior::kDropout:
      return;  // unreachable
  }

  const std::size_t copies =
      config_.behavior == DeviceBehavior::kDuplicator ? 2 : 1;
  for (std::size_t c = 0; c < copies; ++c) {
    net::Message msg =
        make_message(config_.id, config_.server_id, MessageType::kLabelReport,
                     report.encode());
    network_->simulator().schedule(
        config_.think_time_seconds,
        [network = network_, m = std::move(msg)]() mutable {
          network->send(std::move(m));
        });
  }
}

}  // namespace dptd::crowd
