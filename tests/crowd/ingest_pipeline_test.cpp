// IngestPipeline edge cases and the tentpole determinism guarantee:
// serial-vs-pipelined (and 1-vs-K-worker) finalized matrices are bitwise
// identical, duplicate re-sends racing across batches count exactly once,
// round close drains non-empty queues, and byzantine/malformed reports are
// counted exactly once on the owning shard.
#include "crowd/ingest_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "crowd/sharded_server.h"
#include "data/sharding.h"
#include "net/network.h"
#include "testing/address_space.h"
#include "truth/registry.h"

namespace dptd::crowd {
namespace {

std::vector<std::uint8_t> encode_report(std::size_t user,
                                        std::size_t num_objects,
                                        double offset = 0.0,
                                        std::uint64_t round = 1) {
  Report report;
  report.round = round;
  report.user_id = user;
  for (std::size_t n = 0; n < num_objects; ++n) {
    report.objects.push_back(n);
    // A value that depends on user, object, and offset so replays with
    // different payloads are distinguishable in the matrix.
    report.values.push_back(static_cast<double>(user) + 0.125 * n + offset);
  }
  return report.encode();
}

/// Ingests `payloads[i]` for row `rows[i]` serially through per-shard
/// builders — the reference the pipeline must match bitwise.
std::vector<data::ObservationMatrix> serial_reference(
    const data::ShardPlan& plan, std::size_t num_objects,
    const std::vector<std::size_t>& rows,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  std::vector<data::ObservationMatrixBuilder> builders;
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    builders.emplace_back(plan.shard_num_users(s), num_objects);
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Report report = Report::decode(payloads[i]);
    const std::size_t shard = plan.shard_of_user(rows[i]);
    const std::size_t local = rows[i] - plan.user_begin(shard);
    if (builders[shard].has_row(local)) continue;
    ingest_report_claims(builders[shard], local, report, num_objects);
  }
  std::vector<data::ObservationMatrix> out;
  for (auto& builder : builders) out.push_back(builder.finalize());
  return out;
}

void expect_bitwise_equal(const data::ObservationMatrix& a,
                          const data::ObservationMatrix& b,
                          const std::string& context) {
  ASSERT_EQ(a.num_users(), b.num_users()) << context;
  ASSERT_EQ(a.num_objects(), b.num_objects()) << context;
  ASSERT_EQ(a.observation_count(), b.observation_count()) << context;
  for (std::size_t u = 0; u < a.num_users(); ++u) {
    const auto ra = a.user_entries(u);
    const auto rb = b.user_entries(u);
    ASSERT_EQ(ra.size(), rb.size()) << context << " user " << u;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].object, rb[i].object) << context << " user " << u;
      EXPECT_EQ(ra[i].value, rb[i].value) << context << " user " << u;
    }
  }
}

TEST(IngestPipeline, MatchesSerialIngestionBitwiseForEveryWorkerCount) {
  constexpr std::size_t kUsers = 97;
  constexpr std::size_t kObjects = 5;
  const data::ShardPlan plan = data::ShardPlan::create(kUsers, 4, 8);
  ASSERT_EQ(plan.num_shards, 4u);

  // A report stream with out-of-order users, replays with different values,
  // and identical re-sends — the dedup outcome is order-sensitive, which is
  // exactly what must survive pipelining.
  std::vector<std::size_t> rows;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t u = 0; u < kUsers; ++u) {
    const std::size_t user = (u * 37) % kUsers;  // shuffled arrival order
    rows.push_back(user);
    payloads.push_back(encode_report(user, kObjects, 0.25));
    if (user % 7 == 0) {  // replay with a DIFFERENT payload: must be ignored
      rows.push_back(user);
      payloads.push_back(encode_report(user, kObjects, 99.0));
    }
  }
  const std::vector<data::ObservationMatrix> reference =
      serial_reference(plan, kObjects, rows, payloads);

  for (const std::size_t workers : {0u, 1u, 2u, 3u, 4u, 7u}) {
    IngestPipelineConfig config;
    config.num_workers = workers;
    config.queue_capacity = 16;  // small ring: exercises backpressure
    config.max_batch = 4;        // duplicates race across batches
    IngestPipeline pipeline(config);
    pipeline.begin_round(plan, kObjects);
    EXPECT_EQ(pipeline.num_workers(), std::min<std::size_t>(workers, 4u));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      pipeline.submit(rows[i], payloads[i]);
    }
    const std::vector<data::ObservationMatrix> shards =
        pipeline.finalize_shards();
    ASSERT_EQ(shards.size(), reference.size()) << workers;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      expect_bitwise_equal(shards[s], reference[s],
                           "workers=" + std::to_string(workers) + " shard " +
                               std::to_string(s));
    }
    const std::vector<ShardIngestStats> stats = pipeline.shard_stats();
    std::size_t received = 0;
    std::size_t duplicates = 0;
    for (const ShardIngestStats& shard : stats) {
      received += shard.reports_received;
      duplicates += shard.duplicates_ignored;
    }
    EXPECT_EQ(received, kUsers) << workers;
    EXPECT_EQ(duplicates, rows.size() - kUsers) << workers;
    EXPECT_EQ(pipeline.distinct_reporters(), kUsers) << workers;
  }
}

TEST(IngestPipeline, DuplicateResendsRacingAcrossBatchesCountOnce) {
  // One user re-sent many more times than a worker batch holds: however the
  // batches split, exactly one copy lands and the rest count as duplicates.
  constexpr std::size_t kObjects = 3;
  const data::ShardPlan plan = data::ShardPlan::create(6, 2, 2);
  IngestPipelineConfig config;
  config.num_workers = 2;
  config.max_batch = 2;
  IngestPipeline pipeline(config);
  pipeline.begin_round(plan, kObjects);

  const std::vector<std::uint8_t> first = encode_report(3, kObjects, 0.5);
  pipeline.submit(3, first);
  for (int i = 0; i < 20; ++i) {
    pipeline.submit(3, encode_report(3, kObjects, 1000.0 + i));
  }
  pipeline.drain();
  EXPECT_EQ(pipeline.distinct_reporters(), 1u);
  const std::vector<ShardIngestStats> stats = pipeline.shard_stats();
  const std::size_t home = plan.shard_of_user(3);
  EXPECT_EQ(stats[home].reports_received, 1u);
  EXPECT_EQ(stats[home].duplicates_ignored, 20u);
  EXPECT_EQ(stats[1 - home].reports_received, 0u);

  // First-report-wins: the matrix holds the 0.5-offset payload.
  const std::vector<data::ObservationMatrix> shards =
      pipeline.finalize_shards();
  const std::size_t local = 3 - plan.user_begin(home);
  const auto row = shards[home].user_entries(local);
  ASSERT_EQ(row.size(), kObjects);
  EXPECT_EQ(row[0].value, 3.5);
}

TEST(IngestPipeline, FinalizeWithNonEmptyQueuesDrainsEverything) {
  // Round close arriving while queues are still full: finalize_shards must
  // block on the drain barrier, so every submitted report lands.
  constexpr std::size_t kUsers = 512;
  constexpr std::size_t kObjects = 4;
  const data::ShardPlan plan = data::ShardPlan::create(kUsers, 2, 64);
  IngestPipelineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 8;  // guarantees in-flight items at close time
  IngestPipeline pipeline(config);
  pipeline.begin_round(plan, kObjects);
  for (std::size_t u = 0; u < kUsers; ++u) {
    pipeline.submit(u, encode_report(u, kObjects));
  }
  // No explicit drain: finalize must do it.
  const std::vector<data::ObservationMatrix> shards =
      pipeline.finalize_shards();
  std::size_t rows = 0;
  for (const auto& shard : shards) rows += shard.num_users();
  EXPECT_EQ(rows, kUsers);
  EXPECT_EQ(pipeline.distinct_reporters(), kUsers);
}

TEST(IngestPipeline, MalformedAndUndecodableReportsCountExactlyOnce) {
  constexpr std::size_t kObjects = 2;
  const data::ShardPlan plan = data::ShardPlan::create(4, 2, 2);
  IngestPipelineConfig config;
  config.num_workers = 2;
  IngestPipeline pipeline(config);
  pipeline.begin_round(plan, kObjects);

  pipeline.submit(0, encode_report(0, kObjects));
  // Malformed claims (NaN + out-of-range object): sanitized, counted once.
  Report poisoned;
  poisoned.round = 1;
  poisoned.user_id = 2;
  poisoned.objects = {0, 1, 57};
  poisoned.values = {std::numeric_limits<double>::quiet_NaN(), 8.0, 1.0};
  pipeline.submit(2, poisoned.encode());
  // Undecodable body whose header still routes: build a payload that starts
  // with valid round/user varints but ends mid-array.
  std::vector<std::uint8_t> truncated = encode_report(3, kObjects);
  truncated.resize(truncated.size() - 5);
  pipeline.submit(3, truncated);
  pipeline.drain();

  const std::vector<ShardIngestStats> stats = pipeline.shard_stats();
  std::size_t received = 0;
  std::size_t malformed = 0;
  std::size_t rejected = 0;
  for (const ShardIngestStats& shard : stats) {
    received += shard.reports_received;
    malformed += shard.malformed_reports;
    rejected += shard.rejected_reports;
  }
  EXPECT_EQ(received, 2u);  // user 0 clean + user 2 sanitized
  EXPECT_EQ(malformed, 1u);
  EXPECT_EQ(rejected, 1u);
  EXPECT_EQ(pipeline.distinct_reporters(), 2u);
}

TEST(IngestPipeline, ReusedAcrossRoundsWithChangingTopology) {
  // The campaign pattern: one pipeline object, rounds of different user
  // counts and shard counts. Builders reshape; workers restart only when the
  // topology changes.
  IngestPipelineConfig config;
  config.num_workers = 2;
  IngestPipeline pipeline(config);
  for (const auto& [users, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {16, 2}, {16, 2}, {24, 4}, {8, 1}}) {
    const data::ShardPlan plan = data::ShardPlan::create(users, shards, 4);
    pipeline.begin_round(plan, 3);
    for (std::size_t u = 0; u < users; ++u) {
      pipeline.submit(u, encode_report(u, 3));
    }
    pipeline.drain();
    EXPECT_EQ(pipeline.distinct_reporters(), users);
    const auto matrices = pipeline.finalize_shards();
    EXPECT_EQ(matrices.size(), plan.num_shards);
  }
}

// --- Batched hand-off -------------------------------------------------------

/// Per-shard stats the serial reference ingestion yields for the stream.
std::vector<ShardIngestStats> serial_stats(
    const data::ShardPlan& plan, const std::vector<std::size_t>& rows) {
  std::vector<ShardIngestStats> stats(plan.num_shards);
  std::vector<bool> seen(plan.num_users, false);
  for (const std::size_t row : rows) {
    ShardIngestStats& shard = stats[plan.shard_of_user(row)];
    if (seen[row]) {
      ++shard.duplicates_ignored;
    } else {
      seen[row] = true;
      ++shard.reports_received;
    }
  }
  return stats;
}

TEST(IngestPipeline, EveryBatchBoundaryMatchesSerialIngestionBitwise) {
  // Each worker gets exactly `per_worker` reports, at and around the batch
  // and queue boundaries, interleaved across workers. Every third report is
  // staged zero-copy, so submit and submit_view records share batches; the
  // second config caps the hand-off at queue_capacity < max_batch.
  constexpr std::size_t kObjects = 3;
  constexpr std::size_t kShardUsers = 40;
  const data::ShardPlan plan = data::ShardPlan::create(3 * kShardUsers, 3, 1);
  ASSERT_EQ(plan.num_shards, 3u);
  for (const auto& [capacity, batch] :
       std::vector<std::pair<std::size_t, std::size_t>>{{8, 4}, {3, 8}}) {
    for (const std::size_t per_worker :
         {std::size_t{0}, std::size_t{1}, batch - 1, batch, batch + 1,
          capacity + batch + 1}) {
      for (const std::size_t workers : {1u, 2u, 3u}) {
        const std::string context =
            "capacity=" + std::to_string(capacity) +
            " max_batch=" + std::to_string(batch) +
            " per_worker=" + std::to_string(per_worker) +
            " workers=" + std::to_string(workers);
        // Worker w owns shards [w*3/W, (w+1)*3/W): users of that range, each
        // user twice in a row with different values (the first must win).
        std::vector<std::size_t> rows;
        std::vector<std::vector<std::uint8_t>> payloads;
        for (std::size_t i = 0; i < per_worker; ++i) {
          for (std::size_t w = 0; w < workers; ++w) {
            const std::size_t begin = w * 3 / workers * kShardUsers;
            const std::size_t end = (w + 1) * 3 / workers * kShardUsers;
            const std::size_t row = begin + (i / 2 * 7) % (end - begin);
            rows.push_back(row);
            payloads.push_back(
                encode_report(row, kObjects, 0.5 * static_cast<double>(i)));
          }
        }
        const std::vector<data::ObservationMatrix> reference =
            serial_reference(plan, kObjects, rows, payloads);
        const std::vector<ShardIngestStats> reference_stats =
            serial_stats(plan, rows);

        IngestPipelineConfig config;
        config.num_workers = workers;
        config.queue_capacity = capacity;
        config.max_batch = batch;
        IngestPipeline pipeline(config);
        pipeline.begin_round(plan, kObjects);
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (i % 3 == 0) {
            pipeline.submit_view(rows[i], payloads[i]);
          } else {
            pipeline.submit(rows[i], payloads[i]);
          }
        }
        const std::vector<data::ObservationMatrix> shards =
            pipeline.finalize_shards();
        ASSERT_EQ(shards.size(), reference.size()) << context;
        for (std::size_t s = 0; s < shards.size(); ++s) {
          expect_bitwise_equal(shards[s], reference[s],
                               context + " shard " + std::to_string(s));
        }
        const std::vector<ShardIngestStats> stats = pipeline.shard_stats();
        std::size_t distinct = 0;
        for (std::size_t s = 0; s < stats.size(); ++s) {
          EXPECT_EQ(stats[s].reports_received,
                    reference_stats[s].reports_received)
              << context << " shard " << s;
          EXPECT_EQ(stats[s].duplicates_ignored,
                    reference_stats[s].duplicates_ignored)
              << context << " shard " << s;
          distinct += reference_stats[s].reports_received;
        }
        EXPECT_EQ(pipeline.distinct_reporters(), distinct) << context;
      }
    }
  }
}

TEST(IngestPipeline, BeginRoundRefusesUndrainedReportsUntilDrained) {
  constexpr std::size_t kObjects = 2;
  const data::ShardPlan plan = data::ShardPlan::create(8, 2, 2);
  IngestPipelineConfig config;
  config.num_workers = 2;
  config.max_batch = 4;
  IngestPipeline pipeline(config);
  pipeline.begin_round(plan, kObjects);
  pipeline.submit(1, encode_report(1, kObjects));  // staged, not handed over
  EXPECT_THROW(pipeline.begin_round(plan, kObjects), std::invalid_argument);

  // The refused call changed nothing: the staged report still lands.
  pipeline.drain();
  EXPECT_EQ(pipeline.distinct_reporters(), 1u);
  EXPECT_EQ(pipeline.shard_stats()[plan.shard_of_user(1)].reports_received,
            1u);

  pipeline.begin_round(plan, kObjects, /*round=*/2);
  std::vector<std::size_t> rows;
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t u = 0; u < plan.num_users; ++u) {
    rows.push_back(u);
    payloads.push_back(encode_report(u, kObjects, 0.75));
    pipeline.submit(rows.back(), payloads.back());
  }
  const std::vector<data::ObservationMatrix> shards =
      pipeline.finalize_shards();
  const std::vector<data::ObservationMatrix> reference =
      serial_reference(plan, kObjects, rows, payloads);
  ASSERT_EQ(shards.size(), reference.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    expect_bitwise_equal(shards[s], reference[s],
                         "after drain, shard " + std::to_string(s));
  }
  EXPECT_EQ(pipeline.distinct_reporters(), plan.num_users);
}

// --- End-to-end: ShardedServer at every worker count ----------------------

constexpr net::NodeId kServerId = 1000;

struct Harness {
  net::Simulator sim;
  net::Network network{sim, net::LatencyModel{0.01, 0.0, 0.0}, 5};
};

void send_report(Harness& h, std::size_t user, std::size_t num_objects,
                 double offset = 0.0, std::uint64_t round = 1) {
  Report report;
  report.round = round;
  report.user_id = user;
  for (std::size_t n = 0; n < num_objects; ++n) {
    report.objects.push_back(n);
    report.values.push_back(static_cast<double>(user + 10 * n) + offset);
  }
  h.network.send(
      make_message(user, kServerId, MessageType::kReport, report.encode()));
}

/// One round of `num_users` reports, every ninth followed by a byzantine
/// replay. The last user's first upload is its report cut after the claim
/// count (its header still peeks) and its valid report follows, so only a
/// re-send completes the roster; the stream ends with a re-send from user 0.
RoundOutcome run_sharded_round(std::size_t ingest_threads,
                               std::size_t num_users, std::size_t num_objects,
                               std::size_t num_shards) {
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = num_objects;
  config.collection_window_seconds = 10.0;
  config.num_shards = num_shards;
  config.stats_block_size = 4;
  config.ingest_threads = ingest_threads;
  truth::ConvergenceCriteria convergence;
  convergence.tolerance = 1e-9;
  convergence.max_iterations = 100;
  ShardedServer server(config, truth::make_method("crh", convergence),
                       h.network);
  server.start_round(1, [&] {
    std::vector<net::NodeId> ids;
    for (std::size_t s = 0; s < num_users; ++s) ids.push_back(s);
    return ids;
  }());
  for (std::size_t s = 0; s < num_users; ++s) {
    if (s + 1 == num_users) {
      Encoder cut;
      cut.write_varint(1);  // round
      cut.write_varint(s);
      cut.write_varint(num_objects);  // and not one claim
      h.network.send(
          make_message(s, kServerId, MessageType::kReport, cut.take()));
    }
    send_report(h, s, num_objects, 0.25 * static_cast<double>(s % 5));
    if (s % 9 == 0) send_report(h, s, num_objects, 77.0);  // byzantine replay
  }
  send_report(h, 0, num_objects, 55.0);
  h.sim.run();
  EXPECT_EQ(server.outcomes().size(), 1u);
  return server.outcomes().at(0);
}

TEST(IngestPipeline, ShardedServerSerialVsPipelinedBitwise) {
  // The acceptance-criteria determinism test: the same report stream through
  // synchronous ingestion and through the pipelined path (several worker
  // counts) publishes bitwise-identical truths, weights, and counters.
  const RoundOutcome serial = run_sharded_round(0, 40, 3, 4);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const RoundOutcome pipelined = run_sharded_round(workers, 40, 3, 4);
    EXPECT_EQ(serial.reports_received, pipelined.reports_received) << workers;
    EXPECT_EQ(serial.duplicates_ignored, pipelined.duplicates_ignored)
        << workers;
    EXPECT_EQ(serial.reports_rejected, pipelined.reports_rejected) << workers;
    EXPECT_EQ(serial.result.iterations, pipelined.result.iterations)
        << workers;
    ASSERT_EQ(serial.result.truths.size(), pipelined.result.truths.size());
    for (std::size_t n = 0; n < serial.result.truths.size(); ++n) {
      EXPECT_EQ(serial.result.truths[n], pipelined.result.truths[n])
          << "workers=" << workers << " object " << n;
    }
    ASSERT_EQ(serial.result.weights.size(), pipelined.result.weights.size());
    for (std::size_t s = 0; s < serial.result.weights.size(); ++s) {
      EXPECT_EQ(serial.result.weights[s], pipelined.result.weights[s])
          << "workers=" << workers << " user " << s;
    }
    ASSERT_EQ(serial.shard_stats.size(), pipelined.shard_stats.size());
    for (std::size_t i = 0; i < serial.shard_stats.size(); ++i) {
      EXPECT_EQ(serial.shard_stats[i].reports_received,
                pipelined.shard_stats[i].reports_received)
          << workers;
      EXPECT_EQ(serial.shard_stats[i].duplicates_ignored,
                pipelined.shard_stats[i].duplicates_ignored)
          << workers;
    }
  }
}

TEST(IngestPipeline, ShardedServerPipelinedByzantineHandling) {
  // Unknown users, undecodable headers, and wrong-round reports through the
  // pipelined path: dropped and counted, never fatal, round still closes.
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 1;
  config.collection_window_seconds = 10.0;
  config.num_shards = 2;
  config.stats_block_size = 1;
  config.ingest_threads = 2;
  ShardedServer server(config, truth::make_method("mean"), h.network);
  server.start_round(1, {0, 1});

  send_report(h, 0, 1);
  Report bogus;  // unknown user: routable to no shard
  bogus.round = 1;
  bogus.user_id = 9999;
  bogus.objects = {0};
  bogus.values = {1234.0};
  h.network.send(
      make_message(777, kServerId, MessageType::kReport, bogus.encode()));
  h.network.send(make_message(777, kServerId, MessageType::kReport,
                              {0xff, 0xff, 0xff, 0xff, 0xff}));
  send_report(h, 1, 1, 0.0, /*round=*/7);  // stale round: silently ignored
  send_report(h, 1, 1);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 1u);
  const RoundOutcome& outcome = server.outcomes()[0];
  EXPECT_EQ(outcome.reports_received, 2u);
  EXPECT_EQ(outcome.reports_rejected, 2u);  // unknown user + bad header
  ASSERT_EQ(outcome.result.truths.size(), 1u);
  EXPECT_NEAR(outcome.result.truths[0], 0.5, 1e-12);  // mean of {0, 1}
}

TEST(IngestPipeline, ShardedServerPipelinedMultiRoundWarmStart) {
  // Pipeline reuse across server rounds, with warm starts: the second round
  // must be seeded and converge in no more iterations than the first.
  Harness h;
  ServerConfig config;
  config.id = kServerId;
  config.num_objects = 2;
  config.collection_window_seconds = 10.0;
  config.num_shards = 3;
  config.stats_block_size = 2;
  config.ingest_threads = 3;
  config.warm_start = true;
  truth::ConvergenceCriteria convergence;
  convergence.tolerance = 1e-9;
  convergence.max_iterations = 100;
  ShardedServer server(config, truth::make_method("crh", convergence),
                       h.network);
  const std::vector<net::NodeId> ids{0, 1, 2, 3, 4, 5};

  server.start_round(1, ids);
  for (std::size_t s = 0; s < 6; ++s) send_report(h, s, 2, 0.1);
  h.sim.run();
  server.start_round(2, ids);
  for (std::size_t s = 0; s < 6; ++s) send_report(h, s, 2, 0.12, /*round=*/2);
  h.sim.run();

  ASSERT_EQ(server.outcomes().size(), 2u);
  EXPECT_FALSE(server.outcomes()[0].warm_started);
  EXPECT_TRUE(server.outcomes()[1].warm_started);
  EXPECT_LE(server.outcomes()[1].result.iterations,
            server.outcomes()[0].result.iterations);
}

TEST(ShardIngestorDeathTest, OversizedClaimCountIsARejectNotAnAbort) {
  // Regression: the report decoders reserved the claim count before checking
  // the bytes left, so a 5-byte upload claiming 2^26 claims reserved 512 MiB
  // per array and killed an ingest worker or a shard process with
  // std::bad_alloc. The child caps its own address space 256 MiB above its
  // current size, so such a reservation fails at once instead of paging; in
  // a continuous and in a label round the upload must be one rejected report.
#ifdef DPTD_TEST_SANITIZED
  GTEST_SKIP() << "sanitizers reserve shadow memory up front";
#endif
  EXPECT_EXIT(
      {
        dptd::testing::cap_address_space(rlim_t{256} << 20);

        Encoder upload;  // user id 0, then 2^26 claims and not one byte more
        upload.write_varint(0);
        upload.write_varint(std::uint64_t{1} << 26);
        LabelIngestPolicy labels;
        labels.num_labels = 4;
        bool one_reject_each = true;
        for (const LabelIngestPolicy& policy : {LabelIngestPolicy{}, labels}) {
          ShardIngestor ingestor;
          ingestor.begin_round(2, 3, 1, policy);
          ingestor.ingest(0, upload.bytes());
          one_reject_each =
              one_reject_each && ingestor.stats().rejected_reports == 1;
        }
        std::exit(one_reject_each ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace dptd::crowd
